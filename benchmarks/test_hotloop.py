"""Run-to-completion throughput: the trace tier's step loop vs the interpreter.

Measured on the **golden program set** — the ten cases of
``tests/integration/test_golden_determinism.py::CASES`` (sum_loop,
polymorphism, quicksort O0–O3, linked_list O0–O3) — with the
10k-iteration hot loop ``sum_loop_10k`` reported as one extra row.  An
uninstrumented run with the step loop must

* produce **byte-identical architectural state and cycle counts** to the
  trace-off interpreter run, on every program (asserted unconditionally —
  bit-exactness is non-negotiable), and
* beat the interpreter on the **geomean of cycles per host second over
  the golden set**.  Per-program throughput is an interleaved median, so
  host-load drift cancels out of the ratio.

``BENCH_hotloop.json`` pins the figures measured on a quiet machine; the
CI floor below sits under the measured golden geomean so a loaded shared
runner does not flake the build, while a step loop that regresses to the
interpreter's speed (ratio ~1x) still fails.  Run with ``-s`` to see the
per-program table.
"""

import gc
import importlib.util
import json
import math
import pathlib
import statistics
import time

import pytest

from repro import Simulation

BASELINE = pathlib.Path(__file__).with_name("BENCH_hotloop.json")
GOLDEN_MODULE = (pathlib.Path(__file__).resolve().parents[1] / "tests"
                 / "integration" / "test_golden_determinism.py")

#: the microkernel row: one hot loop executed ~10k times (~20k cycles)
HOT_LOOP = """
    li a0, 0
    li t0, 1
    li t1, 10000
loop:
    add a0, a0, t0
    addi t0, t0, 1
    ble t0, t1, loop
    ebreak
"""

#: CI floor for the golden-set geomean speedup.  Measured 1.43x on a
#: quiet host (per program 1.30x-1.79x; see BENCH_hotloop.json); 1.25x
#: leaves room for a noisy shared runner and still fails loudly if the
#: step loop falls back toward the interpreter (~1x).
MIN_GEOMEAN_SPEEDUP_CI = 1.25

ROUNDS = 5


def _golden_cases():
    spec = importlib.util.spec_from_file_location("hotloop_golden",
                                                  GOLDEN_MODULE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CASES


GOLDEN = _golden_cases()
PROGRAMS = {**GOLDEN,
            "sum_loop_10k": lambda: Simulation.from_source(HOT_LOOP)}


def _run_once(factory, trace: bool):
    """One run to completion; returns (simulation, cpu-seconds).

    Construction (C compile, assembly) is outside the timed region; the
    step loop's codegen is inside it (a cache miss only on the first run
    of a configuration).  The collector is paused while timing
    (pyperformance-style): gen-0 collections are triggered by allocation
    count, so they tax the faster path's wall-clock proportionally more
    and add most of the run-to-run ratio noise."""
    sim = factory()
    if not trace:
        sim.cpu.config.trace = False
        sim.cpu._trace_wanted = False
    gc.disable()
    try:
        start = time.process_time()
        sim.run()
        elapsed = time.process_time() - start
    finally:
        gc.enable()
    return sim, elapsed


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def measure(rounds: int) -> dict:
    """Interleaved off/on rounds per program: median cycles/s of each
    path plus the final simulations of the last round."""
    rates = {name: ([], []) for name in PROGRAMS}
    sims = {}
    for _ in range(rounds):
        for name, factory in PROGRAMS.items():
            off_sim, off_s = _run_once(factory, trace=False)
            on_sim, on_s = _run_once(factory, trace=True)
            rates[name][0].append(off_sim.cycle / off_s)
            rates[name][1].append(on_sim.cycle / on_s)
            sims[name] = (off_sim, on_sim)
    rows = {name: {"cycles": sims[name][1].cycle,
                   "interpCps": statistics.median(off),
                   "stepCps": statistics.median(on)}
            for name, (off, on) in rates.items()}
    golden = [rows[name] for name in GOLDEN]
    geomean = {"interpCps": _geomean([r["interpCps"] for r in golden]),
               "stepCps": _geomean([r["stepCps"] for r in golden])}
    return {"rows": rows, "geomean": geomean, "sims": sims}


@pytest.fixture(scope="module")
def hotloop_runs():
    return measure(ROUNDS)


def test_trace_on_is_bit_exact(hotloop_runs):
    """Same cycles, same architectural result, byte-identical cold
    snapshot on every program — the step loop is an optimization, never
    an approximation."""
    for name, (off, on) in hotloop_runs["sims"].items():
        assert on.cycle == off.cycle, name
        assert json.dumps(on.snapshot_cold(), sort_keys=True) \
            == json.dumps(off.snapshot_cold(), sort_keys=True), name
    off, on = hotloop_runs["sims"]["sum_loop_10k"]
    assert on.register_value("a0") == sum(range(1, 10001))


def test_trace_tier_really_compiled(hotloop_runs):
    """The step loop engaged on every program: guard against silently
    benchmarking interpreter vs interpreter."""
    for name, (off, on) in hotloop_runs["sims"].items():
        assert on.cpu._step_loop is not None, name
        assert off.cpu._step_loop is None, name


def test_trace_tier_speedup(hotloop_runs):
    rows, geo = hotloop_runs["rows"], hotloop_runs["geomean"]
    print(f"\n{'program':<16}{'cycles':>8}{'interp c/s':>13}"
          f"{'step c/s':>12}{'ratio':>8}")
    for name, row in rows.items():
        print(f"{name:<16}{row['cycles']:>8}{row['interpCps']:>13,.0f}"
              f"{row['stepCps']:>12,.0f}"
              f"{row['stepCps'] / row['interpCps']:>7.2f}x")
    ratio = geo["stepCps"] / geo["interpCps"]
    print(f"{'golden geomean':<24}{geo['interpCps']:>13,.0f}"
          f"{geo['stepCps']:>12,.0f}{ratio:>7.2f}x "
          f"(CI floor {MIN_GEOMEAN_SPEEDUP_CI}x)")
    assert ratio >= MIN_GEOMEAN_SPEEDUP_CI, (
        f"step loop golden-geomean speedup {ratio:.2f}x below the "
        f"{MIN_GEOMEAN_SPEEDUP_CI}x CI floor (see BENCH_hotloop.json)")


def test_baseline_file_is_committed_and_consistent():
    """BENCH_hotloop.json anchors the speed-smoke trajectory."""
    baseline = json.loads(BASELINE.read_text())
    assert baseline["acceptance"]["ciFloorGeomeanX"] \
        == MIN_GEOMEAN_SPEEDUP_CI
    programs = baseline["measured"]["programs"]
    assert set(programs) == set(PROGRAMS)
    assert programs["sum_loop_10k"]["cycles"] == 20044
    for row in programs.values():
        assert row["speedupX"] == pytest.approx(
            row["stepCps"] / row["interpCps"], rel=0.02)
    geo = baseline["measured"]["goldenGeomean"]
    assert geo["interpCps"] == pytest.approx(
        _geomean([programs[name]["interpCps"] for name in GOLDEN]),
        rel=0.02)
    assert geo["stepCps"] == pytest.approx(
        _geomean([programs[name]["stepCps"] for name in GOLDEN]),
        rel=0.02)
    assert geo["speedupX"] >= MIN_GEOMEAN_SPEEDUP_CI


def test_hotloop_traced_run_benchmark(benchmark):
    """pytest-benchmark visibility for the step loop's run-to-completion
    path on the microkernel (the interleaved fixture above owns the
    ratios; this tracks the absolute number per change)."""
    sim = benchmark(lambda: _run_once(PROGRAMS["sum_loop_10k"], True)[0])
    assert sim.halted
    cps = sim.cycle / benchmark.stats["mean"]
    print(f"\nstep-loop uninstrumented throughput: {cps:,.0f} cycles/second")
