"""Step-loop throughput: runs to completion and per-cycle stepping.

Measured on the **golden program set** — the ten cases of
``tests/integration/test_golden_determinism.py::CASES`` (sum_loop,
polymorphism, quicksort O0–O3, linked_list O0–O3) — with the
10k-iteration hot loop ``sum_loop_10k`` reported as one extra row.  The
config-specialized step loop is the only timing model, driven two ways:

* **run** — one ``Simulation.run()``: a single loop call to the halt
  (jobs, sweeps, the fast-forward leg of seeks);
* **step** — one ``Cpu.step()`` per cycle: a loop call per cycle
  (interactive stepping, ``step_back`` replay, the seek tail).

Both must land on the frozen golden digests (``golden_determinism.json``:
cycles, committed count, register and memory hashes) and in
byte-identical cold snapshots — asserted unconditionally.  Throughput is
reported as the median cycles per host CPU second over interleaved
rounds; ``BENCH_hotloop.json`` pins the figures measured on a quiet
machine.  Run with ``-s`` to see the per-program table.
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
GOLDEN_DIR = (pathlib.Path(__file__).resolve().parents[1] / "tests"
              / "integration")
GOLDEN_MODULE = GOLDEN_DIR / "test_golden_determinism.py"
GOLDEN_DIGESTS = json.loads(
    (GOLDEN_DIR / "golden_determinism.json").read_text())

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

ROUNDS = 5


def _golden_module():
    spec = importlib.util.spec_from_file_location("hotloop_golden",
                                                  GOLDEN_MODULE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GOLDEN_MOD = _golden_module()
GOLDEN = GOLDEN_MOD.CASES
PROGRAMS = {**GOLDEN,
            "sum_loop_10k": lambda: Simulation.from_source(HOT_LOOP)}


def _run_once(factory, stepped: bool = False):
    """One simulation to its halt; returns (simulation, cpu-seconds).

    Construction (C compile, assembly) is outside the timed region; the
    step loop's codegen is inside it (a cache miss only on the first run
    of a configuration).  The collector is paused while timing
    (pyperformance-style): gen-0 collections are triggered by allocation
    count and add most of the run-to-run noise."""
    sim = factory()
    cpu = sim.cpu
    gc.disable()
    try:
        start = time.process_time()
        if stepped:
            while cpu.halted is None:
                cpu.step()
        else:
            sim.run()
        elapsed = time.process_time() - start
    finally:
        gc.enable()
    return sim, elapsed


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def measure(rounds: int) -> dict:
    """Interleaved run/step rounds per program: median cycles/s of each
    way of driving the loop plus the final simulations of the last
    round."""
    rates = {name: ([], []) for name in PROGRAMS}
    sims = {}
    for _ in range(rounds):
        for name, factory in PROGRAMS.items():
            run_sim, run_s = _run_once(factory)
            step_sim, step_s = _run_once(factory, stepped=True)
            rates[name][0].append(run_sim.cycle / run_s)
            rates[name][1].append(step_sim.cycle / step_s)
            sims[name] = (run_sim, step_sim)
    rows = {name: {"cycles": sims[name][0].cycle,
                   "runCps": statistics.median(run),
                   "stepCps": statistics.median(step)}
            for name, (run, step) in rates.items()}
    golden = [rows[name] for name in GOLDEN]
    geomean = {"runCps": _geomean([r["runCps"] for r in golden]),
               "stepCps": _geomean([r["stepCps"] for r in golden])}
    return {"rows": rows, "geomean": geomean, "sims": sims}


@pytest.fixture(scope="module")
def hotloop_runs():
    return measure(ROUNDS)


def test_trace_on_is_bit_exact(hotloop_runs):
    """Both ways of driving the loop land on the frozen golden digests
    and in byte-identical cold snapshots — the step loop is the timing
    model, never an approximation of one."""
    for name, (run, step) in hotloop_runs["sims"].items():
        if name in GOLDEN:
            assert GOLDEN_MOD.fingerprint_state(run) == GOLDEN_DIGESTS[name]
            assert GOLDEN_MOD.fingerprint_state(step) == GOLDEN_DIGESTS[name]
        assert step.cycle == run.cycle, name
        assert json.dumps(step.snapshot_cold(), sort_keys=True) \
            == json.dumps(run.snapshot_cold(), sort_keys=True), name
    run, step = hotloop_runs["sims"]["sum_loop_10k"]
    assert run.register_value("a0") == sum(range(1, 10001))
    assert run.cycle == 20044


def test_trace_tier_really_compiled(hotloop_runs):
    """One generated loop served both paths of every program."""
    for name, (run, step) in hotloop_runs["sims"].items():
        assert run.cpu._step_loop is not None, name
        assert step.cpu._step_loop.__code__ is run.cpu._step_loop.__code__


def test_step_loop_throughput(hotloop_runs):
    rows, geo = hotloop_runs["rows"], hotloop_runs["geomean"]
    print(f"\n{'program':<16}{'cycles':>8}{'run c/s':>12}{'step c/s':>12}")
    for name, row in rows.items():
        print(f"{name:<16}{row['cycles']:>8}{row['runCps']:>12,.0f}"
              f"{row['stepCps']:>12,.0f}")
    print(f"{'golden geomean':<24}{geo['runCps']:>12,.0f}"
          f"{geo['stepCps']:>12,.0f}")
    assert all(row["runCps"] > 0 and row["stepCps"] > 0
               for row in rows.values())


def test_baseline_file_is_committed_and_consistent():
    """BENCH_hotloop.json anchors the speed-smoke trajectory."""
    baseline = json.loads(BASELINE.read_text())
    programs = baseline["measured"]["programs"]
    assert set(programs) == set(PROGRAMS)
    assert programs["sum_loop_10k"]["cycles"] == 20044
    for name in GOLDEN:
        assert programs[name]["cycles"] == GOLDEN_DIGESTS[name]["cycles"]
    geo = baseline["measured"]["goldenGeomean"]
    for key in ("runCps", "stepCps"):
        assert geo[key] == pytest.approx(
            _geomean([programs[name][key] for name in GOLDEN]), rel=0.02)


def test_hotloop_traced_run_benchmark(benchmark):
    """pytest-benchmark visibility for the step loop's run-to-completion
    path on the microkernel (the interleaved fixture above owns the
    table; this tracks the absolute number per change)."""
    sim = benchmark(lambda: _run_once(PROGRAMS["sum_loop_10k"])[0])
    assert sim.halted
    cps = sim.cycle / benchmark.stats["mean"]
    print(f"\nstep-loop uninstrumented throughput: {cps:,.0f} cycles/second")
