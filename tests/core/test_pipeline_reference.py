"""Frozen pipeline reference: per-cycle state digests across a config matrix.

Three small programs (a branchy loop with calls and mul/div, a
store/load-forwarding kernel ending in out-of-range accesses, an FP
kernel) run on a matrix of configurations covering every input the
specialized step loop folds in (``tracegen.step_key``): the three
presets, pipelined units, a heterogeneous FX pair, each predictor kind
with global and local history, an L2 cache with two memory units,
``halt_on_exception=False``, a ``max_cycles`` that is hit, and tight
buffers.  For every (program, config) case ``pipeline_reference.json``
pins

* the ``snapshot_cold()`` digest after each of the first 64
  ``Simulation.step(1)`` calls,
* the digests after one ``step_back`` and one far-forward ``seek``,
* the final digest, cycles, halt reason and statistics digest of an
  uninstrumented run to completion.

The digests were captured from the cycle interpreter that preceded the
config-specialized step loop, so any timing drift in the loop's
emitters shows up here as the first diverging cycle.  To regenerate
after an *intentional* timing-model change::

    PYTHONPATH=src python tests/core/test_pipeline_reference.py --regen

and commit the diff with an explanation of why the digests moved.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import pytest

from repro import CpuConfig, FuSpec, Simulation
from repro.memory.cache import CacheConfig
from repro.predictor.unit import PredictorConfig

REFERENCE_PATH = pathlib.Path(__file__).resolve().with_name(
    "pipeline_reference.json")

#: per-cycle digests pinned at the start of every case
STEPPED_CYCLES = 64
CHECKPOINT_INTERVAL = 16

PROGRAMS = {
    # data-dependent branches, a call/return pair, mul/div/rem (a div
    # and a younger, shorter mul overlap on pipelined units)
    "branchy": """
main:
    li   s0, 0
    li   s1, 0
    li   s2, 40
loop:
    andi t0, s1, 3
    beqz t0, quad
    div  t2, s0, s2
    mul  t1, s1, s1
    add  s0, s0, t1
    add  s0, s0, t2
    j    next
quad:
    jal  ra, helper
    add  s0, s0, a0
next:
    addi s1, s1, 1
    blt  s1, s2, loop
    div  a0, s0, s2
    ebreak
helper:
    slli a0, s1, 2
    rem  a1, s0, s2
    add  a0, a0, a1
    ret
""",
    # store -> load forwarding, partial overlaps (sb then lw), then an
    # out-of-range load and store (exception at commit)
    "store_load": """
    .data
    .align 2
buf: .word 1, 2, 3, 4, 5, 6, 7, 8
out: .word 0, 0, 0, 0, 0, 0, 0, 0
    .text
main:
    la   s0, buf
    la   s1, out
    li   s2, 0
    li   s3, 8
    li   a0, 0
loop:
    slli t0, s2, 2
    add  t1, s0, t0
    lw   t2, 0(t1)
    addi t2, t2, 7
    sw   t2, 0(t1)
    lw   t3, 0(t1)
    add  t4, s1, t0
    sb   t3, 0(t4)
    lw   t5, 0(t4)
    sh   t5, 2(t4)
    lhu  t6, 2(t4)
    add  a0, a0, t6
    addi s2, s2, 1
    blt  s2, s3, loop
    li   t0, -16
    lw   a1, 0(t0)
    sw   a0, 4(t0)
    addi a0, a0, 1
    ebreak
""",
    # FP load / mul / add / div / store chain with a final conversion
    "fp_kernel": """
    .data
    .align 2
vec: .float 1.5, -2.25, 3.0, 0.5, 4.75, -1.0, 2.5, 0.125
acc: .float 0.0
    .text
main:
    la   s0, vec
    li   s1, 0
    li   s2, 8
    fmv.w.x fa0, zero
    li   t0, 0x40000000
    fmv.w.x fa1, t0
loop:
    slli t1, s1, 2
    add  t2, s0, t1
    flw  ft0, 0(t2)
    fmul.s ft1, ft0, fa1
    fadd.s fa0, fa0, ft1
    fdiv.s ft2, ft1, fa1
    fsw  ft2, 0(t2)
    addi s1, s1, 1
    blt  s1, s2, loop
    la   t3, acc
    fsw  fa0, 0(t3)
    fcvt.w.s a0, fa0
    ebreak
""",
}


def _base_units():
    return [FuSpec("FX", "FX1"), FuSpec("FX", "FX2"), FuSpec("FP", "FP1"),
            FuSpec("LS", "LS1", latency=1),
            FuSpec("Branch", "BR1", latency=1),
            FuSpec("Memory", "MEM", latency=1)]


def _pipelined_mul() -> CpuConfig:
    cfg = CpuConfig(name="pipelined_mul")
    cfg.fus = [FuSpec("FX", "FX1"),
               FuSpec("FX", "MUL", operations={"multiplication": 3,
                                               "division": 6},
                      pipelined=True),
               FuSpec("FP", "FP1"), FuSpec("LS", "LS1", latency=1),
               FuSpec("Branch", "BR1", latency=1),
               FuSpec("Memory", "MEM", latency=1)]
    return cfg


def _pipelined_all() -> CpuConfig:
    cfg = CpuConfig(name="pipelined_all")
    cfg.fus = [FuSpec("FX", "FX1", pipelined=True),
               FuSpec("FX", "FX2", pipelined=True),
               FuSpec("FP", "FP1", pipelined=True),
               FuSpec("LS", "LS1", latency=2, pipelined=True),
               FuSpec("Branch", "BR1", latency=1, pipelined=True),
               FuSpec("Memory", "MEM", latency=1, pipelined=True)]
    return cfg


def _hetero_fx() -> CpuConfig:
    cfg = CpuConfig(name="hetero_fx")
    cfg.fus = [FuSpec("FX", "ALU", operations={"addition": 1, "bitwise": 1,
                                               "shift": 1, "comparison": 1}),
               FuSpec("FX", "MDU", operations={"addition": 2,
                                               "multiplication": 4,
                                               "division": 8}),
               FuSpec("FP", "FP1"), FuSpec("FP", "FP2",
                                           operations={"fadd": 2, "fmul": 3,
                                                       "fdiv": 9, "fcvt": 1}),
               FuSpec("LS", "LS1", latency=1),
               FuSpec("Branch", "BR1", latency=1),
               FuSpec("Memory", "MEM", latency=1)]
    return cfg


def _predictor(name: str, **kw) -> CpuConfig:
    cfg = CpuConfig(name=name)
    cfg.predictor = PredictorConfig(**kw)
    return cfg


def _l2() -> CpuConfig:
    cfg = CpuConfig(name="l2")
    cfg.cache = CacheConfig(line_count=4, line_size=16, associativity=2)
    cfg.l2_cache = CacheConfig(line_count=16, line_size=16, associativity=4,
                               access_delay=3)
    cfg.memory.load_latency = 6
    cfg.memory.store_latency = 4
    cfg.fus = _base_units()[:-1] + [FuSpec("Memory", "MEM1", latency=2),
                                    FuSpec("Memory", "MEM2", latency=1)]
    return cfg


def _no_halt() -> CpuConfig:
    cfg = CpuConfig(name="no_halt")
    cfg.halt_on_exception = False
    return cfg


def _max_cycles() -> CpuConfig:
    cfg = CpuConfig(name="max_cycles")
    cfg.max_cycles = 120
    return cfg


def _tight() -> CpuConfig:
    cfg = CpuConfig(name="tight")
    b = cfg.buffers
    b.rob_size, b.fetch_width, b.commit_width = 6, 3, 1
    b.issue_window_size, b.fetch_branch_limit, b.flush_penalty = 2, 0, 1
    cfg.memory.load_buffer_size = 1
    cfg.memory.store_buffer_size = 1
    cfg.memory.rename_file_size = 6
    return cfg


CONFIGS = {
    "default": lambda: CpuConfig.preset("default"),
    "scalar": lambda: CpuConfig.preset("scalar"),
    "wide": lambda: CpuConfig.preset("wide"),
    "pipelined_mul": _pipelined_mul,
    "pipelined_all": _pipelined_all,
    "hetero_fx": _hetero_fx,
    "pred_zero_global": lambda: _predictor(
        "pred_zero_global", predictor_type="zero", default_state=1,
        use_global_history=True),
    "pred_one_local": lambda: _predictor(
        "pred_one_local", predictor_type="one", default_state=0,
        btb_size=4, pht_size=8, history_bits=2),
    "pred_two_global": lambda: _predictor(
        "pred_two_global", predictor_type="two", default_state=2,
        use_global_history=True, history_bits=6),
    "l2": _l2,
    "no_halt": _no_halt,
    "max_cycles": _max_cycles,
    "tight": _tight,
}

CASES = [f"{program}/{config}" for program in PROGRAMS for config in CONFIGS]


def _simulation(case: str) -> Simulation:
    program, config = case.split("/")
    return Simulation.from_source(PROGRAMS[program], config=CONFIGS[config](),
                                  entry="main",
                                  checkpoint_interval=CHECKPOINT_INTERVAL)


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def record(case: str) -> dict:
    """Every pinned observation of one (program, config) case."""
    sim = _simulation(case)
    stepped = []
    for _ in range(STEPPED_CYCLES):
        sim.step(1)
        stepped.append(_digest(sim.snapshot_cold()))
    sim.step_back(25)
    back = {"cycle": sim.cycle, "digest": _digest(sim.snapshot_cold())}
    sim.seek(sim.cycle + 150)
    seek = {"cycle": sim.cycle, "digest": _digest(sim.snapshot_cold())}
    sim.run()
    resumed = _digest(sim.snapshot_cold())

    fresh = _simulation(case)
    result = fresh.run()
    return {
        "stepped": stepped,
        "stepBack": back,
        "seek": seek,
        "resumedFinal": resumed,
        "final": _digest(fresh.snapshot_cold()),
        "cycles": result.cycles,
        "haltReason": result.halt_reason,
        "statistics": _digest(result.statistics),
    }


@pytest.fixture(scope="module")
def reference() -> dict:
    assert REFERENCE_PATH.exists(), \
        "pipeline_reference.json missing - regenerate with --regen"
    return json.loads(REFERENCE_PATH.read_text())


@pytest.mark.parametrize("case", CASES)
def test_matches_frozen_reference(case: str, reference: dict):
    assert case in reference, f"no reference for {case} - run --regen"
    expected = reference[case]
    actual = record(case)
    for cycle, (want, got) in enumerate(zip(expected["stepped"],
                                            actual["stepped"]), start=1):
        assert got == want, f"{case}: state diverges after cycle {cycle}"
    assert actual == expected


def test_matrix_reaches_every_path(reference: dict):
    """The matrix is only a proof if its edge cases actually happen."""
    reasons = {case: row["haltReason"] for case, row in reference.items()}
    assert reasons["store_load/default"].startswith("exception:")
    assert reasons["store_load/no_halt"].startswith("halt instruction")
    assert all(reasons[f"{program}/max_cycles"] == "cycle limit reached (120)"
               for program in PROGRAMS)
    assert all(reason.startswith("halt instruction")
               for case, reason in reasons.items()
               if case.startswith(("branchy/", "fp_kernel/"))
               and not case.endswith("/max_cycles"))


def _regenerate() -> None:
    data = {case: record(case) for case in CASES}
    REFERENCE_PATH.write_text(json.dumps(data, indent=1, sort_keys=True)
                              + "\n")
    print(f"wrote {REFERENCE_PATH} ({len(data)} cases)")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
