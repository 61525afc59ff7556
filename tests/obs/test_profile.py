"""Hot-loop profiling hooks: the probed step loop, stride sampling,
residency chunking — and the layering pin that keeps the profiler out of
the deterministic closure entirely."""

import ast

from repro import Simulation
from repro.core import tracegen
from repro.obs.profile import (PIPELINE_STAGES, PipelineProfiler,
                               ResidencyProfiler)

LOOP = """
    li a0, 0
    li t0, 1
    li t1, 400
loop:
    add a0, a0, t0
    addi t0, t0, 1
    ble t0, t1, loop
    ebreak
"""


class TestPipelineProfiler:
    def test_attach_profiles_every_stage(self):
        """A default-config run profiles the loop jobs actually run:
        six stages, each entered once per cycle, every 4th one timed."""
        sim = Simulation.from_source(LOOP)
        profiler = PipelineProfiler(sim.cpu, stride=4)
        profiler.attach()
        sim.run(5_000)
        profiler.detach()
        report = profiler.report()
        assert [stage["stage"] for stage in report["stages"]] \
            == ["commit", "memory", "execute", "issue", "dispatch", "fetch"]
        assert list(PIPELINE_STAGES) \
            == [stage["stage"] for stage in report["stages"]]
        cycles = sim.cycle
        for stage in report["stages"]:
            # the halting cycle stops after commit
            assert stage["calls"] in (cycles, cycles - 1)
            # stride sampling: one timed sample per 4 cycles
            assert abs(stage["sampled"] - stage["calls"] // 4) <= 1
        assert report["totalSampledS"] >= 0
        shares = [stage["share"] for stage in report["stages"]]
        assert abs(sum(shares) - 1.0) < 0.01 or sum(shares) == 0.0

    def test_detach_restores_unprobed_loop(self):
        sim = Simulation.from_source(LOOP)
        cpu = sim.cpu
        sim.step(5)
        plain = cpu._step_loop
        attrs = set(vars(cpu))
        with PipelineProfiler(cpu, stride=2):
            assert cpu._step_loop.__code__ is tracegen._STEP_CACHE[
                tracegen.step_key(cpu, probed=True)]
            sim.step(5)
        # the unprobed cache entry is back and nothing else was added:
        # an unprofiled CPU is byte-for-byte untouched
        assert cpu._step_loop.__code__ is plain.__code__
        assert cpu._step_loop.__code__ is tracegen._STEP_CACHE[
            tracegen.step_key(cpu)]
        assert set(vars(cpu)) == attrs

    def test_results_unchanged_by_profiling(self):
        plain = Simulation.from_source(LOOP)
        result_plain = plain.run(20_000)
        profiled = Simulation.from_source(LOOP)
        with PipelineProfiler(profiled.cpu, stride=8):
            result_profiled = profiled.run(20_000)
        assert result_plain.cycles == result_profiled.cycles
        assert result_plain.committed == result_profiled.committed
        assert plain.snapshot_cold() == profiled.snapshot_cold()

    def test_injected_clock(self):
        sim = Simulation.from_source(LOOP)
        ticks = iter(float(i) for i in range(100_000))
        profiler = PipelineProfiler(sim.cpu, stride=1,
                                    time_fn=ticks.__next__)
        with profiler:
            sim.run(50)
        report = profiler.report()
        # one tick per stage boundary: every timed stage took exactly 1s
        assert report["totalSampledS"] > 0
        for stage in report["stages"]:
            assert stage["sampledS"] == stage["sampled"]


class TestResidencyProfiler:
    def test_chunks_cover_the_run(self):
        sim = Simulation.from_source(LOOP)
        profiler = ResidencyProfiler(sim.cpu, chunk_cycles=500)
        profiler.run(100_000)
        report = profiler.report()
        assert sim.cpu.halted is not None
        assert report["totalCycles"] == sim.cpu.cycle
        assert len(report["chunks"]) >= 2
        assert all(chunk["cycles"] > 0 for chunk in report["chunks"])
        assert all(set(chunk) == {"cycles", "instructions", "wallS", "cps"}
                   for chunk in report["chunks"])


def module_imports(path):
    tree = ast.parse(open(path).read())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
    return found


class TestLayering:
    def test_hot_loop_never_imports_the_profiler(self):
        """The profiler attaches from outside; the simulated machine and
        the deterministic job closure must not know it exists."""
        import repro.core.pipeline
        import repro.core.trace
        import repro.explore.runner
        import repro.sim.simulation
        for module in (repro.core.pipeline, repro.core.trace,
                       repro.sim.simulation, repro.explore.runner):
            imports = module_imports(module.__file__)
            assert not any(name.startswith("repro.obs.profile")
                           or name.startswith("repro.obs.trace")
                           for name in imports), module.__name__

    def test_runner_closure_has_no_clock(self):
        """execute_payload's tracer is duck-typed (_NullTracer default):
        runner.py itself must stay free of time imports so sweep records
        cannot depend on a wall clock."""
        import repro.explore.runner
        imports = module_imports(repro.explore.runner.__file__)
        assert "time" not in imports
