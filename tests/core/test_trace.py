"""The config-specialized step loop: one definition, any call granularity.

The step loop is the only timing model.  A run to completion calls it
once; the per-cycle path (``Cpu.step``, what the debugger, the server's
stepping and every checkpoint replay use) calls it once per cycle, so
every per-call hoist and every counter flush happens at each cycle
boundary.  Both must land in byte-identical state.  These tests pin
that parity (on a hot loop, on stores into the notional code region,
and on every golden program — "interpreted" below means driven one
``Cpu.step()`` at a time), one loop per ``Cpu``, and the
per-configuration code cache.  The frozen per-cycle reference in
``test_pipeline_reference.py`` pins the schedule itself.
"""

import importlib.util
import json
import pathlib

import pytest

from repro import Simulation
from repro.core import trace, tracegen

GOLDEN_MODULE = (pathlib.Path(__file__).resolve().parents[1]
                 / "integration" / "test_golden_determinism.py")

HOT_LOOP = """
    li a0, 0
    li t0, 1
    li t1, 100
loop:
    add a0, a0, t0
    addi t0, t0, 1
    ble t0, t1, loop
    ebreak
"""

#: every iteration stores into the loop head's instruction bytes (the
#: notional code region); the machine is Harvard-style, so execution
#: must not notice
SELF_MODIFYING = """
    li a0, 0
    li t0, 1
    li t1, 100
    la t2, loop
loop:
    add a0, a0, t0
    sw  t0, 0(t2)
    addi t0, t0, 1
    ble t0, t1, loop
    ebreak
"""


def _golden_cases():
    spec = importlib.util.spec_from_file_location("golden_cases",
                                                  GOLDEN_MODULE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CASES


GOLDEN_CASES = _golden_cases()


def interpret(sim):
    """Drive *sim* to its halt one ``Cpu.step()`` (one loop call) at a
    time, as instrumented stepping does."""
    cpu = sim.cpu
    while cpu.halted is None and cpu.cycle < sim.config.max_cycles:
        cpu.step()
    if cpu.halted is None:
        cpu.halted = f"cycle budget reached ({sim.config.max_cycles})"
    return sim


def run_traced(source, **kw):
    sim = Simulation.from_source(source, **kw)
    sim.run()
    return sim


def run_interpreted(source, **kw):
    return interpret(Simulation.from_source(source, **kw))


def assert_parity(traced, interpreted):
    assert traced.cycle == interpreted.cycle
    assert traced.cpu.committed == interpreted.cpu.committed
    assert json.dumps(traced.snapshot_cold(), sort_keys=True) \
        == json.dumps(interpreted.snapshot_cold(), sort_keys=True)


class TestEnablement:
    def test_hot_loop_compiles_and_matches_interpreter(self):
        traced = run_traced(HOT_LOOP)
        assert traced.cpu._step_loop is not None
        assert_parity(traced, run_interpreted(HOT_LOOP))

    def test_stepping_compiles_one_loop_per_cpu(self, monkeypatch):
        """``trace.compile_step`` is looked up through the module (the
        benchmark's span wrapper relies on that) and called once per
        ``Cpu``, never once per cycle."""
        calls = []
        real = trace.compile_step

        def counting(cpu, *args, **kwargs):
            calls.append(cpu)
            return real(cpu, *args, **kwargs)

        monkeypatch.setattr(trace, "compile_step", counting)
        sim = Simulation.from_source(HOT_LOOP)
        assert sim.cpu._step_loop is None        # built on first use
        sim.step(300)
        loop = sim.cpu._step_loop
        sim.step(10)
        sim.run()
        assert sim.cpu._step_loop is loop
        assert calls == [sim.cpu]


class TestParity:
    def test_stores_into_code_region_stay_exact(self):
        assert_parity(run_traced(SELF_MODIFYING),
                      run_interpreted(SELF_MODIFYING))

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_golden_program_matches_interpreter(self, name):
        traced = GOLDEN_CASES[name]()
        traced.run()
        assert_parity(traced, interpret(GOLDEN_CASES[name]()))


class TestStepCache:
    def test_same_config_reuses_one_cache_entry(self):
        first = Simulation.from_source(HOT_LOOP)
        second = Simulation.from_source(HOT_LOOP)
        key = tracegen.step_key(first.cpu)
        assert tracegen.step_key(second.cpu) == key
        first.run()
        entries = len(tracegen._STEP_CACHE)
        code = tracegen._STEP_CACHE[key]
        second.run()
        assert len(tracegen._STEP_CACHE) == entries
        assert tracegen._STEP_CACHE[key] is code
        # one code object, two per-Cpu function instances
        assert first.cpu._step_loop is not second.cpu._step_loop
        assert first.cpu._step_loop.__code__ is code
        assert second.cpu._step_loop.__code__ is code

    def test_probed_variant_has_its_own_entry(self):
        sim = Simulation.from_source(HOT_LOOP)
        probed = trace.compile_step(sim.cpu, probe=lambda k: None)
        plain = trace.compile_step(sim.cpu)
        assert probed.__code__ is tracegen._STEP_CACHE[
            tracegen.step_key(sim.cpu, probed=True)]
        assert plain.__code__ is tracegen._STEP_CACHE[
            tracegen.step_key(sim.cpu)]
        assert probed.__code__ is not plain.__code__
