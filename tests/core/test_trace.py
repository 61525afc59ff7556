"""Trace tier: the config-specialized step loop vs the interpreter.

The tier's one guarantee is that it is invisible: any uninstrumented run
with the step loop enabled must land in byte-identical architectural
state to the same run with ``config.trace = False``.  These tests pin
that parity (on a hot loop, on stores into the notional code region, and
on every golden program), the enable/disable switches, and the
per-configuration code cache.
"""

import importlib.util
import json
import pathlib

import pytest

from repro import CpuConfig, Simulation
from repro.core import tracegen
from repro.core.trace import trace_enabled

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
    sim.cpu.config.trace = False
    sim.cpu._trace_wanted = False
    return sim


def run_traced(source, **kw):
    sim = Simulation.from_source(source, **kw)
    sim.run()
    return sim


def run_interpreted(source, **kw):
    sim = interpret(Simulation.from_source(source, **kw))
    sim.run()
    return sim


def assert_parity(traced, interpreted):
    assert traced.cycle == interpreted.cycle
    assert traced.cpu.committed == interpreted.cpu.committed
    assert json.dumps(traced.snapshot_cold(), sort_keys=True) \
        == json.dumps(interpreted.snapshot_cold(), sort_keys=True)


class TestEnablement:
    def test_hot_loop_compiles_and_matches_interpreter(self):
        traced = run_traced(HOT_LOOP)
        assert traced.cpu._trace_wanted is True
        assert traced.cpu._step_loop is not None
        assert_parity(traced, run_interpreted(HOT_LOOP))

    def test_config_toggle_disables_tier(self):
        sim = Simulation.from_source(HOT_LOOP)
        sim.cpu.config.trace = False
        sim.run()
        assert sim.cpu._step_loop is None

    def test_env_toggle_disables_tier(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert not trace_enabled(CpuConfig())
        sim = Simulation.from_source(HOT_LOOP)
        sim.run()
        assert sim.cpu._step_loop is None

    def test_instrumented_stepping_never_builds_a_tier(self):
        sim = Simulation.from_source(HOT_LOOP)
        sim.step(300)
        assert sim.cpu._step_loop is None


class TestParity:
    def test_stores_into_code_region_stay_exact(self):
        assert_parity(run_traced(SELF_MODIFYING),
                      run_interpreted(SELF_MODIFYING))

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_golden_program_matches_interpreter(self, name):
        traced = GOLDEN_CASES[name]()
        traced.run()
        assert traced.cpu._step_loop is not None
        interpreted = interpret(GOLDEN_CASES[name]())
        interpreted.run()
        assert interpreted.cpu._step_loop is None
        assert_parity(traced, interpreted)


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
        assert first.cpu._step_loop.__code__ is second.cpu._step_loop.__code__
