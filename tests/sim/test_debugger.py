"""Breakpoint / watchpoint tests (paper future-work extension)."""

import pytest

from repro import Simulation
from repro.sim.debugger import DebugSession

PROGRAM = """
main:
    li   s0, 0
    li   s1, 3
loop:
    addi s0, s0, 1
    sw   s0, 0(sp)
    blt  s0, s1, loop
after:
    li   a0, 99
    ebreak
"""


def session():
    sim = Simulation.from_source(PROGRAM, entry="main")
    return DebugSession(sim)


class TestBreakpoints:
    def test_break_at_label(self):
        dbg = session()
        dbg.add_breakpoint("after")
        event = dbg.run()
        assert event.kind == "breakpoint"
        assert event.pc == dbg.simulation.symbol_address("after")
        # state at the stop: the loop is done, a0 not yet written
        assert dbg.simulation.register_value("s0") == 3

    def test_break_at_pc(self):
        dbg = session()
        pc = dbg.add_breakpoint(8)   # first loop instruction
        event = dbg.run()
        assert event.kind == "breakpoint" and event.pc == pc
        assert dbg.simulation.register_value("s0") == 1

    def test_breakpoint_in_loop_fires_each_iteration(self):
        dbg = session()
        dbg.add_breakpoint("loop")
        values = []
        for _ in range(3):
            event = dbg.run()
            assert event.kind == "breakpoint"
            values.append(dbg.simulation.register_value("s0"))
        assert values == [1, 2, 3]

    def test_continue_to_halt(self):
        dbg = session()
        dbg.add_breakpoint("after")
        dbg.run()
        event = dbg.continue_()
        assert event.kind == "halt"
        assert dbg.simulation.register_value("a0") == 99

    def test_remove_breakpoint(self):
        dbg = session()
        dbg.add_breakpoint("after")
        assert dbg.remove_breakpoint("after")
        assert not dbg.remove_breakpoint("after")
        event = dbg.run()
        assert event.kind == "halt"

    def test_break_on_second_commit_of_a_cycle(self):
        """Both instructions a 2-wide commit retires in one cycle are
        checked, not just the ROB head."""
        sim = Simulation.from_source("li a0, 1\nli a1, 2\nli a2, 3\nebreak")
        dbg = DebugSession(sim)
        dbg.add_breakpoint(4)
        event = dbg.run()
        assert (event.kind, event.pc) == ("breakpoint", 4)
        reference = Simulation.from_source(
            "li a0, 1\nli a1, 2\nli a2, 3\nebreak")
        reference.step(event.cycle - 1)
        head, second = list(reference.cpu.rob)[:2]
        reference.step(1)
        assert (head.pc, second.pc) == (0, 4)
        assert "commit" in head.timestamps and "commit" in second.timestamps

    def test_breakpoints_listing(self):
        dbg = session()
        dbg.add_breakpoint("loop")
        dbg.add_breakpoint("after")
        assert len(dbg.breakpoints()) == 2

    def test_unknown_label_raises(self):
        dbg = session()
        with pytest.raises(KeyError):
            dbg.add_breakpoint("nowhere")


class TestWatches:
    def test_register_watch_fires_on_change(self):
        dbg = session()
        dbg.watch_register("s0")
        event = dbg.run()
        assert event.kind == "register"
        assert event.register == "x8"   # canonical name of s0
        assert event.old_value == 0 and event.new_value == 1

    def test_register_watch_alias_resolution(self):
        dbg = session()
        dbg.watch_register("a0")
        event = dbg.run()
        assert event.kind == "register" and event.new_value == 99

    def test_memory_watch(self):
        dbg = session()
        sp = dbg.simulation.cpu.initial_sp
        dbg.watch_memory(sp, 4)
        event = dbg.run()
        assert event.kind == "memory"
        assert event.address == sp
        assert int.from_bytes(event.new_value, "little") == 1

    def test_unwatch(self):
        dbg = session()
        dbg.watch_register("s0")
        dbg.unwatch_register("s0")
        event = dbg.run()
        assert event.kind == "halt"

    def test_event_str_forms(self):
        dbg = session()
        dbg.add_breakpoint("after")
        event = dbg.run()
        assert "breakpoint" in str(event)

    def test_events_recorded(self):
        dbg = session()
        dbg.watch_register("s0")
        dbg.run()
        dbg.run()
        assert len(dbg.events) == 2


class TestInteropWithSimulationApi:
    def test_stepping_still_works_between_stops(self):
        # stop mid-loop (the program has not halted there)
        dbg = session()
        dbg.add_breakpoint("loop")
        dbg.run()
        cycle = dbg.simulation.cycle
        dbg.simulation.step(2)
        assert dbg.simulation.cycle == cycle + 2

    def test_statistics_available_at_stop(self):
        dbg = session()
        dbg.add_breakpoint("after")
        dbg.run()
        assert dbg.simulation.stats.committed_instructions > 0


LONG_PROGRAM = """
main:
    li   s0, 0
    li   s1, 500
loop:
    addi s0, s0, 1
    blt  s0, s1, loop
after:
    li   a0, 99
    ebreak
"""


def long_session(checkpoint_interval=16):
    sim = Simulation.from_source(LONG_PROGRAM, entry="main",
                                 checkpoint_interval=checkpoint_interval)
    return DebugSession(sim)


class TestRunTo:
    def test_run_to_without_probes_fast_forwards(self):
        dbg = long_session()
        event = dbg.run_to(200)
        assert event.kind == "seek"
        assert event.cycle == 200
        assert dbg.simulation.cycle == 200
        # no probes installed: the move ran uninstrumented (checkpoint-
        # seeded fast-forward), not cycle by cycle
        assert dbg.simulation.last_fast_forward > 0
        assert str(event) == "seeked to cycle 200"
        assert dbg.events[-1] is event

    def test_run_to_past_halt_reports_halt(self):
        dbg = long_session()
        reference = Simulation.from_source(LONG_PROGRAM, entry="main")
        reference.run()
        event = dbg.run_to(reference.cycle + 10_000)
        assert event.kind == "halt"
        assert event.cycle == reference.cycle

    def test_breakpoints_behave_as_if_stepped_after_fast_forward(self):
        """Determinism bar: fast-forwarded state is indistinguishable from
        stepped state, so a breakpoint added afterwards fires exactly
        where it would have on the stepped trajectory."""
        dbg = long_session()
        dbg.run_to(300)
        assert dbg.simulation.last_fast_forward > 0
        dbg.add_breakpoint("loop")
        event = dbg.run()
        stepped = long_session()
        stepped.simulation.step(300)
        stepped.add_breakpoint("loop")
        reference = stepped.run()
        assert (event.kind, event.cycle, event.pc) \
            == (reference.kind, reference.cycle, reference.pc)

    def test_run_to_with_breakpoint_en_route_stops_there(self):
        dbg = long_session()
        dbg.add_breakpoint("after")
        event = dbg.run_to(10_000)
        assert event.kind == "breakpoint"
        assert event.cycle < 10_000
        assert dbg.simulation.cycle == event.cycle

    def test_run_to_with_armed_probe_that_never_fires(self):
        dbg = long_session()
        dbg.watch_register("s11")          # never written by the program
        before = len(dbg.events)
        event = dbg.run_to(120)
        assert event.kind == "seek" and event.cycle == 120
        # instrumented path: every cycle visited, no fast-forward
        assert dbg.simulation.last_fast_forward == 0
        # the budget-exhausted pseudo-halt was replaced by the seek event
        assert len(dbg.events) == before + 1

    def test_run_to_backward_keeps_probes(self):
        dbg = long_session()
        dbg.add_breakpoint("after")
        dbg.run_to(150)
        event = dbg.run_to(40)
        assert event.kind == "seek" and dbg.simulation.cycle == 40
        assert dbg.simulation.symbol_address("after") in dbg.breakpoints()
