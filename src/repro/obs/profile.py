"""Opt-in sampled profiler for the simulation hot loop.

Two instruments, both attached from the *outside* so an unprofiled CPU
runs exactly the code it would run without this module:

* :class:`PipelineProfiler` — per-stage time attribution for the step
  loop every run and step executes.  Attaching swaps the CPU's loop for
  the *probed* variant (the same generated source with a ``probe(k)``
  call at each stage boundary, see :mod:`repro.core.tracegen`);
  detaching restores the unprobed loop, so a detached CPU pays nothing,
  not even a branch.  Timing is stride-sampled (clock reads on every
  N-th cycle) so the attached overhead stays small and the *relative*
  shares stay honest.
* :class:`ResidencyProfiler` — chunked throughput timeline for
  uninstrumented runs: drives ``cpu.run`` in cycle slices and records
  cycles/instructions per slice.

Clocks are injected (``time_fn=``) for deterministic tests.  This
module is never imported by ``explore/runner.py``'s closure, by
``repro.core.pipeline``, or by ``repro.sim.simulation`` — the layering
test pins that — so profiling can never perturb sweep records.
"""

from __future__ import annotations

# wall-clock justification: stage timings are host-side diagnostics and
# never enter records; this module sits outside the determinism closure
# (see module docstring and the layering test in tests/obs/).
import time
from typing import Callable, Dict, List

from repro.core import trace
from repro.core.tracegen import STAGES

__all__ = ["PipelineProfiler", "ResidencyProfiler", "PIPELINE_STAGES"]

#: the six per-cycle stages of the step loop, reverse pipeline order
#: (commit first), exactly as the loop runs them
PIPELINE_STAGES = STAGES


class PipelineProfiler:
    """Stride-sampled per-stage wall-time attribution for one ``Cpu``.

    Usage::

        profiler = PipelineProfiler(cpu, stride=64)
        profiler.attach()
        simulation.run(budget)
        profiler.detach()
        report = profiler.report()

    Every cycle counts a call per stage it enters; every *stride*-th
    cycle also reads the clock at each stage boundary.  Busy accounting
    and end detection at the tail of a cycle belong to no stage.
    """

    def __init__(self, cpu, stride: int = 64,
                 time_fn: Callable[[], float] = time.perf_counter):
        self.cpu = cpu
        self.stride = max(1, stride)
        self._time = time_fn
        # name -> [calls, sampled, seconds]
        self._cells: Dict[str, List[float]] = {
            name: [0, 0, 0.0] for name in PIPELINE_STAGES}
        self._attached = False

    # ------------------------------------------------------------------
    def attach(self) -> None:
        if self._attached:
            return
        self.cpu._step_loop = trace.compile_step(self.cpu,
                                                 probe=self._probe())
        self._attached = True

    def detach(self) -> None:
        """Restore the unprobed step loop; the CPU is then
        indistinguishable from an unprofiled one."""
        if not self._attached:
            return
        self.cpu._step_loop = trace.compile_step(self.cpu)
        self._attached = False

    def __enter__(self) -> "PipelineProfiler":
        self.attach()
        return self

    def __exit__(self, *exc) -> None:
        self.detach()

    # ------------------------------------------------------------------
    def _probe(self) -> Callable[[int], None]:
        """The loop's ``probe(k)``: *k* in 0..5 enters stage *k*, 6 ends
        fetch.  On a sampled cycle each boundary closes the stage before
        it."""
        stride = self.stride
        time_fn = self._time
        cells = [self._cells[name] for name in PIPELINE_STAGES]
        last = len(cells)
        sampling = False
        mark = 0.0

        def probe(k: int) -> None:
            nonlocal sampling, mark
            if k < last:
                cells[k][0] += 1
                if k == 0:
                    sampling = cells[0][0] % stride == 0
                    if sampling:
                        mark = time_fn()
                    return
            if sampling:
                now = time_fn()
                cell = cells[k - 1]
                cell[1] += 1
                cell[2] += now - mark
                mark = now

        return probe

    # ------------------------------------------------------------------
    def report(self) -> dict:
        """Per-stage attribution: sampled seconds and share of the total
        sampled time (the honest number — strides cancel out)."""
        total = sum(cell[2] for cell in self._cells.values())
        stages = []
        for name in PIPELINE_STAGES:
            calls, sampled, seconds = self._cells[name]
            stages.append({
                "stage": name,
                "calls": int(calls),
                "sampled": int(sampled),
                "sampledS": round(seconds, 6),
                "share": round(seconds / total, 4) if total else 0.0,
            })
        return {"stride": self.stride, "totalSampledS": round(total, 6),
                "stages": stages}


class ResidencyProfiler:
    """Chunked throughput timeline of an uninstrumented run.

    Drives ``cpu.run`` in fixed cycle slices and records, per slice,
    the cycle/instruction deltas, wall seconds and cycles/sec."""

    def __init__(self, cpu, chunk_cycles: int = 50_000,
                 time_fn: Callable[[], float] = time.perf_counter):
        self.cpu = cpu
        self.chunk_cycles = max(1, chunk_cycles)
        self._time = time_fn
        self.chunks: List[dict] = []

    # ------------------------------------------------------------------
    def run(self, budget: int) -> None:
        """Run to halt or *budget* total cycles, recording one chunk
        entry per slice."""
        cpu = self.cpu
        while cpu.halted is None and cpu.cycle < budget:
            target = min(cpu.cycle + self.chunk_cycles, budget)
            cycles0 = cpu.cycle
            insns0 = cpu.committed
            t0 = self._time()
            cpu.run(target)
            wall = self._time() - t0
            cycles = cpu.cycle - cycles0
            self.chunks.append({
                "cycles": cycles,
                "instructions": cpu.committed - insns0,
                "wallS": round(wall, 6),
                "cps": round(cycles / wall, 1) if wall > 0 else None,
            })

    # ------------------------------------------------------------------
    def report(self) -> dict:
        total_cycles = sum(chunk["cycles"] for chunk in self.chunks)
        total_wall = sum(chunk["wallS"] for chunk in self.chunks)
        return {
            "chunkCycles": self.chunk_cycles,
            "chunks": self.chunks,
            "totalCycles": total_cycles,
            "totalWallS": round(total_wall, 6),
            "meanCps": (round(total_cycles / total_wall, 1)
                        if total_wall > 0 else None),
        }
