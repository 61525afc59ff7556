"""Observability plane: metrics registry, trace spans, hot-loop profiling.

Three submodules with deliberately different blast radii:

* :mod:`repro.obs.metrics` — the process-wide metrics registry (counters,
  gauges, fixed-bucket histograms).  **Determinism-clean**: it reads no
  clock, no environment, no randomness, so record-producing code (the
  artifact cache sits inside ``explore/runner.py``'s closure) may bump
  counters freely without violating the byte-identical-records contract.
  The canonical :func:`repro.obs.metrics.nearest_rank` percentile helper
  lives here too.
* :mod:`repro.obs.trace` — span trees for distributed sweeps (queue wait,
  dispatch, compile, simulate, record), ids propagated frontend -> worker
  through ``/explore/submit`` and ``/worker/execute``.  Never imported by
  the runner: tracers cross into ``execute_payload`` duck-typed.
* :mod:`repro.obs.profile` — opt-in sampled cycle-attribution profiler
  for the simulation hot loop (per pipeline stage, plus a chunked
  throughput timeline).  Attaches from the *outside* by swapping in the
  probed step loop, so the unprofiled loop is untouched and the module
  is unreachable from the deterministic closure.

This package intentionally has an empty ``__init__``: importing
``repro.obs`` must pull in none of the submodules, so static layering
checks (and the determinism lint scope) stay exact.
"""
