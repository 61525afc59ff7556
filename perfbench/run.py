#!/usr/bin/env python3
"""perfbench: the repository benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload distinct --seed 1 --seconds 45 --trace 0

Every run sets up a deployment (a coordinator ``SimServer`` in this
process plus two ``repro-sim worker --register`` processes) and then runs
``ceil(--seconds / 22.5)`` measurement cycles of the three phases (see
``perfbench/phases.py``): ``golden_jobs``, ``interactive_steps`` and
``fleet_sweep``.  The workload sets one input property:

* ``distinct`` — every submitted source carries a fresh comment, so no
  compile/assemble artifact is ever reused and the fleet's data plane
  moves every program (caches start empty on every pass and sweep);
* ``repeat`` — identical sources every time against the same long-lived
  caches and workers, warmed up before measuring, so artifacts hit.

The seed sets job order, the step/back/seek schedule and the config-grid
order; the program sees only the generated inputs.  Every output is
checked (golden fingerprints, session end states, fleet records against
a serial ``run_sweep``); failures count in ``failed``.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs the same
work with span wrappers on every layer boundary and reports the
per-layer ledger (``perfbench/ledger.py``).  The last line of stdout is
the JSON result; the lines before it print every metric with its unit,
direction, sample count and whether it is host time or simulated.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pathlib
import platform
import random
import resource
import signal
import sys
import time
from dataclasses import dataclass
from typing import Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]

WORKLOADS = ("distinct", "repeat")

#: nominal seconds of one measurement cycle on the 2-core reference host:
#: a run measures ``ceil(--seconds / CYCLE_S)`` cycles, so every run of one
#: ``--seconds`` does the same work whatever the host's momentary speed
CYCLE_S = 22.5

#: per-layer metrics that count the modelled processor, not host time
SIMULATED = ("sim.cycles.", "sim.ipc.", "sim.replay_cycles",
             "sim.fast_forward_cycles")


def manifest(section: str) -> list:
    """The ``end_to_end`` or ``per_layer`` metrics of BENCHMARK.json (name,
    unit, direction): the one list the runner reports."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())[section]


@dataclass(frozen=True)
class Plan:
    """How much one run does besides its time budget."""

    #: deployments started (setup_s is their median; the last one serves)
    setups: int = 3
    #: a measurement cycle: this many golden passes, then the cycle's share
    #: of the interactive round (every session program once per run), then
    #: one fleet sweep
    passes_per_cycle: int = 3
    #: program names of the sessions and the sweep (None: all of them)
    session_programs: Optional[Tuple[str, ...]] = None
    fleet_programs: Optional[Tuple[str, ...]] = None
    #: values per fleet axis (None: the whole grid)
    fleet_values: Optional[int] = None


#: what the command line runs
FULL = Plan()
#: the smallest run that still reaches every phase and emits every metric
#: (the benchmark's own tests)
SMOKE = Plan(setups=1, passes_per_cycle=1,
             session_programs=("sum_loop", "polymorphism", "linked_list_O3"),
             fleet_programs=("linked_list_O2", "linked_list_O3"),
             fleet_values=1)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one perfbench workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="run length: one measurement cycle per 22.5 s")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(values, q: float) -> float:
    from repro.obs.metrics import nearest_rank
    return nearest_rank(sorted(values), q)


def tail_rank(n: int) -> float:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = 0.5
    for q in (0.9, 0.99, 0.999):
        if n * (1 - q) >= 10:
            best = q
    return best


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def scrape_totals(deployment) -> dict:
    """Worker-side counters summed over the fleet (for deltas)."""
    totals = {"fetches": 0.0, "hits": 0, "misses": 0}
    for worker in deployment.scrape().values():
        for family in worker["metrics"]:
            if family["name"] == "repro_artifact_fetch_total":
                totals["fetches"] += sum(v["value"]
                                         for v in family["values"])
        cache = worker["status"]["artifactCache"]
        for kind in ("compile", "assemble"):
            totals["hits"] += cache[kind]["hits"]
            totals["misses"] += cache[kind]["misses"]
    return totals


def run(workload: str, seed: int, seconds: float, trace: bool,
        plan: Plan = FULL) -> dict:
    """One run: set up, warm up, measure the three phases, check every
    output.  Returns the raw report (samples, records, tally, ledger)."""
    from repro.explore.artifacts import ArtifactCache
    from perfbench import ledger, phases, programs as progs, spans

    rng = random.Random(seed)
    golden = progs.golden_programs()
    expected = progs.load_expected()
    tally = phases.Tally()
    sessions = [p for p in golden if plan.session_programs is None
                or p.name in plan.session_programs]
    fleet_set = [p for p in progs.fleet_programs(golden)
                 if plan.fleet_programs is None
                 or p.name in plan.fleet_programs]

    def salt(tag: str) -> str:
        return f"{seed}-{tag}" if workload == "distinct" else ""

    def shuffled(items) -> list:
        return rng.sample(range(len(items)), len(items))

    def fleet_spec(tag: str, values: Optional[int] = plan.fleet_values):
        orders = [shuffled(axis["values"])[:values]
                  for axis in progs.FLEET_AXES]
        return progs.fleet_spec(fleet_set, salt(tag), orders)

    setups = []
    deployment = phases.Deployment()
    tracer = None
    passes, sweeps, schedule = [], [], []
    samples = {kind: [] for kind in
               ("compile", "new", "step", "back", "seek", "close")}
    report: dict = {"setups": setups, "orders": [], "passes": passes,
                    "sweeps": sweeps, "fleetRecords": {},
                    "interactive": {"samples": samples, "requests": 0,
                                    "wallS": 0.0, "schedule": schedule}}
    interactive = report["interactive"]

    def begin(phase: str) -> None:
        """Between phases: collect garbage, then stamp the phase on the
        spans opened from now on (traced runs)."""
        gc.collect()
        if tracer is not None:
            tracer.phase = phase

    try:
        for attempt in range(plan.setups):
            if attempt:
                deployment.stop()
            setups.append(deployment.start())
        cache = ArtifactCache()
        with phases.SimulationCapture() as capture:
            references: dict = {}
            if workload == "repeat":
                # fill the long-lived caches: the job cache, and with one
                # config per program the coordinator's data-plane origin
                # and the workers' caches (what a worker still lacks it
                # fetches from the origin on the first measured sweep)
                warm = phases.golden_pass(golden, shuffled(golden), "",
                                          cache, capture, expected, tally)
                references = warm["records"]
                phases.fleet_sweep(deployment.address,
                                   fleet_spec("warm", values=1),
                                   expected, tally)
            if trace:
                tracer = spans.Tracer()
                spans.install(tracer, deployment.server.api)
                scraped_before = scrape_totals(deployment)
            started = time.perf_counter()
            cycles = max(1, math.ceil(seconds / CYCLE_S))
            # every session program once per run, spread over the cycles
            session_order = shuffled(sessions)
            for cycle in range(cycles):
                # golden_jobs
                begin("golden")
                for _ in range(plan.passes_per_cycle):
                    order = shuffled(golden)
                    report["orders"].append([golden[i].name for i in order])
                    passes.append(phases.golden_pass(
                        golden, order, salt(f"pass{len(passes)}"), cache,
                        capture, expected, tally, tracer, len(passes)))
                    references = references or passes[-1]["records"]
                # interactive_steps
                begin("interactive")
                round_started = time.perf_counter()
                interactive["requests"] += phases.interactive_round(
                    deployment.address, sessions,
                    session_order[cycle::cycles],
                    f"{seed}:{cycle}", salt(f"round{cycle}"),
                    {name: record["stats"]
                     for name, record in references.items()},
                    samples, tally, schedule)
                interactive["wallS"] += time.perf_counter() - round_started
                # fleet_sweep
                begin("fleet")
                spec = fleet_spec(f"sweep{cycle}")
                report["orders"].append(
                    [axis["values"] for axis in spec["axes"]])
                elapsed = phases.fleet_sweep(deployment.address, spec,
                                             expected, tally,
                                             report["fleetRecords"])
                if elapsed is not None:
                    sweeps.append(elapsed)
                begin("between")
            report["measuredS"] = time.perf_counter() - started
            if tracer is not None:
                scraped = scrape_totals(deployment)
                tracer.remove()
                fleet = {key: scraped[key] - scraped_before[key]
                         for key in scraped}
                fleet["sweepS"] = sweeps
                fleet["workers"] = phases.FLEET_WORKERS
                report["layers"] = ledger.compute(
                    tracer.spans, passes[-1]["records"], fleet)
    finally:
        if tracer is not None:
            tracer.remove()
        deployment.stop()
    report["tally"] = tally
    return report


def end_to_end(report: dict) -> dict:
    """The end-to-end values of one run."""
    from perfbench import ledger
    passes = report["passes"]
    names = sorted({n for p in passes for n in p["seconds"]})
    per_job = {n: ledger.median(p["seconds"][n] for p in passes
                                if n in p["seconds"]) for n in names}
    samples = report["interactive"]["samples"]

    def pct(kind, q):
        return percentile(samples[kind], q) * 1e3 if samples[kind] else 0.0

    return {
        "setup_s": ledger.median(report["setups"]),
        "peak_rss_mb": peak_rss_mb(),
        "job_geomean_ms": ledger.geomean(per_job.values()) * 1e3,
        "pass_s": ledger.median(p["pass_s"] for p in passes),
        "step_p50_ms": pct("step", 0.5),
        "step_p90_ms": pct("step", 0.9),
        "back_p50_ms": pct("back", 0.5),
        "seek_p50_ms": pct("seek", 0.5),
        "requests_per_s": (report["interactive"]["requests"]
                           / report["interactive"]["wallS"]),
        "sweep_s": ledger.median(report["sweeps"]),
    }


def metric_values(report: dict, trace: bool) -> dict:
    """The end-to-end values, or with tracing the per-layer ledger plus
    ``failed_ratio`` and the traced run's copies of four end-to-end
    timings (their ratio to an untraced run is the tracing overhead)."""
    e2e = end_to_end(report)
    if not trace:
        return e2e
    tally = report["tally"]
    values = dict(report["layers"])
    values["failed_ratio"] = tally.failed / max(1, tally.attempted)
    for name in ("job_geomean_ms", "pass_s", "step_p50_ms", "sweep_s"):
        values[f"traced.{name}"] = e2e[name]
    return values


def result_metrics(report: dict, trace: bool) -> dict:
    """The result line's ``metrics``: every metric BENCHMARK.json declares
    for this kind of run, with its declared unit."""
    values = metric_values(report, trace)
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in manifest("per_layer" if trace else "end_to_end")}


def print_report(args, report: dict, metrics: dict) -> None:
    tally = report["tally"]
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"host={platform.node()} machine={platform.machine()} "
          f"python={platform.python_version()} nproc={os.cpu_count()}")
    print("host = wall time on this machine; simulated = modelled "
          "processor (deterministic, exact across runs)")
    print(f"operations attempted={tally.attempted} failed={tally.failed} "
          f"failed_ratio={tally.failed / max(1, tally.attempted):.6f}")
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    samples = report["interactive"]["samples"]
    counts = {"setup_s": len(report["setups"]),
              "job_geomean_ms": len(report["passes"]),
              "pass_s": len(report["passes"]),
              "step_p50_ms": len(samples["step"]),
              "step_p90_ms": len(samples["step"]),
              "back_p50_ms": len(samples["back"]),
              "seek_p50_ms": len(samples["seek"]),
              "requests_per_s": report["interactive"]["requests"],
              "sweep_s": len(report["sweeps"]), "peak_rss_mb": 1}
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"peak RSS: this process {own:.1f} MB, largest worker "
          f"{child:.1f} MB")
    print("golden passes (s): " + " ".join(
        f"{p['pass_s']:.3f}" for p in report["passes"]))
    print("fleet sweeps (s): " + " ".join(f"{s:.3f}" for s in report["sweeps"]))
    print(f"measured {report['measuredS']:.1f} s: {len(report['passes'])} "
          f"golden passes, {len(report['sweeps'])} fleet sweeps, "
          f"{report['interactive']['requests']} interactive requests")
    print("end-to-end (name value unit better kind n):")
    e2e = end_to_end(report)
    for m in manifest("end_to_end"):
        print(f"  {m['name']:16s} {e2e[m['name']]:12.4f} {m['unit']:4s} "
              f"{m['better']:6s} host      n={counts[m['name']]}")
    print("latency distributions (ms: p50 / tail percentile, n):")
    for kind, values in samples.items():
        if values:
            q = tail_rank(len(values))
            print(f"  {kind:8s} p50={percentile(values, 0.5) * 1e3:9.3f} "
                  f"p{q * 100:g}={percentile(values, q) * 1e3:9.3f} "
                  f"n={len(values)}")
    if args.trace:
        print("per-layer ledger (name value unit better kind):")
        for m in manifest("per_layer"):
            kind = ("simulated" if m["name"].startswith(SIMULATED)
                    else "host")
            print(f"  {m['name']:40s} {metrics[m['name']]['value']:14.4f} "
                  f"{m['unit']:9s} {m['better']:6s} {kind}")


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro").is_dir() or \
            not (ROOT / "examples").is_dir():
        print(f"error: {ROOT} is not a repository checkout "
              f"(src/repro and examples/ are required)", file=sys.stderr)
        return 2
    # the artifact disk tier would write outside the checkout
    os.environ["REPRO_ARTIFACT_DIR"] = "off"
    # a terminated run still stops its workers (the finally blocks run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    tally = report["tally"]
    metrics = result_metrics(report, bool(args.trace))
    print_report(args, report, metrics)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
