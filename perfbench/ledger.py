"""Per-layer ledger: turns the traced run's spans into per-layer metrics.

Scopes (each layer is measured on the phase whose blocking steps it sits
on; host time unless marked simulated):

* job path, per golden pass (median over the measured passes): the self
  time of every layer of the golden jobs.  ``compiler``, ``asm``,
  ``core`` (``Simulation.__init__`` including its cycle-0 checkpoint),
  ``state``, ``codegen``, ``sim`` (run minus codegen and stats),
  ``stats`` (``RuntimeStatistics.to_json``) and ``other`` (the job's own
  bracket plus ``execute_payload``'s record building) add up to the
  pass's job wall time; ``golden.share.<layer>`` is each one's share of
  the measured passes' job wall time (the shares sum to 1);
* interactive path, per request or call: ``sim.step``/travel, ``state``,
  ``server``, ``session``, ``client`` and ``http``; ``step.*_share``
  splits the client-observed ``/session/step`` time into transport,
  simulation and delta encoding;
* fleet path, per sweep phase: ``fleet`` and ``explore`` (the latter from
  the workers' artifact caches, scraped before and after).
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List

#: job-path layers of the golden accounting, in pipeline order
JOB_LAYERS = ("compiler", "asm", "core", "state", "codegen", "sim",
              "stats", "other")

#: server routes whose handle time is reported (the interactive path)
ROUTES = {"/compile": "compile", "/session/new": "session_new",
          "/session/step": "session_step", "/session/seek": "session_seek"}


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def self_times(spans) -> Dict[int, float]:
    """Span id -> duration minus the time its children cover (children of
    one span never overlap: each runs on its parent's thread, or on a pool
    thread while the parent waits)."""
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return {span.id: span.duration - covered[span.id] for span in spans}


def covered_time(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def job_layer(span) -> str:
    """Accounting bucket of a golden-job span."""
    if span.name == "sim.stats_json":
        return "stats"
    if span.name in ("job.golden", "explore.execute_payload"):
        return "other"
    return span.layer


def golden_accounting(spans) -> List[dict]:
    """Per measured pass: ``{"jobMs", "layers": {layer: self ms},
    "counts": {...}, "runMs": {program: [ms]}}``."""
    spans = [s for s in spans if s.phase == "golden"]
    own = self_times(spans)
    roots = {s.id: s for s in spans if s.name == "job.golden"}
    passes: Dict[int, dict] = {}
    for root in roots.values():
        entry = passes.setdefault(root.data["pass"], {
            "jobMs": 0.0, "layers": {layer: 0.0 for layer in JOB_LAYERS},
            "counts": defaultdict(int), "codegenMs": defaultdict(float),
            "constructMs": 0.0, "runMs": {}})
        entry["jobMs"] += root.duration * 1e3
    for span in spans:
        root = roots.get(span.rid)
        if root is None:
            continue
        entry = passes[root.data["pass"]]
        entry["layers"][job_layer(span)] += own[span.id] * 1e3
        entry["counts"][span.name] += 1
        if span.layer == "codegen":
            entry["codegenMs"][span.name] += own[span.id] * 1e3
        elif span.name == "core.construct":
            entry["constructMs"] += span.duration * 1e3
        elif span.name == "sim.run":
            entry["runMs"][root.data["program"]] = span.duration * 1e3
    return [passes[key] for key in sorted(passes)]


def compute(spans, golden_records: Dict[str, dict],
            fleet: dict) -> Dict[str, float]:
    """Every per-layer metric (see the module docstring for scopes).

    *golden_records* maps program -> one measured pass's record;
    *fleet* carries ``sweepS`` (list), ``workers`` and the worker-scrape
    deltas ``fetches``, ``hits``, ``misses`` (the workers' artifact caches).  A worker is busy while at
    least one of its ``/worker/execute`` calls is in flight."""
    out: Dict[str, float] = {}
    passes = golden_accounting(spans)

    def per_pass(fn) -> float:
        return median(fn(entry) for entry in passes)

    out["compiler.compile_ms"] = per_pass(lambda e: e["layers"]["compiler"])
    out["compiler.calls"] = per_pass(
        lambda e: e["counts"]["compiler.compile_c"])
    out["asm.assemble_ms"] = per_pass(lambda e: e["layers"]["asm"])
    out["asm.calls"] = per_pass(lambda e: e["counts"]["asm.assemble"])
    out["core.construct_ms"] = per_pass(lambda e: e["constructMs"])
    out["codegen.step_loop_ms"] = per_pass(
        lambda e: e["codegenMs"]["codegen.step_loop"])
    out["codegen.block_ms"] = per_pass(
        lambda e: e["codegenMs"]["codegen.block"])
    out["codegen.blocks"] = per_pass(lambda e: e["counts"]["codegen.block"])
    out["codegen.share"] = per_pass(
        lambda e: e["layers"]["codegen"] / e["jobMs"])
    out["sim.run_self_ms"] = per_pass(lambda e: e["layers"]["sim"])
    out["sim.stats_json_ms"] = per_pass(lambda e: e["layers"]["stats"])
    out["other.job_ms"] = per_pass(lambda e: e["layers"]["other"])
    job_ms = sum(e["jobMs"] for e in passes)
    for layer in JOB_LAYERS:
        out[f"golden.share.{layer}"] = (
            sum(e["layers"][layer] for e in passes) / job_ms
            if job_ms else 0.0)
    for program, record in sorted(golden_records.items()):
        cycles = record["stats"]["cycles"]
        out[f"sim.host_cps.{program}"] = median(
            cycles / (e["runMs"][program] / 1e3)
            for e in passes if program in e["runMs"])
        out[f"sim.cycles.{program}"] = cycles
        out[f"sim.ipc.{program}"] = record["stats"]["ipc"]

    live = [s for s in spans if s.phase == "interactive"]
    by_id = {s.id: s for s in live}
    named: Dict[str, list] = defaultdict(list)
    for span in live:
        named[span.name].append(span)
    out["sim.step_ms"] = median(
        s.duration * 1e3 for s in named["sim.step"]
        if by_id.get(s.parent) is not None
        and by_id[s.parent].name == "server.work")
    travel = named["sim.step_back"] + named["sim.seek"]
    out["sim.travel_ms"] = median(s.duration * 1e3 for s in travel)
    out["sim.replay_cycles"] = mean(s.data["replay"] for s in travel)
    out["sim.fast_forward_cycles"] = mean(
        s.data["fastForward"] for s in named["sim.seek"])
    out["state.save_ms"] = mean(s.duration * 1e3 for s in named["state.save"])
    out["state.restore_ms"] = mean(
        s.duration * 1e3 for s in named["state.restore"])
    out["state.checkpoint_bytes"] = median(
        s.data["bytes"] for s in named["state.bytes_retained"])
    handles = [s for s in named["server.handle"]
               if s.data.get("route") in ROUTES
               or str(s.data.get("route", "")).startswith("/session/")]
    for route, label in ROUTES.items():
        out[f"server.handle_ms.{label}"] = median(
            s.duration * 1e3 for s in handles if s.data["route"] == route)
    works = {s.parent: s.duration for s in named["server.work"]}
    out["server.pool_wait_ms"] = mean(
        (s.duration - works.get(s.id, 0.0)) * 1e3
        for s in named["server.pool"])
    out["session.delta_json_ms"] = median(
        s.duration * 1e3 for s in named["session.delta_json"])
    requests = named["client.request"]
    out["http.response_bytes"] = median(
        s.data.get("bytes", 0) for s in requests
        if s.data.get("route") == "/session/step")
    out["client.request_ms"] = median(s.duration * 1e3 for s in requests)
    out["http.transport_ms"] = (
        (sum(s.duration for s in requests)
         - sum(s.duration for s in handles)) * 1e3 / len(requests)
        if requests else 0.0)
    out.update(step_split(live))

    sweeps = [s for s in spans if s.phase == "fleet"]
    executes = [s for s in sweeps if s.name == "fleet.execute"]
    out["fleet.execute_rtt_ms"] = median(
        s.duration * 1e3 for s in executes)
    sweep_total = sum(fleet["sweepS"])
    busy = sum(covered_time([(s.start, s.end) for s in executes
                             if s.data.get("worker") == worker])
               for worker in {s.data.get("worker") for s in executes})
    out["fleet.worker_busy_ratio"] = (
        busy / (fleet["workers"] * sweep_total) if sweep_total else 0.0)
    out["fleet.artifact_fetches"] = fleet["fetches"]
    out["fleet.artifact_fetch_bytes"] = sum(
        s.data.get("bytes", 0) for s in sweeps
        if s.name == "server.handle"
        and str(s.data.get("route", "")).startswith("/artifact/"))
    out["fleet.retries"] = sum(1 for s in executes if "error" in s.data)
    out["fleet.inline_redispatches"] = sum(
        1 for s in executes if s.data.get("inline"))
    lookups = fleet["hits"] + fleet["misses"]
    out["explore.artifact_hits"] = fleet["hits"]
    out["explore.artifact_misses"] = fleet["misses"]
    out["explore.artifact_hit_ratio"] = (fleet["hits"] / lookups
                                         if lookups else 0.0)
    out["trace.spans"] = len(spans)
    return out


def step_split(live) -> Dict[str, float]:
    """Where the client-observed time of the ``/session/step`` requests
    goes: the transport (everything outside the server's handle), the
    simulation and the delta encoding inside the pool's work callable."""
    client = sum(s.duration for s in live if s.name == "client.request"
                 and s.data.get("route") == "/session/step")
    handles = {s.id for s in live if s.name == "server.handle"
               and s.data.get("route") == "/session/step"}
    pools = {s.id for s in live if s.parent in handles}
    works = {s.id for s in live if s.parent in pools}
    inside: Dict[str, float] = defaultdict(float)
    for span in live:
        if span.parent in works:
            inside[span.name] += span.duration
    handle = sum(s.duration for s in live if s.id in handles)

    def share(value: float) -> float:
        return value / client if client else 0.0

    return {"step.transport_share": share(client - handle),
            "step.simulation_share": share(inside["sim.step"]
                                           + inside["sim.step_back"]),
            "step.delta_json_share": share(inside["session.delta_json"])}


def geomean(values: Iterable[float]) -> float:
    values = [v for v in values if v > 0]
    return math.exp(sum(math.log(v) for v in values) / len(values)) \
        if values else 0.0
