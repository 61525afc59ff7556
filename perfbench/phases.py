"""The three phases every benchmark run drives, through public entry points
only.

* **golden_jobs** — each golden program as one ``execute_payload`` job on
  the default core, serially in this thread: compile -> assemble ->
  construct -> codegen -> simulate -> record.  The ``/simulate`` and
  sweep-job path.
* **interactive_steps** — a closed loop of two ``SimClient`` users, one
  keep-alive gzip connection each, no think time, against the
  coordinator ``SimServer``: ``/compile``, ``/session/new``, a seeded mix
  of 1-cycle forward steps with ``delta: "encoded"`` (what the GUI sends),
  short backward steps and far seeks, a seek to the end that is checked
  against the run-to-completion state, ``/session/close``.  The paper's
  GUI path (its Table I load test).
* **fleet_sweep** — the golden C programs x a fetch/commit-width x ROB-size
  grid submitted to ``/explore/submit`` on the coordinator's ``fleet``
  backend, executed by worker processes started with
  ``repro-sim worker --register``, data plane on as shipped.

A :class:`Deployment` is the coordinator plus its workers.
"""

from __future__ import annotations

import json
import os
import queue
import random
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from perfbench import programs as progs

#: sweep workers per deployment: one per core of the 2-core reference host
FLEET_WORKERS = 2
#: seconds a deployment may take until every worker is registered
REGISTER_TIMEOUT_S = 60.0
#: interactive users (closed loop, one connection each)
CLIENTS = 2
#: the far seeks of one session, as bands of the program's run: four
#: forward jumps (fast-forward), two jumps back (checkpoint restore +
#: replay); the seed picks the point inside each band and the steps
#: between jumps, so every seed sees the same mix of seek costs
SEEK_BANDS = ((0.1, 0.2), (0.3, 0.4), (0.5, 0.6), (0.7, 0.8), (0.2, 0.3),
              (0.4, 0.5))


class Tally:
    """Operations attempted and failed (errors and wrong outputs)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self._lock = threading.Lock()

    def add(self, ok: bool, what: str = "") -> None:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(what)


# -- deployment ----------------------------------------------------------------
class Deployment:
    """A coordinator ``SimServer`` in this process plus worker processes
    that register with it (``repro-sim worker --register``)."""

    def __init__(self):
        self.server = None
        self.procs: List[subprocess.Popen] = []
        self.worker_urls: List[str] = []

    @property
    def address(self):
        return "127.0.0.1", self.server.port

    def start(self) -> float:
        """Start everything; returns the seconds until every worker is
        registered and answering.  Call :meth:`stop` afterwards, also
        when this raises."""
        from repro.server.client import SimClient
        from repro.server.httpd import SimServer
        started = time.perf_counter()
        self.server = SimServer(("127.0.0.1", 0), enable_gzip=True)
        self.server.start_background()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(progs.ROOT / "src")
        # the artifact disk tier would write outside the checkout
        env["REPRO_ARTIFACT_DIR"] = "off"
        command = [sys.executable, "-c",
                   "import sys; from repro.cli.main import main; "
                   "sys.exit(main(sys.argv[1:]))",
                   "worker", "--port", "0", "--quiet",
                   "--register", f"127.0.0.1:{self.server.port}"]
        for _ in range(FLEET_WORKERS):
            self.procs.append(subprocess.Popen(
                command, env=env, cwd=str(progs.ROOT),
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL))
        deadline = started + REGISTER_TIMEOUT_S
        fleet = self.server.api.fleet
        while fleet.snapshot()["live"] < FLEET_WORKERS:
            if time.perf_counter() > deadline or any(
                    p.poll() is not None for p in self.procs):
                raise RuntimeError("fleet workers did not register")
            time.sleep(0.01)
        self.worker_urls = sorted(row["url"]
                                  for row in fleet.snapshot()["rows"])
        for url in self.worker_urls:
            host, port = url.rsplit(":", 1)
            client = SimClient(host, int(port), timeout=10.0)
            try:
                client.worker_status()
            finally:
                client.close()
        return time.perf_counter() - started

    def scrape(self) -> Dict[str, dict]:
        """Per worker: ``/metrics`` families and ``/worker/status``."""
        from repro.server.client import SimClient
        out = {}
        for url in self.worker_urls:
            host, port = url.rsplit(":", 1)
            client = SimClient(host, int(port), timeout=10.0)
            try:
                out[url] = {"metrics": client.metrics()["metrics"],
                            "status": client.worker_status()}
            finally:
                client.close()
        return out

    def stop(self) -> None:
        # SIGTERM, not SIGINT: a shell that starts the benchmark in the
        # background makes its children ignore SIGINT
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs = []
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.server = None


# -- golden_jobs ---------------------------------------------------------------
class SimulationCapture:
    """Keeps the ``Simulation`` each job built, for the output check.

    ``execute_payload`` returns a record, not the simulation; the golden
    fingerprint needs the final register file and memory image.  This
    replaces ``repro.explore.runner.build_simulation`` with a function that
    remembers its result: one extra call per job, in traced and untraced
    runs alike."""

    def __init__(self):
        self.last = None
        self._original = None

    def __enter__(self) -> "SimulationCapture":
        import repro.explore.runner as runner
        self._original = runner.build_simulation

        def build_simulation(payload, cache=None):
            self.last = self._original(payload, cache)
            return self.last

        runner.build_simulation = build_simulation
        return self

    def __exit__(self, *_exc) -> None:
        import repro.explore.runner as runner
        runner.build_simulation = self._original


def golden_pass(programs: List[progs.Program], order: List[int], salt: str,
                cache, capture: SimulationCapture, expected: dict,
                tally: Tally, tracer=None, pass_index: int = 0) -> dict:
    """One pass over *programs* in *order*; returns per-program job
    seconds, records and the pass wall time (sum of job times)."""
    import repro.explore.runner as runner
    seconds: Dict[str, float] = {}
    records: Dict[str, dict] = {}
    for index in order:
        program = programs[index]
        payload = program.payload(salt)
        root = None
        if tracer is not None:
            root = tracer.open("job.golden")
            root.data.update({"pass": pass_index, "program": program.name})
        started = time.perf_counter()
        try:
            record = runner.execute_payload(payload, cache)
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            tally.add(False, f"golden {program.name}: {exc!r}")
            continue
        finally:
            elapsed = time.perf_counter() - started
            if root is not None:
                tracer.close(root)
        seconds[program.name] = elapsed
        records[program.name] = record
        got = progs.fingerprint(capture.last)
        want = expected["fingerprints"][program.name]
        stats = record["stats"]
        ok = (got == want and stats["cycles"] == want["cycles"]
              and stats["committedInstructions"] == want["committed"]
              and stats["haltReason"] == want["haltReason"])
        tally.add(ok, f"golden {program.name}: {got} != {want}")
    return {"seconds": seconds, "records": records,
            "pass_s": sum(seconds.values())}


# -- interactive_steps -----------------------------------------------------------
def run_session(client, program: progs.Program, rng: random.Random,
                salt: str, reference: dict, samples: Dict[str, list],
                tally: Tally, schedule: list) -> None:
    """One GUI session; appends latencies to ``samples[kind]`` and
    ``(program, kind, argument)`` to *schedule*.  Like the GUI, it keeps
    the full state the server last sent and patches each step's delta
    onto it (``apply_snapshot_delta``)."""
    from repro.sim.state import apply_snapshot_delta

    def timed(kind: str, call, *args, **kwargs):
        schedule.append((program.name, kind, args[1] if len(args) > 1
                         else None))
        started = time.perf_counter()
        out = call(*args, **kwargs)
        samples[kind].append(time.perf_counter() - started)
        return out

    view = None     # the client's full state: last full one + deltas

    def stepped(out: dict, cycle: int, kind: str) -> None:
        """Patch the step's delta onto the view; it must land on *cycle*."""
        nonlocal view
        delta = out["stateDelta"]
        view = (delta["state"] if delta.get("format") == "full"
                else apply_snapshot_delta(view, delta))
        tally.add(view["cycle"] == cycle,
                  f"{kind} {program.name}: view at cycle {view['cycle']}, "
                  f"expected {cycle}")

    if program.c is not None:
        out = timed("compile", client.compile, program.source(salt),
                    program.level)
        tally.add(bool(out.get("success")), f"compile {program.name}")
        code = out["assembly"]
    else:
        code = program.source(salt)
    extra = {"config": program.config_json()}
    if program.entry is not None:
        extra["entry"] = program.entry
    if program.memory:
        extra["memory"] = program.memory
    session = timed("new", client.session_new, code, **extra)
    tally.add(True)
    total = reference["cycles"]
    targets = [int(total * rng.uniform(low, high))
               for low, high in SEEK_BANDS]
    cycle = 0
    for index, target in enumerate(targets):
        for _ in range(rng.randint(3, 6)):
            out = timed("step", client.session_step, session, 1, delta=True)
            cycle += 1
            stepped(out, cycle, "step")
            if cycle > 4 and rng.random() < 0.25:
                back = rng.randint(1, 4)
                out = timed("back", client.session_step, session, -back,
                            delta=True)
                cycle -= back
                stepped(out, cycle, "back")
        if index == len(targets) - 1:
            # once per session (untimed): the view patched from the deltas
            # since the last full state equals the server's full state
            full = client.session_state(session)["state"]
            tally.add(json.dumps(view, sort_keys=True)
                      == json.dumps(full, sort_keys=True),
                      f"delta-patched view of {program.name} differs from "
                      f"the full state at cycle {cycle}")
        out = timed("seek", client.session_seek, session, target)
        view = out["state"]
        tally.add(view["cycle"] == target, f"seek {program.name}")
        cycle = target
    out = timed("seek", client.session_seek, session, total)
    state = out["state"]
    ok = (state["cycle"] == reference["cycles"]
          and state["halted"] == reference["haltReason"]
          and state["statistics"]["committedInstructions"]
          == reference["committedInstructions"]
          and state["registers"]["int"] == reference["intRegisters"])
    tally.add(ok, f"seek-to-end state of {program.name} differs from "
                  f"the run to completion")
    out = timed("close", client.session_close, session)
    tally.add(out.get("success") is True, f"close {program.name}")


def interactive_round(address, programs: List[progs.Program],
                      order: List[int], seed: str, salt: str,
                      references: Dict[str, dict], samples: Dict[str, list],
                      tally: Tally, schedule: list) -> int:
    """A session for each of ``programs[i] for i in order``, shared by
    :data:`CLIENTS` closed-loop users; returns the requests answered."""
    from repro.server.client import SimClient
    work: "queue.Queue[int]" = queue.Queue()
    for index in order:
        work.put(index)

    def user() -> None:
        client = SimClient(*address, use_gzip=True, timeout=60.0)
        try:
            while True:
                try:
                    index = work.get_nowait()
                except queue.Empty:
                    return
                program = programs[index]
                rng = random.Random(f"{seed}:{program.name}")
                try:
                    run_session(client, program, rng, salt,
                                references[program.name], samples, tally,
                                schedule)
                except Exception as exc:  # noqa: BLE001 - counted, the
                    # session ends and the next one starts afresh
                    tally.add(False, f"session {program.name}: {exc!r}")
                    client.close()
        finally:
            client.close()

    before = sum(len(v) for v in samples.values())
    threads = [threading.Thread(target=user, daemon=True)
               for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170)
        if thread.is_alive():
            raise RuntimeError("interactive client did not finish")
    return sum(len(v) for v in samples.values()) - before


# -- fleet_sweep -------------------------------------------------------------------
def fleet_sweep(address, spec: dict, expected: dict, tally: Tally,
                records_out: Optional[dict] = None) -> Optional[float]:
    """Submit *spec* on the fleet backend; returns seconds from submit to
    the terminal progress event (the last record), or None on failure.
    *records_out* collects the records by label."""
    from repro.server.client import SimClient
    client = SimClient(*address, use_gzip=True, timeout=120.0)
    try:
        started = time.perf_counter()
        submitted = client.explore_submit(spec, backend="fleet")
        last = None
        for event in client.explore_stream(submitted["sweepId"],
                                           timeout=170.0):
            last = event
        elapsed = time.perf_counter() - started
        result = client.explore_result(submitted["sweepId"])
    finally:
        client.close()
    records = result.get("records") or []
    want = expected["fleetRecords"]
    good = (last is not None and result.get("state") == "done"
            and len(records) == submitted["jobs"])
    tally.add(good, f"fleet sweep ended {result.get('state')} with "
                    f"{len(records)} records")
    for record in records:
        if records_out is not None:
            records_out[record.get("label")] = record
        tally.add(want.get(record.get("label")) == progs.record_digest(record),
                  f"fleet record {record.get('label')} differs from the "
                  f"serial run_sweep")
    return elapsed if good else None
