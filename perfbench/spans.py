"""Span tracing from outside the program.

The traced run wraps the public functions at each layer boundary (module
or class attributes, plus the coordinator's ``Api.handle`` instance
attribute) in brackets that record a span: name, start, end, parent, the
id of the request or job it belongs to, the benchmark phase, and a few
values read at the boundary (replayed cycles, response bytes).  Spans are
kept in memory; the ledger is computed from them when the run ends.
:meth:`Tracer.remove` restores every attribute, so the untraced runs
execute the shipped code.

A span's *self time* is its duration minus the part its child spans
cover; the self times of one job's spans add up to the job's wall time.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Callable, Dict, List, Optional

#: span-name prefix -> layer (the module the wrapped function belongs to)
LAYERS = {
    "compiler": "compiler", "asm": "asm", "core": "core",
    "codegen": "codegen", "sim": "sim", "state": "state",
    "server": "server", "session": "server", "client": "client",
    "explore": "explore", "fleet": "fleet", "job": "other",
}


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "rid", "phase",
                 "data")

    def __init__(self, span_id: int, parent: Optional["Span"], name: str,
                 phase: str):
        self.id = span_id
        self.parent = parent.id if parent is not None else None
        self.rid = parent.rid if parent is not None else span_id
        self.name = name
        self.phase = phase
        self.data: Dict[str, object] = {}
        self.end = 0.0
        self.start = time.perf_counter()

    @property
    def layer(self) -> str:
        return LAYERS[self.name.split(".", 1)[0]]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: List[Span] = []
        #: benchmark phase stamped on new spans (set by the runner)
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: List[tuple] = []

    # -- recording --------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: Optional[Span] = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(next(self._ids), parent, name, self.phase)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    # -- wrapping -----------------------------------------------------------
    def wrap(self, owner, attr: str, name: str,
             note: Optional[Callable] = None) -> None:
        """Bracket ``owner.attr`` with a span; *note(span, args, result)*
        records boundary values after the call returns."""
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        original = getattr(owner, attr)
        own = attr in vars(owner)
        tracer = self

        @functools.wraps(original)
        def bracket(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.data["error"] = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            if note is not None:
                note(span, args, result)
            return result

        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(bracket))
        else:
            setattr(owner, attr, bracket)
        self._restore.append((owner, attr, raw, own))

    def wrap_pool(self, pool_cls) -> None:
        """``KeyedThreadPool.run``: the caller's span parents the work span
        on the pool thread, so wait = run span minus work span."""
        original = pool_cls.__dict__["run"]
        tracer = self

        @functools.wraps(original)
        def run(pool, key, fn, *args, **kwargs):
            outer = tracer.open("server.pool")

            def work(*a, **k):
                inner = tracer.open("server.work", parent=outer)
                try:
                    return fn(*a, **k)
                finally:
                    tracer.close(inner)
            try:
                return original(pool, key, work, *args, **kwargs)
            finally:
                tracer.close(outer)

        pool_cls.run = run
        self._restore.append((pool_cls, "run", original, True))

    def remove(self) -> None:
        """Restore every wrapped attribute (last wrapped, first restored)."""
        while self._restore:
            owner, attr, raw, own = self._restore.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)


def install(tracer: Tracer, api=None) -> None:
    """Wrap every layer boundary the ledger names.  *api* is the
    coordinator's ``Api`` instance (its ``handle`` is wrapped on the
    instance, so worker processes and other servers are untouched)."""
    import http.client

    import repro.compiler.driver as driver
    import repro.core.trace as trace
    import repro.explore.runner as runner
    import repro.explore.service as service
    import repro.server.protocol as protocol
    from repro.asm.parser import Assembler
    from repro.core.pipeline import Cpu
    from repro.explore.artifacts import ArtifactCache
    from repro.explore.pool import KeyedThreadPool
    from repro.server.client import SimClient
    from repro.server.session import Session
    from repro.sim.simulation import Simulation
    from repro.sim.state import CheckpointRing
    from repro.sim.statistics import RuntimeStatistics

    def note_travel(span, args, _result):
        simulation = args[0]
        span.data["replay"] = simulation.last_replay_cycles
        span.data["fastForward"] = simulation.last_fast_forward

    def note_bytes(span, _args, result):
        span.data["bytes"] = result

    def note_route(span, args, _result):
        span.data["route"] = args[2].partition("?")[0]

    def note_handle(span, args, result):
        path = args[1].partition("?")[0]
        span.data["route"] = path
        if path.startswith("/artifact/"):
            from repro.sim.state import dumps_raw
            span.data["bytes"] = len(dumps_raw(result))

    def note_execute(span, args, result):
        span.data["worker"] = f"{args[0].host}:{args[0].port}"
        if not result.get("ok") and result.get("kind") == \
                "artifactUnavailable":
            span.data["inline"] = True

    def note_read(span, _args, result):
        owner = tracer.current()
        if owner is not None and owner.name == "client.request":
            owner.data["bytes"] = owner.data.get("bytes", 0) + len(result)

    tracer.wrap(driver, "compile_c", "compiler.compile_c")
    tracer.wrap(protocol, "compile_c", "compiler.compile_c")
    tracer.wrap(ArtifactCache, "compiled_assembly",
                "compiler.compiled_assembly")
    tracer.wrap(Assembler, "assemble", "asm.assemble")
    tracer.wrap(ArtifactCache, "assembled_program", "asm.assembled_program")
    tracer.wrap(Simulation, "__init__", "core.construct")
    tracer.wrap(trace, "compile_step", "codegen.step_loop")
    tracer.wrap(trace, "compile_block", "codegen.block")
    tracer.wrap(Simulation, "run", "sim.run")
    tracer.wrap(Simulation, "step", "sim.step")
    tracer.wrap(Simulation, "step_back", "sim.step_back", note_travel)
    tracer.wrap(Simulation, "seek", "sim.seek", note_travel)
    tracer.wrap(RuntimeStatistics, "to_json", "sim.stats_json")
    tracer.wrap(Cpu, "save_state", "state.save")
    tracer.wrap(Cpu, "restore_state", "state.restore")
    tracer.wrap(CheckpointRing, "bytes_retained", "state.bytes_retained",
                note_bytes)
    tracer.wrap_pool(KeyedThreadPool)
    tracer.wrap(Session, "serve_delta_json", "session.delta_json")
    tracer.wrap(SimClient, "request", "client.request", note_route)
    tracer.wrap(http.client.HTTPResponse, "read", "client.read", note_read)
    tracer.wrap(service, "run_sweep", "explore.run_sweep")
    tracer.wrap(runner, "execute_payload", "explore.execute_payload")
    tracer.wrap(SimClient, "worker_execute", "fleet.execute", note_execute)
    if api is not None:
        tracer.wrap(api, "handle", "server.handle", note_handle)
