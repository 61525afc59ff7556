"""Trace tier: the configuration-specialized step loop.

The uninstrumented run loop (``Cpu.run``) is replaced by a single
function specialized to the processor configuration
(``tracegen.compile_step``): every pipeline stage inlined into one loop
body, configuration constants folded into literals.  Situations the loop
does not model inline — mispredict flushes, store drains, load
resolution, decode redirects — call the interpreter's own methods, so
behaviour is bit-exact by construction (and pinned by the golden
determinism suite).

The compiled code object is cached per configuration signature, so every
``Cpu`` after the first with the same configuration pays only an
``exec`` of the cached code.  There is no per-program codegen: golden
programs run for a few thousand cycles, far too few to repay compiling
program fragments.

The tier is disabled with ``CpuConfig.trace = False`` or
``REPRO_TRACE=0`` — useful when bisecting a timing bug, see
``examples/quickstart.py``.

Determinism: the tier keeps no wall-clock state, and the only
environment read is the ``REPRO_TRACE`` toggle the lint determinism
rules allow.
"""

from __future__ import annotations

import os

from repro.core.tracegen import compile_step

__all__ = ["compile_block", "compile_step", "trace_enabled",
           "trace_supported"]


def trace_enabled(config) -> bool:
    """Session-level gate: config field AND the ``REPRO_TRACE`` env toggle."""
    if not getattr(config, "trace", True):
        return False
    return os.environ.get("REPRO_TRACE", "1") != "0"


def trace_supported(cpu) -> bool:
    """Whether the specialized step loop models this configuration.

    Pipelined functional units (the ``FuSpec.pipelined`` future-work mode)
    take the interpreter path; everything else is supported.
    """
    for fu in cpu.fus:
        if fu.pipelined:
            return False
    for fu in cpu.memory_units:
        if fu.pipelined:
            return False
    return True


def compile_block(*_args):
    """Never called: kept only so the benchmark's span wrapper resolves."""
