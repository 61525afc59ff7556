"""The configuration-specialized step loop (the pipeline's timing model).

``Cpu.run`` and ``Cpu.step`` execute a single function specialized to
the processor configuration (``tracegen.compile_step``): every pipeline
stage inlined into one loop body, configuration constants folded into
literals.  Situations the loop does not model inline — mispredict
flushes, store drains, load resolution, decode redirects — call the
CPU's own methods.

The compiled code object is cached per configuration signature, so every
``Cpu`` after the first with the same configuration pays only for a new
function object over the cached code.  There is no per-program codegen:
golden programs run for a few thousand cycles, far too few to repay
compiling program fragments.

Determinism: the loop keeps no wall-clock state and reads no
environment.
"""

from __future__ import annotations

from repro.core.tracegen import compile_step

__all__ = ["compile_block", "compile_step"]


def compile_block(*_args):
    """Never called: kept only so the benchmark's span wrapper resolves."""
