"""Static decode cache: per-static-instruction pre-computed facts.

Every *dynamic* instruction instance used to re-derive static facts on the
hot path: re-resolve ``Expression.compile`` memo lookups, re-read enum
attributes (``fu_class.value``, ``instruction_type.value``), rebuild the
operand-plumbing decisions (which arguments rename, which are immediates,
which read the hardwired ``x0``) and re-compile branch-target expressions.
A :class:`DecodedOp` captures all of that exactly once per *static*
instruction when the :class:`~repro.asm.program.Program` is first simulated;
the pipeline's fetch/dispatch/issue/evaluate blocks then consume the cached
record.

Everything in a ``DecodedOp`` is a pure function of the static instruction,
so the cache is shared between every :class:`~repro.core.pipeline.Cpu` (and
every backward-simulation re-run) built over the same program — determinism
is unaffected by construction order.
"""

from __future__ import annotations

import struct
from typing import Callable, List, Optional, Tuple

from repro.isa.expression import EvalContext, Expression
from repro.isa.instruction import ArgType, InstructionDef

#: register-source kinds (``DecodedOp.sources`` entries)
SRC_INT = 1   # integer register
SRC_FP = 2    # floating-point register

_REGISTER_TYPES = (ArgType.INT, ArgType.FLOAT)

_PACK_F32 = struct.Struct("<f").pack
_PACK_F64 = struct.Struct("<d").pack


def _make_store_encoder(definition: InstructionDef) -> Callable[[object], bytes]:
    """Pre-bound ``value -> bytes`` encoder for a store instruction."""
    size = definition.memory_size
    if definition.arguments[0].type is ArgType.FLOAT:
        pack = _PACK_F32 if size == 4 else _PACK_F64
        return lambda value: pack(float(value))
    mask = (1 << (8 * size)) - 1
    return lambda value: (int(value) & mask).to_bytes(size, "little")


class DecodedOp:
    """All statically derivable facts about one program instruction."""

    __slots__ = (
        "instruction", "definition", "index", "pc",
        # commit-counter keys
        "mnemonic", "type_key", "flops", "is_halt",
        # routing
        "fu_kind", "op_class",
        # memory access
        "is_load", "is_store", "memory_size", "memory_signed",
        "load_is_float", "store_value_name", "store_encode",
        # branch behaviour
        "is_branch", "is_unconditional", "static_target", "target_expr",
        # semantics; compute = the fused FX/FP write-back value (or the LS
        # address) as (values, pc) -> (value, exception), None for branches
        "expr", "compute",
        # operand plumbing: renamable register sources as ((arg_name, kind,
        # register name, register index), ...) and {arg_name: value} of
        # immediates and hardwired x0; both shared within a program
        "sources", "imm_values",
        # destination plumbing
        "dest_name", "dest_arch", "has_dest", "needs_tag",
    )

    def __init__(self, instruction, shared: Optional[dict] = None) -> None:
        d: InstructionDef = instruction.definition
        self.instruction = instruction
        self.definition = d
        self.index = instruction.index
        self.pc = instruction.index * 4

        self.mnemonic = d.name
        self.type_key = d.instruction_type.value
        self.flops = d.flops
        self.is_halt = d.name in ("ecall", "ebreak")

        self.fu_kind = d.fu_class.value
        self.op_class = d.op_class

        operands = instruction.operands
        dest = None
        sources: List[Tuple[str, int, str, int]] = []
        imm_values = {}
        for arg in d.arguments:
            name = arg.name
            operand = operands[name]
            if arg.type in _REGISTER_TYPES:
                if arg.write_back:
                    if dest is None:
                        dest = arg
                    continue
                if operand != "x0":
                    sources.append((name, SRC_FP if operand[0] == "f"
                                    else SRC_INT, operand, int(operand[1:])))
                    continue
                operand = 0
            imm_values[name] = operand
        if shared is None:
            shared = {}
        self.sources = shared.setdefault(("sources", *sources),
                                         tuple(sources))
        self.imm_values = shared.setdefault(("imm", *imm_values.items()),
                                            imm_values)

        self.is_store = d.is_store
        self.memory_size = d.memory_size
        self.is_load = self.memory_size > 0 and not self.is_store
        self.memory_signed = d.memory_signed
        self.load_is_float = (self.is_load and dest is not None
                              and dest.type is ArgType.FLOAT)
        self.store_value_name = d.arguments[0].name if d.is_store else None
        self.store_encode = _make_store_encoder(d) if d.is_store else None

        self.expr = Expression.compile(d.interpretable_as) \
            if d.interpretable_as else None

        self.is_branch = d.is_branch
        self.is_unconditional = d.is_unconditional
        self.target_expr = Expression.compile(d.target) if d.target else None
        self.static_target = self._static_target(instruction)

        self.has_dest = dest is not None
        self.dest_name = dest.name if dest is not None else None
        self.compute = None
        if self.expr is not None and not self.is_branch:
            self.compute = self.expr.result_fn(
                self.dest_name if self.fu_kind in ("FX", "FP") else None)
        self.dest_arch = operands[dest.name] if dest is not None else None
        self.needs_tag = self.has_dest and self.dest_arch != "x0"

    # ------------------------------------------------------------------
    def _static_target(self, instruction) -> Optional[int]:
        """Branch target evaluated at decode time, when possible.

        The target of direct branches (``jal``, ``beq``...) depends only on
        ``pc`` and immediates, both known statically; ``jalr``-style targets
        reference a source register and stay ``None`` (resolved at execute).
        """
        if self.target_expr is None:
            return None
        d = self.definition
        immediates = {}
        for arg in d.arguments:
            if arg.type not in _REGISTER_TYPES:
                immediates[arg.name] = instruction.operands[arg.name]
        for name in self.target_expr.references():
            if name not in immediates:
                return None
        ctx = EvalContext(immediates, pc=self.pc)
        return int(self.target_expr.evaluate(ctx)) & 0xFFFFFFFF


def decode_program(program) -> List[DecodedOp]:
    """Decode every static instruction of *program* once (equal operand
    plumbing is shared between its instructions)."""
    shared: dict = {}
    return [DecodedOp(instruction, shared)
            for instruction in program.instructions]
