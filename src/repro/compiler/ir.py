"""Three-address intermediate representation.

A function is a flat list of :class:`IRInstr` over an infinite set of typed
temporaries.  Control flow uses labels and (conditional) jumps, which keeps
the optimization passes and the linear-scan register allocator simple while
still exposing every classic optimization the paper's O-level comparison
teaches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Union


class Temp(NamedTuple):
    """A virtual register: a named tuple, so hashing runs in C (a Python
    ``__hash__`` cost an eighth of ``compile_c``).  Keep the hash that of
    ``(index, is_float)``: set order over temporaries shapes the code."""

    index: int
    is_float: bool = False

    def __repr__(self) -> str:
        return f"{'f' if self.is_float else 't'}%{self.index}"


Operand = Union[Temp, int, float]

#: binary operation names understood by the optimizer and code generator
BIN_OPS = {
    "add", "sub", "mul", "div", "divu", "rem", "remu",
    "and", "or", "xor", "sll", "srl", "sra",
    "fadd", "fsub", "fmul", "fdiv",
}
#: comparison operation names (result is an int 0/1)
CMP_OPS = {
    "eq", "ne", "lt", "le", "gt", "ge",
    "ltu", "leu", "gtu", "geu",
    "feq", "flt", "fle",
}


@dataclass
class IRInstr:
    """One IR instruction.

    ``op`` determines which fields are meaningful:

    ========  =====================================================
    op        fields
    ========  =====================================================
    li        dst, a (int or float constant)
    mov       dst, a
    bin       sub_op, dst, a, b
    cmp       sub_op, dst, a, b
    neg/bnot  dst, a                        (arith / bitwise negate)
    fneg      dst, a
    cvt       sub_op in {i2f, u2f, f2i, f2u}; dst, a
    la        dst, symbol
    laddr     dst, symbol (stack slot name)
    load      dst, a (address), b (byte offset), size, signed
    store     a (value), b (address), c (byte offset), size
    label     label
    jmp       label
    bz        a (condition), label          (branch if zero)
    bnz       a (condition), label          (branch if non-zero)
    call      dst (or None), symbol, args
    ret       a (or None)
    ========  =====================================================
    """

    op: str
    dst: Optional[Temp] = None
    a: Optional[Operand] = None
    b: Optional[Operand] = None
    c: Optional[Operand] = None
    sub_op: str = ""
    symbol: str = ""
    label: str = ""
    args: List[Operand] = field(default_factory=list)
    size: int = 4
    signed: bool = True
    line: int = 0

    def sources(self) -> List[Temp]:
        """Temporaries read by this instruction."""
        out = [x for x in (self.a, self.b, self.c) if isinstance(x, Temp)]
        out.extend(x for x in self.args if isinstance(x, Temp))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [self.op]
        if self.sub_op:
            parts.append(f".{self.sub_op}")
        if self.dst is not None:
            parts.append(f"{self.dst} <-")
        for x in (self.a, self.b, self.c):
            if x is not None:
                parts.append(str(x))
        if self.symbol:
            parts.append(f"@{self.symbol}")
        if self.label:
            parts.append(f"->{self.label}")
        if self.args:
            parts.append(str(self.args))
        return " ".join(parts)


@dataclass
class StackSlot:
    """A named stack object (array / address-taken local / spill)."""

    name: str
    size: int
    align: int = 4
    is_float: bool = False


@dataclass
class IRFunction:
    name: str
    params: List[Temp] = field(default_factory=list)
    param_names: List[str] = field(default_factory=list)
    body: List[IRInstr] = field(default_factory=list)
    slots: Dict[str, StackSlot] = field(default_factory=dict)
    returns_float: bool = False
    returns_void: bool = False
    temp_count: int = 0
    line: int = 0

    def new_temp(self, is_float: bool = False) -> Temp:
        t = Temp(self.temp_count, is_float)
        self.temp_count += 1
        return t

    def dump(self) -> str:
        """Human-readable listing (useful in tests and debugging)."""
        lines = [f"func {self.name}({', '.join(map(str, self.params))}):"]
        for instr in self.body:
            prefix = "" if instr.op == "label" else "    "
            lines.append(prefix + repr(instr))
        return "\n".join(lines)


@dataclass
class GlobalData:
    """One global object to be emitted into the data segment."""

    name: str
    size: int
    align: int
    #: list of (size, value) words for initialized data; None -> .zero
    values: Optional[List] = None
    is_float: bool = False
    extern: bool = False


@dataclass
class IRUnit:
    functions: List[IRFunction] = field(default_factory=list)
    globals: List[GlobalData] = field(default_factory=list)
    strings: Dict[str, str] = field(default_factory=dict)  # label -> text

    def function(self, name: str) -> Optional[IRFunction]:
        for f in self.functions:
            if f.name == name:
                return f
        return None


_label_counter = itertools.count(1)


def fresh_label(stem: str = "L") -> str:
    """Globally unique label (compiler-generated labels start with '.')."""
    return f".{stem}{next(_label_counter)}"
