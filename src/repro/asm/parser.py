"""Two-pass assembler (Sec. III-C).

Pass 1 tokenizes, expands pseudo-instructions, collects instructions and
data directives, and binds labels to instruction addresses / data offsets.
Memory allocation runs *between* the passes (call stack first, then
memory-settings arrays, then the program's data directives), after which all
label values are known.  Pass 2 resolves every operand, evaluating
arithmetic expressions (``lla x4, arr+64``) and converting branch targets to
PC-relative offsets.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.asm.exprs import evaluate_operand
from repro.asm.lexer import Token, TokenKind, strip_block_comments, tokenize_line
from repro.asm.program import DataSymbol, ParsedInstruction, Program
from repro.asm.pseudo import PSEUDO_MNEMONICS, expand_pseudo
from repro.errors import AsmSyntaxError
from repro.isa.instruction import ArgType, InstructionDef
from repro.isa.isa import InstructionSet, default_instruction_set
from repro.isa.registers import canonical_fp_reg, canonical_int_reg

_DATA_DIRECTIVES = {
    ".byte": 1, ".hword": 2, ".half": 2, ".2byte": 2,
    ".word": 4, ".4byte": 4, ".long": 4,
}
_IGNORED_DIRECTIVES = {
    ".globl", ".global", ".local", ".type", ".size", ".file", ".ident",
    ".option", ".attribute", ".weak", ".comm", ".extern",
}

# Immediate range checks per instruction (soft validation, Fig. 7 errors).
_IMM12 = {"addi", "slti", "sltiu", "xori", "ori", "andi", "jalr",
          "lb", "lh", "lw", "lbu", "lhu", "sb", "sh", "sw", "flw", "fsw"}
_SHAMT = {"slli", "srli", "srai"}
_IMM20 = {"lui", "auipc"}


class _RawInstruction:
    """Pass-1 record of one (already pseudo-expanded) instruction."""

    __slots__ = ("definition", "groups", "line", "column", "text", "c_line")

    def __init__(self, definition: InstructionDef, groups: List[List[Token]],
                 line: int, column: int, text: str, c_line: int):
        self.definition = definition
        self.groups = groups
        self.line = line
        self.column = column
        self.text = text
        self.c_line = c_line


class Assembler:
    """Two-pass assembler producing a :class:`Program`."""

    def __init__(self, instruction_set: Optional[InstructionSet] = None):
        self.iset = instruction_set or default_instruction_set()

    # ------------------------------------------------------------------
    def assemble(
        self,
        source: str,
        entry: Optional[object] = None,
        memory_locations: Sequence[object] = (),
        stack_size: int = 512,
        data_alignment: int = 4,
    ) -> Program:
        """Assemble *source* into a :class:`Program`.

        Parameters
        ----------
        entry:
            ``None`` (first instruction), a label name, or a byte address.
        memory_locations:
            Objects from the Memory-settings window (Fig. 8); anything with
            ``name``, ``alignment`` and ``to_bytes()`` attributes.
        stack_size:
            Bytes reserved for the call stack at the beginning of memory;
            its top seeds the stack pointer ``x2`` (Sec. III-C).
        """
        program = Program(source=source)
        raw_instrs: List[_RawInstruction] = []
        code_labels: Dict[str, int] = {}
        data_labels: Dict[str, int] = {}       # name -> offset into data blob
        data_chunks = bytearray()
        data_fixups: List[Tuple[int, int, List[Token]]] = []  # (offset, size, expr)
        data_label_order: List[Tuple[str, int, str]] = []     # (name, offset, dtype)
        equs: List[Tuple[str, List[Token]]] = []
        pending_labels: List[Tuple[str, Token]] = []
        current_c_line = 0

        # ---------------- pass 1 -------------------------------------
        lines = strip_block_comments(source).split("\n")
        for line_no, line_text in enumerate(lines, start=1):
            tokens = tokenize_line(line_text, line_no)
            pos = 0
            while pos < len(tokens) and tokens[pos].kind is TokenKind.LABEL_DEF:
                pending_labels.append((tokens[pos].value, tokens[pos]))
                pos += 1
            if pos >= len(tokens):
                continue
            head = tokens[pos]
            rest = tokens[pos + 1:]

            if head.kind is TokenKind.DIRECTIVE:
                current_c_line = self._directive(
                    head, rest, line_text,
                    pending_labels, code_labels, data_labels,
                    data_chunks, data_fixups, data_label_order, equs,
                    current_c_line,
                )
                continue

            if head.kind is not TokenKind.SYMBOL:
                raise AsmSyntaxError(
                    f"expected instruction or directive, found {head.text!r}",
                    head.line, head.column)

            # instruction: bind pending labels to the next code address
            for name, tok in pending_labels:
                if name in code_labels or name in data_labels:
                    raise AsmSyntaxError(f"duplicate label '{name}'",
                                         tok.line, tok.column)
                code_labels[name] = len(raw_instrs) * 4
            pending_labels.clear()

            groups = _split_operands(rest)
            for mnemonic, op_groups in _expand(head, groups, line_text):
                definition = self.iset.get(mnemonic)
                if definition is None:
                    raise AsmSyntaxError(
                        f"unknown instruction '{mnemonic}'", head.line, head.column)
                raw_instrs.append(_RawInstruction(
                    definition, op_groups, head.line, head.column,
                    line_text.strip(), current_c_line))

        for name, tok in pending_labels:  # trailing labels bind past the end
            code_labels[name] = len(raw_instrs) * 4
        pending_labels.clear()

        # ---------------- layout between passes ----------------------
        labels: Dict[str, int] = dict(code_labels)
        address = _align(stack_size, data_alignment)
        program.stack_pointer = stack_size
        blob = bytearray()
        base = address
        for loc in memory_locations:
            alignment = max(1, int(getattr(loc, "alignment", 1)))
            pad = _align(base + len(blob), alignment) - (base + len(blob))
            blob.extend(b"\x00" * pad)
            loc_bytes = loc.to_bytes()
            addr = base + len(blob)
            labels[loc.name] = addr
            program.symbols.append(DataSymbol(
                name=loc.name, address=addr, size=len(loc_bytes),
                element_size=getattr(loc, "element_size", 1),
                dtype=getattr(loc, "dtype", "byte")))
            blob.extend(loc_bytes)
        # program .data follows the memory-settings arrays
        pad = _align(base + len(blob), data_alignment) - (base + len(blob))
        blob.extend(b"\x00" * pad)
        data_start = base + len(blob)
        for name, offset in data_labels.items():
            labels[name] = data_start + offset
        blob.extend(data_chunks)
        program.data = blob
        program.data_base = base

        # symbols for source-defined data (sized up to the next label)
        ordered = sorted(data_label_order, key=lambda item: item[1])
        for i, (name, offset, dtype) in enumerate(ordered):
            end = ordered[i + 1][1] if i + 1 < len(ordered) else len(data_chunks)
            program.symbols.append(DataSymbol(
                name=name, address=data_start + offset,
                size=max(0, end - offset), dtype=dtype))

        # ---------------- pass 2 -------------------------------------
        for name, expr_tokens in equs:
            labels[name] = int(evaluate_operand(expr_tokens, labels))

        for offset, size, expr_tokens in data_fixups:
            value = int(evaluate_operand(expr_tokens, labels))
            pos = (data_start - base) + offset
            program.data[pos:pos + size] = (value & ((1 << (8 * size)) - 1)) \
                .to_bytes(size, "little")

        for index, raw in enumerate(raw_instrs):
            operands = self._resolve_operands(raw, index * 4, labels)
            program.instructions.append(ParsedInstruction(
                index=index, definition=raw.definition, operands=operands,
                source_line=raw.line, source_text=raw.text, c_line=raw.c_line))

        program.labels = labels
        program.entry_pc = self._entry_pc(entry, labels, len(raw_instrs))
        return program

    # ------------------------------------------------------------------
    def _entry_pc(self, entry: Optional[object], labels: Dict[str, int],
                  n_instrs: int) -> int:
        if entry is None:
            return 0
        if isinstance(entry, int):
            pc = entry
        else:
            if entry not in labels:
                raise AsmSyntaxError(f"entry point label '{entry}' not found")
            pc = labels[entry]
        if pc & 3 or pc < 0 or pc >= max(4, n_instrs * 4):
            raise AsmSyntaxError(f"entry point {pc:#x} is not a valid instruction")
        return pc

    # ------------------------------------------------------------------
    def _directive(self, head: Token, rest: List[Token], line_text: str,
                   pending_labels, code_labels, data_labels,
                   data_chunks: bytearray, data_fixups, data_label_order,
                   equs, current_c_line: int) -> int:
        name = head.value

        def bind_labels(dtype: str) -> None:
            for lbl, tok in pending_labels:
                if lbl in code_labels or lbl in data_labels:
                    raise AsmSyntaxError(f"duplicate label '{lbl}'",
                                         tok.line, tok.column)
                data_labels[lbl] = len(data_chunks)
                data_label_order.append((lbl, len(data_chunks), dtype))
            pending_labels.clear()

        groups = _split_operands(rest)

        if name in (".text", ".data", ".rodata", ".bss", ".section"):
            return current_c_line  # single flat data segment; sections are cosmetic
        if name in _IGNORED_DIRECTIVES:
            return current_c_line
        if name == ".loc":  # C<->assembly line link: ".loc <file> <line>"
            ints = [t for g in groups for t in g
                    if t.kind is TokenKind.INTEGER]
            if len(ints) >= 2:
                return int(ints[1].value)
            if ints:
                return int(ints[0].value)
            return current_c_line

        if name in (".equ", ".set"):
            if len(groups) != 2 or len(groups[0]) != 1 \
                    or groups[0][0].kind is not TokenKind.SYMBOL:
                raise AsmSyntaxError(".equ expects 'name, expression'",
                                     head.line, head.column)
            equs.append((groups[0][0].value, groups[1]))
            return current_c_line

        if name in (".align", ".p2align"):
            bind_labels("align")
            power = _const_operand(groups, head)
            alignment = 1 << power
            pad = _align(len(data_chunks), alignment) - len(data_chunks)
            data_chunks.extend(b"\x00" * pad)
            return current_c_line
        if name == ".balign":
            bind_labels("align")
            alignment = _const_operand(groups, head)
            pad = _align(len(data_chunks), max(1, alignment)) - len(data_chunks)
            data_chunks.extend(b"\x00" * pad)
            return current_c_line

        if name in (".skip", ".zero", ".space"):
            bind_labels("byte")
            count = _const_operand(groups, head)
            if count < 0:
                raise AsmSyntaxError(f"negative size in {name}",
                                     head.line, head.column)
            data_chunks.extend(b"\x00" * count)
            return current_c_line

        if name in (".ascii", ".asciiz", ".string"):
            bind_labels("ascii")
            for group in groups:
                if len(group) != 1 or group[0].kind is not TokenKind.STRING:
                    raise AsmSyntaxError(f"{name} expects string literal(s)",
                                         head.line, head.column)
                data_chunks.extend(group[0].value.encode("latin-1"))
                if name in (".asciiz", ".string"):
                    data_chunks.append(0)
            return current_c_line

        if name == ".float":
            bind_labels("float")
            for group in groups:
                value = _float_operand(group, head)
                data_chunks.extend(struct.pack("<f", value))
            return current_c_line
        if name == ".double":
            bind_labels("double")
            for group in groups:
                value = _float_operand(group, head)
                data_chunks.extend(struct.pack("<d", value))
            return current_c_line

        if name in _DATA_DIRECTIVES:
            size = _DATA_DIRECTIVES[name]
            bind_labels(name.lstrip("."))
            for group in groups:
                if not group:
                    raise AsmSyntaxError(f"empty operand in {name}",
                                         head.line, head.column)
                literal = _maybe_int(group)
                if literal is None:
                    data_fixups.append((len(data_chunks), size, group))
                    data_chunks.extend(b"\x00" * size)
                else:
                    data_chunks.extend(
                        (literal & ((1 << (8 * size)) - 1)).to_bytes(size, "little"))
            return current_c_line

        raise AsmSyntaxError(f"unsupported directive '{name}'",
                             head.line, head.column)

    # ------------------------------------------------------------------
    def _resolve_operands(self, raw: _RawInstruction, pc: int,
                          labels: Dict[str, int]) -> Dict[str, object]:
        definition = raw.definition
        groups = raw.groups
        args = definition.arguments

        if definition.mem_operand:
            if len(groups) != 2:
                raise AsmSyntaxError(
                    f"'{definition.name}' expects 'reg, offset(base)'",
                    raw.line, raw.column)
            reg = _register_operand(groups[0], args[0])
            offset_tokens, base_reg = _split_mem_operand(groups[1])
            imm_val = _value_operand(offset_tokens, labels) if offset_tokens else 0
            base = _register_operand([base_reg], args[2]) if base_reg else "x0"
            self._check_imm_range(definition.name, imm_val, raw)
            return {args[0].name: reg, "imm": imm_val, "rs1": base}

        # jalr also accepts the 'rd, offset(base)' form
        if definition.name == "jalr" and len(groups) == 2 \
                and any(t.kind is TokenKind.LPAREN for t in groups[1]):
            reg = _register_operand(groups[0], args[0])
            offset_tokens, base_reg = _split_mem_operand(groups[1])
            imm_val = _value_operand(offset_tokens, labels) if offset_tokens else 0
            base = _register_operand([base_reg], args[1]) if base_reg else "x0"
            return {"rd": reg, "rs1": base, "imm": imm_val}

        if len(groups) != len(args):
            raise AsmSyntaxError(
                f"'{definition.name}' expects {len(args)} operand(s), "
                f"got {len(groups)}", raw.line, raw.column)

        operands: Dict[str, object] = {}
        for arg, group in zip(args, groups):
            if arg.is_register:
                operands[arg.name] = _register_operand(group, arg)
            elif arg.type is ArgType.LABEL:
                offset = _value_operand(group, labels) - pc
                self._check_imm_range(definition.name, offset, raw, branch=True)
                operands[arg.name] = offset
            else:
                value = _value_operand(group, labels)
                self._check_imm_range(definition.name, value, raw)
                operands[arg.name] = value
        return operands

    @staticmethod
    def _check_imm_range(name: str, value: int, raw: _RawInstruction,
                         branch: bool = False) -> None:
        if branch:
            limit = 1 << 20 if name == "jal" else 1 << 12
            if not (-limit <= value < limit):
                raise AsmSyntaxError(
                    f"branch target out of range for '{name}' ({value})",
                    raw.line, raw.column)
            return
        if name in _IMM12 and not (-2048 <= value <= 2047):
            raise AsmSyntaxError(
                f"immediate {value} out of 12-bit range for '{name}'",
                raw.line, raw.column)
        if name in _SHAMT and not (0 <= value <= 31):
            raise AsmSyntaxError(
                f"shift amount {value} out of range for '{name}'",
                raw.line, raw.column)
        if name in _IMM20 and not (0 <= value <= 0xFFFFF):
            raise AsmSyntaxError(
                f"immediate {value} out of 20-bit range for '{name}'",
                raw.line, raw.column)


# ----------------------------------------------------------------------
def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


def _split_operands(tokens: List[Token]) -> List[List[Token]]:
    """Split a token list into comma-separated operand groups."""
    groups: List[List[Token]] = []
    current: List[Token] = []
    depth = 0
    for tok in tokens:
        kind = tok.kind
        if kind is TokenKind.COMMA and depth == 0:
            if not current:
                _reject_empty(tokens)
            groups.append(current)
            current = []
            continue
        if kind is TokenKind.LPAREN:
            depth += 1
        elif kind is TokenKind.RPAREN:
            depth -= 1
        current.append(tok)
    if groups and not current:
        _reject_empty(tokens)
    if current:
        groups.append(current)
    return groups


def _reject_empty(tokens: List[Token]) -> None:
    raise AsmSyntaxError("empty operand (stray comma)",
                         tokens[0].line, tokens[0].column)


def _rebase(group: List[Token]) -> List[Token]:
    """*group* with columns counted from its first token, as operand
    errors report them."""
    base = group[0].column - 1
    if not base:
        return group
    return [Token(t.kind, t.text, t.line, t.column - base, t.value)
            for t in group]


def _expand(head: Token, groups: List[List[Token]],
            line_text: str) -> List[Tuple[str, List[List[Token]]]]:
    """Pseudo-instruction expansion over operand token groups: operands
    that :func:`expand_pseudo` passes through keep their tokens; only the
    ones it synthesizes (``x0``, ``0``, ``%hi(...)``) are tokenized."""
    mnemonic = head.value
    if mnemonic not in PSEUDO_MNEMONICS and not (
            mnemonic in ("jal", "jalr") and len(groups) == 1):
        return [(mnemonic, [_rebase(g) for g in groups])]
    texts = [_group_text(line_text, g) for g in groups]
    tokens_of = dict(zip(texts, map(_rebase, groups)))
    return [(name, [tokens_of[text] if text in tokens_of
                    else tokenize_line(text, head.line) for text in ops])
            for name, ops in expand_pseudo(mnemonic, texts, head.line,
                                           head.column)]


def _group_text(line_text: str, group: List[Token]) -> str:
    """Original source substring covered by an operand token group."""
    start = group[0].column - 1
    last = group[-1]
    end = last.column - 1 + len(last.text)
    return line_text[start:end]


def _value_operand(group: List[Token], labels: Dict[str, int]) -> int:
    """Integer value of an operand expression; a lone integer or known
    label skips the expression parser."""
    if len(group) == 1:
        tok = group[0]
        if tok.kind is TokenKind.INTEGER:
            return tok.value
        if tok.text in labels:
            return labels[tok.text]
    return int(evaluate_operand(group, labels))


def _register_operand(group: List[Token], arg) -> str:
    if len(group) != 1 or group[0].kind is not TokenKind.SYMBOL:
        tok = group[0]
        raise AsmSyntaxError(
            f"expected register for '{arg.name}'", tok.line, tok.column)
    tok = group[0]
    if arg.type is ArgType.FLOAT:
        reg = canonical_fp_reg(tok.value)
        if reg is None:
            raise AsmSyntaxError(
                f"expected floating-point register, found '{tok.value}'",
                tok.line, tok.column)
        return reg
    reg = canonical_int_reg(tok.value)
    if reg is None:
        raise AsmSyntaxError(
            f"expected integer register, found '{tok.value}'",
            tok.line, tok.column)
    return reg


def _split_mem_operand(group: List[Token]):
    """Split ``offset(base)`` into (offset tokens, base register token)."""
    if group and group[-1].kind is TokenKind.RPAREN:
        depth = 0
        for i in range(len(group) - 1, -1, -1):
            if group[i].kind is TokenKind.RPAREN:
                depth += 1
            elif group[i].kind is TokenKind.LPAREN:
                depth -= 1
                if depth == 0:
                    inside = group[i + 1:-1]
                    if len(inside) == 1 and inside[0].kind is TokenKind.SYMBOL \
                            and (canonical_int_reg(inside[0].value)
                                 or canonical_fp_reg(inside[0].value)):
                        return group[:i], inside[0]
                    break
    return group, None


def _const_operand(groups: List[List[Token]], head: Token) -> int:
    if len(groups) != 1:
        raise AsmSyntaxError(f"'{head.value}' expects one constant operand",
                             head.line, head.column)
    value = _maybe_int(groups[0])
    if value is None:
        raise AsmSyntaxError(f"'{head.value}' operand must be a constant",
                             head.line, head.column)
    return value


def _float_operand(group: List[Token], head: Token) -> float:
    from repro.asm.exprs import try_literal
    value = try_literal(group)
    if value is None:
        raise AsmSyntaxError(f"'{head.value}' operand must be a numeric constant",
                             head.line, head.column)
    return float(value)


def _maybe_int(group: List[Token]) -> Optional[int]:
    from repro.asm.exprs import try_literal
    value = try_literal(group)
    if value is None or isinstance(value, float):
        return None if value is None else int(value)
    return int(value)


def assemble(source: str, entry: Optional[object] = None,
             memory_locations: Sequence[object] = (),
             stack_size: int = 512,
             instruction_set: Optional[InstructionSet] = None) -> Program:
    """Convenience wrapper around :class:`Assembler`."""
    return Assembler(instruction_set).assemble(
        source, entry=entry, memory_locations=memory_locations,
        stack_size=stack_size)
