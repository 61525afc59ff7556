"""Frozen assembler reference: program digests and error positions.

Every input below is assembled and reduced to a digest of the resulting
:class:`~repro.asm.program.Program` (each instruction's mnemonic, resolved
operands, source line, source text and C line; the label table; the data
segment; the symbol table; entry pc and stack pointer) or, for malformed
input, to the error's type, message, line and column.  Inputs:

* the golden C programs (quicksort, linked_list) compiled at O0-O3; the
  compiled assembly's own digest is pinned too, so compiler drift shows
  up apart from assembler drift.  The compiler numbers its labels from a
  process-wide counter, so its output depends on what the process
  compiled before; the eight programs are therefore compiled once, in
  case order, from a fresh counter (see :func:`_compiled`);
* the assembly listings of the examples and of the pipeline reference;
* a set of malformed listings, one per diagnostic the editor shows.

``assembler_reference.json`` pins all of it.  To regenerate after an
*intentional* change to what the assembler produces::

    PYTHONPATH=src python tests/asm/test_assembler_reference.py --regen

and commit the diff with an explanation of which entries moved and why.
"""

from __future__ import annotations

import ast
import hashlib
import itertools
import json
import pathlib
import sys

import pytest

from repro.asm.parser import Assembler
from repro.compiler.driver import compile_c
from repro.errors import ReproError
from repro.memory.layout import MemoryLocation

ROOT = pathlib.Path(__file__).resolve().parents[2]
REFERENCE_PATH = pathlib.Path(__file__).resolve().with_name(
    "assembler_reference.json")


def _module_constant(path: pathlib.Path, name: str):
    """A module-level literal from a script, read without running it."""
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise KeyError(f"{name} not found in {path}")


def _example(module: str, name: str):
    return _module_constant(ROOT / "examples" / f"{module}.py", name)


def _pipeline_program(name: str) -> str:
    tree = ast.parse(
        (ROOT / "tests" / "core" / "test_pipeline_reference.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "PROGRAMS"
                for t in node.targets):
            return ast.literal_eval(node.value)[name]
    raise KeyError("PROGRAMS")


#: malformed listings, one per diagnostic (name -> source)
MALFORMED = {
    "unknown_mnemonic": "    addi a0, a0, 1\n    frobnicate a0, a1\n",
    "stray_comma": "    add a0, , a1\n",
    "trailing_comma": "    add a0, a1, a2,\n",
    "bad_register": "    add a0, a1, q9\n",
    "bad_fp_register": "    fadd.s fa0, a1, fa2\n",
    "imm_out_of_range": "    addi a0, zero, 4096\n",
    "shift_out_of_range": "    slli a0, a0, 32\n",
    "duplicate_label": "here:\n    nop\nhere:\n    nop\n",
    "bad_escape": '    .data\ns:  .string "ab\\xZ"\n',
    "unterminated_string": '    .data\ns:  .asciiz "abc\n',
    "undefined_label": "    j nowhere\n",
    "operand_count": "    add a0, a1\n",
    "pseudo_operand_count": "    mv a0\n",
    "unexpected_character": "    addi a0, a0, 1 ~ 2\n",
    "unsupported_directive": "    .frobnicate 4\n",
    "mem_operand_form": "    lw a0, a1\n",
    "trailing_junk": "    addi a0, a0, 1 2\n",
    "lui_out_of_range": "    lui a0, -1\n",
    "branch_out_of_range": "    beq a0, a1, 8192\n",
}

#: block comments next to strings and line comments (comment-stripping
#: edge cases)
COMMENTS = {
    "block_comment_in_string": ('    .data\nmsg: .asciiz "x/*y*/z"\n'
                                "    .text\nmain:\n    la a0, msg\n"
                                "    ebreak\n"),
    "block_open_in_line_comment": ("main:\n    li a0, 1 # see /* here\n"
                                   "    li a1, 2\n    li a2, 3\n"
                                   "    ebreak\n"),
    "block_open_in_string": ('    .data\ns: .string "a/*b"\n    .text\n'
                             "main:\n    ebreak\n"),
    "block_comments_multiline": ("main: /* entry\n   spans lines */ li a0, 1\n"
                                 "    /* one */ addi a0, a0, /* two */ 2\n"
                                 "    ebreak /* tail\n*/\n"),
    "block_comment_unterminated": "main:\n    li a0, 1\n/* never closed\n"
                                  "    li a1, 2\n",
}


def _c_cases():
    quicksort = _example("quicksort", "QUICKSORT_C")
    values = _example("quicksort", "VALUES")
    linked_list = _example("linked_list", "LINKED_LIST_C")
    cases = {}
    for level in range(4):
        cases[f"c/quicksort_O{level}"] = dict(
            c=quicksort, level=level, entry="main",
            memory=[MemoryLocation(name="data", dtype="word", alignment=4,
                                   values=values)])
        cases[f"c/linked_list_O{level}"] = dict(
            c=linked_list, level=level, entry="main")
    return cases


def _asm_cases():
    cases = {
        "asm/polymorphism": dict(
            asm=_example("polymorphism", "POLYMORPHISM_ASM"), entry="main"),
        "asm/quickstart": dict(asm=_example("quickstart", "SOURCE")),
    }
    for name in ("branchy", "store_load", "fp_kernel"):
        cases[f"asm/{name}"] = dict(asm=_pipeline_program(name), entry="main")
    for name, source in COMMENTS.items():
        cases[f"comments/{name}"] = dict(asm=source)
    for name, source in MALFORMED.items():
        cases[f"error/{name}"] = dict(asm=source)
    return cases


CASES = {**_c_cases(), **_asm_cases()}

_ASSEMBLY: dict = {}


def _compiled(case: str) -> str:
    """Compiled assembly of a C case.  All C cases are compiled together,
    in sorted order, with the compiler's label counter restarted at 1 (as
    in a fresh process), so a case's labels never depend on which tests
    ran before it."""
    if not _ASSEMBLY:
        from repro.compiler import ir
        saved = ir._label_counter
        ir._label_counter = itertools.count(1)
        try:
            for name in sorted(CASES):
                spec = CASES[name]
                if "c" in spec:
                    compiled = compile_c(spec["c"], spec["level"])
                    assert compiled.success, compiled.errors
                    _ASSEMBLY[name] = compiled.assembly
        finally:
            ir._label_counter = saved
    return _ASSEMBLY[case]


def _sha(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def program_digest(program) -> dict:
    """Everything the assembler decides, reduced to digests."""
    instructions = [
        [i.mnemonic, list(i.operands.items()), i.source_line,
         i.source_text, i.c_line]
        for i in program.instructions]
    return {
        "instructions": len(instructions),
        "instructionsSha": _sha(instructions),
        "labelsSha": _sha(sorted(program.labels.items())),
        "dataSha": hashlib.sha256(bytes(program.data)).hexdigest()[:16],
        "dataBase": program.data_base,
        "symbolsSha": _sha(program.symbol_table()),
        "entryPc": program.entry_pc,
        "stackPointer": program.stack_pointer,
    }


def record(case: str) -> dict:
    spec = CASES[case]
    out: dict = {}
    source = spec.get("asm")
    if source is None:
        source = _compiled(case)
        out["assemblySha"] = hashlib.sha256(source.encode()).hexdigest()[:16]
    try:
        program = Assembler().assemble(
            source, entry=spec.get("entry"),
            memory_locations=spec.get("memory", ()))
    except ReproError as exc:
        out["error"] = {"type": type(exc).__name__,
                        "message": getattr(exc, "message", str(exc)),
                        "line": getattr(exc, "line", None),
                        "column": getattr(exc, "column", None)}
        return out
    out["program"] = program_digest(program)
    return out


@pytest.fixture(scope="module")
def reference() -> dict:
    assert REFERENCE_PATH.exists(), \
        "assembler_reference.json missing - regenerate with --regen"
    return json.loads(REFERENCE_PATH.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_frozen_reference(case: str, reference: dict):
    assert case in reference, f"no reference for {case} - run --regen"
    assert record(case) == reference[case]


def test_every_malformed_input_is_rejected(reference: dict):
    """The error cases must stay errors, each with a source position."""
    for name in MALFORMED:
        row = reference[f"error/{name}"]
        assert "error" in row, name
        assert row["error"]["line"] >= 1, name


def _regenerate() -> None:
    data = {case: record(case) for case in sorted(CASES)}
    REFERENCE_PATH.write_text(json.dumps(data, indent=1, sort_keys=True)
                              + "\n")
    print(f"wrote {REFERENCE_PATH} ({len(data)} cases)")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
