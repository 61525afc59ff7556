"""Front-end cost of a cold job: compile, assemble and decode.

Per golden C program (quicksort and linked_list at O0-O3, the C half of
the golden set) three layers run before the first simulated cycle:

* **compile** — ``compile_c``: C source to assembly;
* **assemble** — ``Assembler.assemble``: assembly to a ``Program``;
* **decode** — ``decode_program``: one ``DecodedOp`` per instruction.

Each is reported in microseconds per line of its input (C lines, assembly
lines, instructions) as the minimum over interleaved rounds of
``time.process_time`` with gc paused.  Every round submits the C source
with a fresh trailing comment, as a cold job would, so nothing is served
from a cache.  Report only: there is no floor.  ``BENCH_frontend.json``
pins parent/change figures measured interleaved on one host.  Run with
``-s`` to see the table, or ``python benchmarks/test_frontend_cost.py`` for
the JSON.
"""

import gc
import importlib.util
import json
import pathlib
import sys
import time

from repro.asm.parser import Assembler
from repro.compiler.driver import compile_c
from repro.core.decoded import decode_program
from repro.memory.layout import MemoryLocation

ROOT = pathlib.Path(__file__).resolve().parents[1]
BASELINE = pathlib.Path(__file__).with_name("BENCH_frontend.json")
ROUNDS = 3
LAYERS = ("compile", "assemble", "decode")


def _example_attr(module_name: str, attr: str):
    spec = importlib.util.spec_from_file_location(
        f"frontend_{module_name}", ROOT / "examples" / f"{module_name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, attr)


def programs() -> dict:
    """name -> (C source, opt level, memory locations)."""
    quicksort = _example_attr("quicksort", "QUICKSORT_C")
    values = _example_attr("quicksort", "VALUES")
    linked_list = _example_attr("linked_list", "LINKED_LIST_C")
    data = [MemoryLocation(name="data", dtype="word", alignment=4,
                           values=values)]
    out = {}
    for level in range(4):
        out[f"quicksort_O{level}"] = (quicksort, level, data)
    for level in range(4):
        out[f"linked_list_O{level}"] = (linked_list, level, [])
    return out


def _timed(fn):
    gc.disable()
    try:
        start = time.process_time()
        result = fn()
        return result, time.process_time() - start
    finally:
        gc.enable()


def measure(rounds: int = ROUNDS) -> dict:
    best: dict = {}
    sizes: dict = {}
    for round_no in range(rounds):
        for name, (c_source, level, memory) in programs().items():
            source = f"{c_source}\n/* frontend {round_no} */\n"
            compiled, c_s = _timed(lambda: compile_c(source, level))
            assert compiled.success, compiled.errors
            program, a_s = _timed(lambda: Assembler().assemble(
                compiled.assembly, entry="main", memory_locations=memory))
            decoded, d_s = _timed(lambda: decode_program(program))
            sizes[name] = {"cLines": source.count("\n") + 1,
                           "asmLines": compiled.assembly.count("\n") + 1,
                           "instructions": len(decoded)}
            row = best.setdefault(name, {layer: float("inf")
                                         for layer in LAYERS})
            for layer, seconds in zip(LAYERS, (c_s, a_s, d_s)):
                row[layer] = min(row[layer], seconds)
    rows = {}
    for name, row in best.items():
        size = sizes[name]
        rows[name] = {
            **size,
            "compileUsPerLine": 1e6 * row["compile"] / size["cLines"],
            "assembleUsPerLine": 1e6 * row["assemble"] / size["asmLines"],
            "decodeUsPerInstruction": 1e6 * row["decode"]
            / size["instructions"],
            "totalMs": 1e3 * sum(row.values()),
        }
    return rows


def test_frontend_cost_per_line():
    rows = measure()
    print(f"\n{'program':<16}{'C lines':>8}{'asm lines':>10}"
          f"{'compile':>10}{'assemble':>10}{'decode':>9}{'total':>9}")
    print(f"{'':<34}{'us/line':>10}{'us/line':>10}{'us/ins':>9}{'ms':>9}")
    for name, row in rows.items():
        print(f"{name:<16}{row['cLines']:>8}{row['asmLines']:>10}"
              f"{row['compileUsPerLine']:>10.1f}"
              f"{row['assembleUsPerLine']:>10.1f}"
              f"{row['decodeUsPerInstruction']:>9.1f}"
              f"{row['totalMs']:>9.2f}")
    assert all(row["totalMs"] > 0 for row in rows.values())


def test_baseline_file_is_committed_and_consistent():
    """BENCH_frontend.json covers every program, on both sides."""
    baseline = json.loads(BASELINE.read_text())
    names = set(programs())
    for side in ("parent", "change"):
        assert set(baseline["measured"][side]) == names, side
    for name in names:
        row = baseline["measured"]["change"][name]
        assert row["asmLines"] > 0 and row["instructions"] > 0


if __name__ == "__main__":
    print(json.dumps(measure(int(sys.argv[1]) if len(sys.argv) > 1
                             else ROUNDS), indent=1))
