"""The benchmark's program set and the expectations its outputs are checked
against.

The golden programs are the ten cases of
``tests/integration/test_golden_determinism.py::CASES`` (sum_loop,
polymorphism, quicksort O0-O3, linked_list O0-O3) plus ``sum_loop_10k``,
the 10k-iteration hot loop of ``benchmarks/test_hotloop.py``.  Sources come
from the ``examples/`` scripts exactly as the golden suite loads them, and
every program carries the memory layout the golden suite runs it with.

Expectations:

* the ten golden cases: ``tests/integration/golden_determinism.json``
  (read, never written);
* ``sum_loop_10k`` and the fleet sweep's serial-reference record digests:
  ``perfbench/expected.json``, written by ``python3 perfbench/pin.py``
  from a trace-off interpreter run and a serial ``run_sweep``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import pathlib
from typing import Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = ROOT / "examples"
GOLDEN_PATH = ROOT / "tests" / "integration" / "golden_determinism.json"
EXPECTED_PATH = pathlib.Path(__file__).resolve().with_name("expected.json")

SUM_LOOP = """
    li a0, 0
    li t0, 1
    li t1, 200
loop:
    add a0, a0, t0
    addi t0, t0, 1
    ble t0, t1, loop
    ebreak
"""

SUM_LOOP_10K = SUM_LOOP.replace("li t1, 200", "li t1, 10000")

#: the fleet sweep's config grid: fetch/commit width x ROB size around the
#: default core (labels are what records carry)
FLEET_AXES = [
    {"name": "width", "labels": ["w2", "w4"], "values": [
        {"config.buffers.fetchWidth": 2, "config.buffers.commitWidth": 2},
        {"config.buffers.fetchWidth": 4, "config.buffers.commitWidth": 4}]},
    {"name": "rob", "path": "config.buffers.robSize", "values": [16, 64]},
]

#: stack size of the fleet sweep's shared base config (the largest any
#: golden program needs)
FLEET_STACK = 4096


def _example_attr(module_name: str, attr: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{module_name}", EXAMPLES / f"{module_name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, attr)


class Program:
    """One golden program: source, layout, and how it is submitted."""

    def __init__(self, name: str, *, asm: Optional[str] = None,
                 c: Optional[str] = None, level: int = 1,
                 entry: Optional[str] = None, memory: tuple = (),
                 stack: int = 512):
        self.name = name
        self.asm = asm
        self.c = c
        self.level = level
        self.entry = entry
        self.memory = [dict(m) for m in memory]
        self.stack = stack

    def source(self, salt: str = "") -> str:
        """The program text; a non-empty *salt* appends a comment, which
        changes every content key (compile, assemble, data plane) but never
        the compiled instructions."""
        text = self.c if self.c is not None else self.asm
        if not salt:
            return text
        if self.c is not None:
            return f"{text}\n/* perfbench {salt} */\n"
        return f"{text}\n# perfbench {salt}\n"

    def spec(self, salt: str = "") -> dict:
        """``ProgramSpec`` JSON (sweep specs and job payloads)."""
        data: dict = {"name": self.name}
        if self.c is not None:
            data["c"] = self.source(salt)
            data["optimizeLevel"] = self.level
        else:
            data["source"] = self.source(salt)
        if self.entry is not None:
            data["entry"] = self.entry
        if self.memory:
            data["memory"] = [dict(m) for m in self.memory]
        return data

    def config_json(self) -> dict:
        from repro.core.config import CpuConfig
        config = CpuConfig()
        config.memory.call_stack_size = self.stack
        return config.to_json()

    def payload(self, salt: str = "") -> dict:
        """A one-job payload for ``execute_payload`` on the default core."""
        return {"program": self.spec(salt), "config": self.config_json()}


def golden_programs() -> List[Program]:
    """The eleven programs, in a fixed canonical order."""
    quicksort = _example_attr("quicksort", "QUICKSORT_C")
    values = _example_attr("quicksort", "VALUES")
    linked_list = _example_attr("linked_list", "LINKED_LIST_C")
    polymorphism = _example_attr("polymorphism", "POLYMORPHISM_ASM")
    data = {"name": "data", "dtype": "word", "alignment": 4,
            "values": list(values)}
    programs = [Program("sum_loop", asm=SUM_LOOP),
                Program("sum_loop_10k", asm=SUM_LOOP_10K),
                Program("polymorphism", asm=polymorphism, entry="main")]
    for level in range(4):
        programs.append(Program(f"quicksort_O{level}", c=quicksort,
                                level=level, entry="main", memory=(data,),
                                stack=4096))
    for level in range(4):
        programs.append(Program(f"linked_list_O{level}", c=linked_list,
                                level=level, entry="main", stack=2048))
    return programs


def fleet_programs(programs: List[Program]) -> List[Program]:
    """The golden C programs, longest-running first so the fleet's
    in-order dispatch starts the long jobs early."""
    c_programs = [p for p in programs if p.c is not None]
    order = ["quicksort_O0", "quicksort_O1", "quicksort_O2", "quicksort_O3",
             "linked_list_O0", "linked_list_O1", "linked_list_O2",
             "linked_list_O3"]
    return sorted(c_programs, key=lambda p: order.index(p.name))


def fleet_spec(programs: List[Program], salt: str = "",
               value_orders: Optional[List[List[int]]] = None) -> dict:
    """The fleet sweep spec.  *value_orders* permutes each axis's values
    (the seeded config-grid order); labels, and so records, do not move."""
    axes = []
    for position, axis in enumerate(FLEET_AXES):
        order = (value_orders[position] if value_orders
                 else list(range(len(axis["values"]))))
        moved = {key: value for key, value in axis.items()
                 if key not in ("values", "labels")}
        moved["values"] = [axis["values"][i] for i in order]
        if "labels" in axis:
            moved["labels"] = [axis["labels"][i] for i in order]
        axes.append(moved)
    from repro.core.config import CpuConfig
    base = CpuConfig()
    base.memory.call_stack_size = FLEET_STACK
    return {"name": "perfbench-fleet",
            "programs": [p.spec(salt) for p in fleet_programs(programs)],
            "config": base.to_json(), "axes": axes}


# -- expectations ------------------------------------------------------------
def fingerprint(simulation) -> dict:
    """Cycle counts plus digests of the final architectural state (the
    golden suite's fingerprint, computed on a finished simulation)."""
    cpu = simulation.cpu
    regs = cpu.arch_regs.snapshot()
    reg_blob = json.dumps(regs, sort_keys=True, default=repr)
    return {
        "haltReason": cpu.halted,
        "cycles": cpu.cycle,
        "committed": cpu.committed,
        "a0": repr(simulation.register_value("a0")),
        "registersSha256": hashlib.sha256(reg_blob.encode()).hexdigest(),
        "memorySha256": hashlib.sha256(bytes(cpu.memory.data)).hexdigest(),
    }


def record_digest(record: dict) -> str:
    """Digest of a sweep record without its grid position (the seeded
    config-grid order moves indices, never contents)."""
    body = {key: value for key, value in record.items() if key != "index"}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()).hexdigest()


def load_expected() -> dict:
    """``{"fingerprints": {program: fingerprint}, "fleetRecords":
    {label: digest}}`` for all eleven programs and the whole fleet grid."""
    goldens = json.loads(GOLDEN_PATH.read_text())
    pinned = json.loads(EXPECTED_PATH.read_text())
    fingerprints: Dict[str, dict] = dict(pinned["fingerprints"])
    fingerprints.update(goldens)
    return {"fingerprints": fingerprints,
            "fleetRecords": pinned["fleetRecords"]}
