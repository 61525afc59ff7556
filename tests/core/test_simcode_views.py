"""Frozen operand views of in-flight instructions.

The step loop keeps only captured operand values and the source tags on a
:class:`~repro.core.simcode.SimCode`; the ``operands`` / ``renamed_sources``
views (and the ``operands`` / ``renamedSources`` keys of ``to_json()``)
are derived from them when a payload or a pop-up asks.  This pins those
views, captured from a pipeline that stored them eagerly, for one
instruction in each life stage:

* ``fetched``: in the fetch buffer, not yet renamed;
* ``pending``: dispatched with a source waiting on a rename tag;
* ``woken``: the same kind of source after its producer's wake-up;
* ``squashed``: flushed by a mispredicted branch;

plus a digest of every fetch-buffer and ROB payload over the first
cycles, and the pop-up text (``renamed: tN``) of each picked instruction.
Regenerate only after an intentional change to the payload::

    PYTHONPATH=src python tests/core/test_simcode_views.py --regen
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import pytest

from repro import Simulation
from repro.viz.instruction import render_instruction_popup

REFERENCE_PATH = pathlib.Path(__file__).resolve().with_name(
    "simcode_views.json")

SOURCE = """
main:
    li   t0, 7
    li   t1, 3
    div  t2, t0, t1
    add  t3, t2, t0
    mul  t4, t3, t3
    li   s0, 0
    li   s1, 4
loop:
    addi s0, s0, 1
    blt  s0, s1, loop
    add  a0, s0, t4
    fcvt.s.w fa0, a0
    fadd.s fa1, fa0, fa0
    ebreak
"""

CYCLES = 40
STAGES = ("fetched", "pending", "woken", "squashed")


def _stage(sc) -> str:
    data = sc.to_json()
    if data["squashed"]:
        return "squashed"
    if "dispatch" not in data["timestamps"]:
        return "fetched"
    ready = [op["ready"] for op in data["operands"].values()]
    if not all(ready):
        return "pending"
    if data["renamedSources"]:
        return "woken"
    return "other"


def record() -> dict:
    sim = Simulation.from_source(SOURCE, entry="main")
    cpu = sim.cpu
    picked: dict = {}
    seen: dict = {}
    digests = []
    for _ in range(CYCLES):
        sim.step(1)
        live = list(cpu.fetch_buffer) + list(cpu.rob)
        for sc in live:
            seen[sc.id] = sc
        payload = [sc.to_json() for sc in live]
        digests.append(hashlib.sha256(json.dumps(
            payload).encode()).hexdigest()[:16])
        for sc in seen.values():
            stage = _stage(sc)
            if stage in STAGES and stage not in picked:
                data = sc.to_json()
                picked[stage] = {
                    "cycle": sim.cycle,
                    # serialized as served: key order is part of it
                    "json": json.dumps(data),
                    "popup": render_instruction_popup(sc),
                }
        if sim.halted:
            break
    return {"picked": picked, "digests": digests}


@pytest.fixture(scope="module")
def reference() -> dict:
    assert REFERENCE_PATH.exists(), \
        "simcode_views.json missing - regenerate with --regen"
    return json.loads(REFERENCE_PATH.read_text())


@pytest.fixture(scope="module")
def actual() -> dict:
    return record()


def test_every_stage_is_reached(reference: dict):
    assert sorted(reference["picked"]) == sorted(STAGES)
    pending = json.loads(reference["picked"]["pending"]["json"])
    assert any(not op["ready"] and op["value"].startswith("t")
               for op in pending["operands"].values())


@pytest.mark.parametrize("stage", STAGES)
def test_operand_views_match(stage: str, reference: dict, actual: dict):
    want = reference["picked"][stage]
    got = actual["picked"][stage]
    assert got["cycle"] == want["cycle"]
    got_json, want_json = json.loads(got["json"]), json.loads(want["json"])
    assert got_json["operands"] == want_json["operands"]
    assert got_json["renamedSources"] == want_json["renamedSources"]
    assert got["json"] == want["json"]
    assert got["popup"] == want["popup"]


def test_popup_names_the_rename_tag(actual: dict):
    for stage in ("pending", "woken"):
        assert "(renamed: t" in actual["picked"][stage]["popup"]


def test_payload_digests_match(reference: dict, actual: dict):
    assert actual["digests"] == reference["digests"]


if __name__ == "__main__":
    if "--regen" in sys.argv:
        REFERENCE_PATH.write_text(json.dumps(record(), indent=1,
                                             sort_keys=True) + "\n")
        print(f"wrote {REFERENCE_PATH}")
    else:
        print(__doc__)
