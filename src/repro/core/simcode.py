"""Dynamic (in-flight) instruction record.

One :class:`SimCode` exists per *executed* instance of a static instruction.
It carries everything the instruction pop-up window displays (Fig. 3):
parameter values, renaming details, validity, flags, and the timestamps of
phase completions (fetch, decode, issue, execute, write-back, commit).
"""

from __future__ import annotations

import enum
import json
from types import MappingProxyType
from typing import Dict, Optional, Tuple

from repro.asm.program import ParsedInstruction
from repro.errors import SimulationException


class Phase(str, enum.Enum):
    """Pipeline phases an instruction passes through."""

    FETCH = "fetch"
    DECODE = "decode"
    DISPATCH = "dispatch"   # entered ROB + issue window
    ISSUE = "issue"         # sent to a functional unit
    EXECUTE = "execute"     # finished executing (result computed)
    WRITEBACK = "writeback"
    COMMIT = "commit"


class SimCode:
    """A dynamic instruction instance travelling through the pipeline.

    Every attribute whose default is immutable lives on the *class*, not
    the instance: a construction (one per fetched instruction — the
    hottest allocation in the simulator) stores only the identity fields
    and the per-instance containers, and a read of a never-written field
    falls through to the class default.  All pipeline mutation sites
    rebind the attribute on the instance (nothing updates these defaults
    in place), so instances never observe each other's state.
    """

    # dirty-tracked payload caches (see repro.sim.state): the pipeline
    # bumps `sver` at every mutation site; to_json / to_json_str rebuild
    # lazily.  Mutation counts are deterministic, so `sver` is a pure
    # function of (instruction id, cycle) along the trajectory and stays
    # comparable across checkpoint restores and replays — which is what
    # lets delta serving skip unchanged entries.
    sver = 0
    _json: Optional[dict] = None
    _json_ver = -1
    _json_str: Optional[str] = None

    squashed = False
    exception: Optional[SimulationException] = None
    # operand capture, written at dispatch: captured source values by
    # argument name, the rename tag of each source that was not ready
    # (in source order), and how many of those are still not ready.
    # ``operands`` / ``renamed_sources`` are derived from these.
    op_values = MappingProxyType({})
    src_tags: Optional[Dict[str, int]] = None
    waiting = 0
    # renaming
    dest_arch: Optional[str] = None
    dest_tag: Optional[int] = None
    # results
    result = None
    # branch bookkeeping
    predicted_taken = False
    predicted_target: Optional[int] = None
    actual_taken: Optional[bool] = None
    actual_target: Optional[int] = None
    mispredicted = False
    pht_index: Optional[int] = None
    # memory bookkeeping
    address: Optional[int] = None
    mem_delay: Optional[int] = None
    store_data: Optional[bytes] = None
    # execution bookkeeping
    fu_name: Optional[str] = None
    finish_cycle: Optional[int] = None

    def __init__(self, uid: int, instruction: ParsedInstruction,
                 dop=None):
        self.id = uid
        self.instruction = instruction
        if dop is None:
            from repro.core.decoded import DecodedOp
            dop = DecodedOp(instruction)
        self.dop = dop
        self.pc = dop.pc
        self.timestamps: Dict[str, int] = {}

    # ------------------------------------------------------------------
    @property
    def definition(self):
        return self.instruction.definition

    @property
    def mnemonic(self) -> str:
        return self.instruction.mnemonic

    def stamped(self, phase: Phase) -> Optional[int]:
        return self.timestamps.get(phase.value)

    # ------------------------------------------------------------------
    @property
    def operands(self) -> Dict[str, Tuple[str, object]]:
        """Operand capture by argument name, in source order: ``('val',
        value)`` or ``('tag', tag)``; empty before dispatch."""
        values = self.op_values
        tags = self.src_tags or {}
        out: Dict[str, Tuple[str, object]] = {}
        for arg in self.definition.arguments:   # sources are never dests
            name = arg.name
            if name in values:
                out[name] = ("val", values[name])
            elif name in tags:
                out[name] = ("tag", tags[name])
        return out

    @property
    def renamed_sources(self) -> Dict[str, str]:
        """Sources that were renamed at dispatch: arg name -> ``"tN"``."""
        return {name: f"t{tag}" for name, tag in (self.src_tags or {}).items()}

    @property
    def operands_ready(self) -> bool:
        """All source operands have captured values."""
        return not self.waiting

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """Instruction pop-up payload (Fig. 3).

        Cached until the pipeline bumps ``sver`` again; a rebuild
        allocates a fresh dict, so previously served payloads stay frozen
        (snapshots never alias mutable state)."""
        if self._json_ver == self.sver:
            return self._json
        self._json = data = self._build_json()
        self._json_str = None
        self._json_ver = self.sver
        return data

    def to_json_str(self) -> str:
        """Serialized :meth:`to_json`, cached until the next mutation.

        The building block of the state engine's fragment-cached wire path
        (see ``repro.sim.state.RawJson``): an instruction sitting
        unchanged in the ROB across many served cycles is JSON-encoded
        once, not once per request."""
        data = self.to_json()          # refreshes both caches when dirty
        text = self._json_str
        if text is None:
            self._json_str = text = json.dumps(data)
        return text

    def _build_json(self) -> dict:
        return {
            "id": self.id,
            "pc": self.pc,
            "mnemonic": self.mnemonic,
            "text": self.instruction.render(),
            "timestamps": dict(self.timestamps),
            "squashed": self.squashed,
            "exception": None if self.exception is None else str(self.exception),
            "renamedSources": self.renamed_sources,
            "destArch": self.dest_arch,
            "destTag": self.dest_tag,
            "operands": {
                name: {"ready": kind == "val",
                       "value": value if kind == "val" else f"t{value}"}
                for name, (kind, value) in self.operands.items()
            },
            "result": self.result,
            "branch": {
                "predictedTaken": self.predicted_taken,
                "predictedTarget": self.predicted_target,
                "actualTaken": self.actual_taken,
                "actualTarget": self.actual_target,
                "mispredicted": self.mispredicted,
            } if self.definition.is_branch else None,
            "memory": {
                "address": self.address,
                "delay": self.mem_delay,
            } if self.definition.memory_size else None,
            "fu": self.fu_name,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimCode#{self.id}({self.instruction.render()} @ {self.pc:#x})"
