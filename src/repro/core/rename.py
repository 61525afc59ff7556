"""Register renaming: speculative rename file + register alias table.

Sec. III-B: *"registers maintain all necessary information for renaming.
Each register tracks the number of references; architectural registers use
a list of all renamed copies, while renamed (speculative) registers hold a
pointer to the corresponding architectural register."*

The rename file is a pool of speculative registers (its size is the
"register rename file size" of the Memory tab).  The RAT maps architectural
registers to their newest speculative copy; an unmapped architectural
register reads from the committed register file.  Recovery is performed at
flush time by clearing the RAT (commit-time branch recovery makes this
sufficient).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Union

from repro.isa.registers import RegisterFile

Number = Union[int, float]


class RenameEntry:
    """One speculative register."""

    __slots__ = ("tag", "arch", "value", "valid", "busy")

    def __init__(self, tag: int):
        self.tag = tag
        self.arch: Optional[str] = None  # pointer to architectural register
        self.value: Number = 0
        self.valid = False               # value produced?
        self.busy = False                # allocated?


class RenameFile:
    """Speculative register pool + RAT over an architectural file."""

    def __init__(self, size: int, arch_file: RegisterFile):
        self.size = size
        self.arch = arch_file
        self.entries: List[RenameEntry] = [RenameEntry(t) for t in range(size)]
        #: free tags in allocation order; identity-stable (flush and
        #: restore refill it in place), so the step loop may hoist it
        self._free: Deque[int] = deque(range(size))
        #: RAT: architectural register name -> newest speculative tag
        self.rat: Dict[str, int] = {}
        #: dirty counter (see repro.sim.state): bumped on every mutation
        self.version = 0

    # ------------------------------------------------------------------
    @property
    def free_count(self) -> int:
        return len(self._free)

    def allocate(self, arch_reg: str) -> Optional[int]:
        """Allocate a speculative register for a new writer of *arch_reg*.

        Returns the tag, or ``None`` when the pool is exhausted (decode
        must stall on this structural hazard).
        """
        if not self._free:
            return None
        tag = self._free.popleft()
        entry = self.entries[tag]
        entry.arch = arch_reg
        entry.value = 0
        entry.valid = False
        entry.busy = True
        self.rat[arch_reg] = tag
        self.version += 1
        return tag

    def write(self, tag: int, value: Number) -> None:
        """Produce the value of a speculative register (at write-back)."""
        entry = self.entries[tag]
        entry.value = value
        entry.valid = True
        self.version += 1

    def is_valid(self, tag: int) -> bool:
        return self.entries[tag].valid

    # ------------------------------------------------------------------
    def read_source(self, arch_reg: str):
        """Resolve a source operand at rename time.

        Returns ``('val', value)`` when the newest copy is ready (or the
        register is not renamed), else ``('tag', tag)``.
        """
        tag = self.rat.get(arch_reg)
        if tag is None:
            return ("val", self.arch.read(arch_reg))
        entry = self.entries[tag]
        if entry.valid:
            return ("val", entry.value)
        return ("tag", tag)

    # ------------------------------------------------------------------
    def commit(self, tag: int) -> None:
        """Commit a speculative register: copy to the architectural file and
        release the tag.  If the RAT still names this tag as the newest copy
        of its architectural register, the mapping is cleared (subsequent
        readers hit the committed file)."""
        entry = self.entries[tag]
        if entry.arch is not None:
            self.arch.write(entry.arch, entry.value)
            if self.rat.get(entry.arch) == tag:
                del self.rat[entry.arch]
        self._release(tag)
        self.version += 1

    def flush(self) -> None:
        """Squash all speculative state (pipeline flush)."""
        self.rat.clear()
        self._free.clear()
        for entry in self.entries:
            entry.busy = False
            entry.valid = False
            entry.arch = None
            self._free.append(entry.tag)
        self.version += 1

    def release(self, tag: int) -> None:
        """Release a tag without committing (squashed instruction)."""
        entry = self.entries[tag]
        if entry.arch is not None and self.rat.get(entry.arch) == tag:
            del self.rat[entry.arch]
        self._release(tag)
        self.version += 1

    def _release(self, tag: int) -> None:
        entry = self.entries[tag]
        if entry.busy:          # a busy tag is never on the free list
            self._free.append(tag)
        entry.busy = False
        entry.valid = False
        entry.arch = None

    # ------------------------------------------------------------------
    def renamed_copies(self, arch_reg: str) -> List[int]:
        """All live speculative copies of *arch_reg* (GUI register view)."""
        return [e.tag for e in self.entries if e.busy and e.arch == arch_reg]

    def snapshot(self) -> dict:
        """Register-file panel payload: renamed tags and values (Fig. 12)."""
        return {
            "freeTags": len(self._free),
            "rat": dict(self.rat),
            "entries": [
                {"tag": e.tag, "arch": e.arch, "valid": e.valid,
                 "value": e.value if e.valid else None}
                for e in self.entries if e.busy
            ],
        }

    # -- state-engine protocol (repro.sim.state) -------------------------
    def save_state(self) -> dict:
        return {
            "entries": [(e.arch, e.value, e.valid, e.busy)
                        for e in self.entries],
            "free": list(self._free),
            "rat": dict(self.rat),
        }

    def restore_state(self, state: dict) -> None:
        for entry, (arch, value, valid, busy) in zip(self.entries,
                                                     state["entries"]):
            entry.arch = arch
            entry.value = value
            entry.valid = valid
            entry.busy = busy
        self._free.clear()
        self._free.extend(state["free"])
        self.rat = dict(state["rat"])
        self.version += 1
