"""L1 data cache model (timing + content tracking, Sec. II-C).

Configuration mirrors the Cache tab of the Architecture-settings window:
number of lines, line size, associativity, replacement policy (LRU / FIFO /
Random), store behaviour (write-back or write-through), line-replacement
delay and access delay.

The cache tracks tags, valid and dirty bits per line; the authoritative
*data* always lives in :class:`repro.memory.main_memory.MainMemory`, so the
cache contributes timing (and statistics) without risking incoherence.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import ConfigError
from repro.memory.main_memory import MainMemory
from repro.memory.replacement import ReplacementPolicy, make_policy


@dataclass
class CacheConfig:
    """Cache tab of the architecture settings (Fig. 9)."""

    enabled: bool = True
    line_count: int = 16
    line_size: int = 16
    associativity: int = 2
    replacement_policy: str = "LRU"
    write_back: bool = True          # False = write-through
    access_delay: int = 1
    line_replacement_delay: int = 10
    random_seed: int = 42

    def validate(self) -> None:
        if self.line_count <= 0 or self.line_size <= 0 or self.associativity <= 0:
            raise ConfigError("cache line count, size and associativity must be positive")
        if self.line_size & (self.line_size - 1):
            raise ConfigError(f"cache line size must be a power of two, got {self.line_size}")
        if self.line_count % self.associativity:
            raise ConfigError(
                f"line count {self.line_count} not divisible by associativity "
                f"{self.associativity}")
        sets = self.line_count // self.associativity
        if sets & (sets - 1):
            raise ConfigError(f"number of cache sets must be a power of two, got {sets}")
        make_policy(self.replacement_policy, self.associativity)

    def to_json(self) -> dict:
        return {
            "enabled": self.enabled,
            "lineCount": self.line_count,
            "lineSize": self.line_size,
            "associativity": self.associativity,
            "replacementPolicy": self.replacement_policy,
            "storeBehavior": "write-back" if self.write_back else "write-through",
            "accessDelay": self.access_delay,
            "lineReplacementDelay": self.line_replacement_delay,
            "randomSeed": self.random_seed,
        }

    @staticmethod
    def from_json(data: dict) -> "CacheConfig":
        cfg = CacheConfig(
            enabled=bool(data.get("enabled", True)),
            line_count=int(data.get("lineCount", 16)),
            line_size=int(data.get("lineSize", 16)),
            associativity=int(data.get("associativity", 2)),
            replacement_policy=data.get("replacementPolicy", "LRU"),
            write_back=data.get("storeBehavior", "write-back") != "write-through",
            access_delay=int(data.get("accessDelay", 1)),
            line_replacement_delay=int(data.get("lineReplacementDelay", 10)),
            random_seed=int(data.get("randomSeed", 42)),
        )
        return cfg


@dataclass
class CacheStats:
    """Cache statistics block of the Runtime-statistics window (Fig. 10)."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    load_accesses: int = 0
    load_hits: int = 0
    store_accesses: int = 0
    store_hits: int = 0
    evictions: int = 0
    writebacks: int = 0
    bytes_written: int = 0   # bytes pushed toward main memory

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def to_json(self) -> dict:
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "hitRatio": self.hit_ratio,
            "missRatio": self.miss_ratio,
            "loadAccesses": self.load_accesses,
            "loadHits": self.load_hits,
            "storeAccesses": self.store_accesses,
            "storeHits": self.store_hits,
            "evictions": self.evictions,
            "writebacks": self.writebacks,
            "bytesWritten": self.bytes_written,
        }


class _Line:
    __slots__ = ("valid", "dirty", "tag")

    def __init__(self) -> None:
        self.valid = False
        self.dirty = False
        self.tag = -1


class Cache:
    """Set-associative cache (usable as L1 or, chained, as L2/L3).

    ``next_level`` is whatever backs this cache — the main memory or
    another :class:`Cache` — and must expose ``fill_cost`` and
    ``writeback_cost``.  Data always lives in main memory (timing-only
    caches keep the hierarchy trivially coherent); *memory* is retained
    for bounds checks and capacity clamping.
    """

    def __init__(self, config: CacheConfig, memory: MainMemory,
                 next_level=None):
        config.validate()
        self.config = config
        self.memory = memory
        self.next_level = next_level if next_level is not None else memory
        self.sets = config.line_count // config.associativity
        self.ways = config.associativity
        self._offset_bits = config.line_size.bit_length() - 1
        self._index_mask = self.sets - 1
        self._index_bits = self._index_mask.bit_length()
        self._lines: List[List[_Line]] = [
            [_Line() for _ in range(self.ways)] for _ in range(self.sets)]
        self._policies: List[ReplacementPolicy] = [
            make_policy(config.replacement_policy, self.ways,
                        config.random_seed + i)
            for i in range(self.sets)]
        self.stats = CacheStats()
        #: dirty counter (see repro.sim.state): bumped whenever any line's
        #: valid/dirty/tag changes (the content of ``lines_snapshot``)
        self.version = 0

    # ------------------------------------------------------------------
    def _lookup(self, set_index: int, tag: int) -> Optional[int]:
        for way, line in enumerate(self._lines[set_index]):
            if line.valid and line.tag == tag:
                return way
        return None

    # ------------------------------------------------------------------
    def access(self, address: int, size: int, is_store: bool,
               cycle: int) -> Tuple[int, bool]:
        """Access [address, address+size); returns (delay, hit).

        An access touching several lines (unaligned / line-crossing) probes
        each; the reported delay is the sum of per-line costs and the access
        counts once (hit only if every line hits).
        """
        memory = self.memory
        if address < 0 or address + size > memory.capacity:
            memory.check_range(address, size)
        cfg = self.config
        first_line = address >> self._offset_bits
        if (cfg.write_back or not is_store) and \
                (address + size - 1) >> self._offset_bits == first_line:
            # one-line access: a hit costs one probe and the counters
            set_index = first_line & self._index_mask
            tag = first_line >> self._index_bits
            for way, line in enumerate(self._lines[set_index]):
                if line.valid and line.tag == tag:
                    self._policies[set_index].touch(way)
                    stats = self.stats
                    stats.accesses += 1
                    stats.hits += 1
                    if is_store:
                        if not line.dirty:
                            line.dirty = True
                            self.version += 1
                        stats.store_accesses += 1
                        stats.store_hits += 1
                    else:
                        stats.load_accesses += 1
                        stats.load_hits += 1
                    return cfg.access_delay, True
        last_line = (address + size - 1) >> self._offset_bits
        delay = cfg.access_delay
        all_hit = True
        index_bits = self._index_bits

        for line_addr in range(first_line, last_line + 1):
            set_index = line_addr & self._index_mask
            tag = line_addr >> index_bits
            way = self._lookup(set_index, tag)
            if way is not None:
                self._policies[set_index].touch(way)
                line = self._lines[set_index][way]
            else:
                all_hit = False
                delay += cfg.line_replacement_delay
                way = self._policies[set_index].victim(
                    [l.valid for l in self._lines[set_index]])
                line = self._lines[set_index][way]
                if line.valid and line.dirty:
                    # flush the dirty victim line toward the next level
                    self.stats.writebacks += 1
                    self.stats.bytes_written += cfg.line_size
                    victim_addr = ((line.tag << (self._index_mask.bit_length()))
                                   | set_index) << self._offset_bits
                    delay += self.next_level.writeback_cost(
                        min(victim_addr, self.memory.capacity - cfg.line_size),
                        cfg.line_size, cycle)
                if line.valid:
                    self.stats.evictions += 1
                line.valid = True
                line.dirty = False
                line.tag = tag
                self.version += 1
                self._policies[set_index].insert(way)
                # line fill from the next level (L2 or main memory)
                delay += self.next_level.fill_cost(
                    min(line_addr << self._offset_bits,
                        self.memory.capacity - cfg.line_size),
                    cfg.line_size, cycle)
            if is_store and cfg.write_back and not line.dirty:
                line.dirty = True
                self.version += 1

        if is_store and not cfg.write_back:
            # Bytes are counted once per *access*, not once per touched
            # line: a line-crossing store still pushes `size` bytes.
            self.stats.bytes_written += size
            delay += self.next_level.writeback_cost(
                min(address, self.memory.capacity - size), size, cycle)

        self.stats.accesses += 1
        if all_hit:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        if is_store:
            self.stats.store_accesses += 1
            if all_hit:
                self.stats.store_hits += 1
        else:
            self.stats.load_accesses += 1
            if all_hit:
                self.stats.load_hits += 1
        return delay, all_hit

    # -- next-level interface (so caches chain: L1 -> L2 -> memory) --------
    def fill_cost(self, address: int, size: int, cycle: int) -> int:
        return self.access(address, size, False, cycle)[0]

    def writeback_cost(self, address: int, size: int, cycle: int) -> int:
        return self.access(address, size, True, cycle)[0]

    # ------------------------------------------------------------------
    def probe(self, address: int) -> bool:
        """Non-destructive hit test (used by the GUI cache view)."""
        line_addr = address >> self._offset_bits
        set_index = line_addr & self._index_mask
        tag = line_addr >> (self._index_mask.bit_length())
        return self._lookup(set_index, tag) is not None

    def flush(self, cycle: int = 0) -> int:
        """Write back all dirty lines; returns the number flushed."""
        flushed = 0
        for set_index, ways in enumerate(self._lines):
            for line in ways:
                if line.valid and line.dirty:
                    line.dirty = False
                    flushed += 1
                    self.stats.writebacks += 1
                    self.stats.bytes_written += self.config.line_size
        if flushed:
            self.version += 1
        return flushed

    def reset(self) -> None:
        for ways in self._lines:
            for line in ways:
                line.valid = False
                line.dirty = False
                line.tag = -1
        for policy in self._policies:
            policy.reset()
        self.stats = CacheStats()
        self.version += 1

    # -- state-engine protocol (repro.sim.state) --------------------------
    def save_state(self) -> dict:
        return {
            "lines": [(line.valid, line.dirty, line.tag)
                      for ways in self._lines for line in ways],
            "policies": [policy.save_state() for policy in self._policies],
            "stats": dataclasses.asdict(self.stats),
        }

    def restore_state(self, state: dict) -> None:
        flat = iter(state["lines"])
        for ways in self._lines:
            for line in ways:
                line.valid, line.dirty, line.tag = next(flat)
        for policy, saved in zip(self._policies, state["policies"]):
            policy.restore_state(saved)
        self.stats = CacheStats(**state["stats"])
        self.version += 1

    # ------------------------------------------------------------------
    def lines_snapshot(self) -> List[dict]:
        """Cache organization view for the main window (Fig. 12)."""
        out = []
        for set_index, ways in enumerate(self._lines):
            for way, line in enumerate(ways):
                entry = {
                    "set": set_index, "way": way, "valid": line.valid,
                    "dirty": line.dirty,
                }
                if line.valid:
                    entry["baseAddress"] = (
                        (line.tag << self._index_mask.bit_length() | set_index)
                        << self._offset_bits)
                out.append(entry)
        return out
