"""L1 cache tests: geometry, policies, write modes, delays, properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.memory.cache import Cache, CacheConfig
from repro.memory.main_memory import MainMemory
from repro.memory.replacement import (FifoPolicy, LruPolicy, RandomPolicy,
                                      make_policy)


def make_cache(**kw) -> Cache:
    defaults = dict(line_count=8, line_size=16, associativity=2,
                    replacement_policy="LRU", access_delay=1,
                    line_replacement_delay=10)
    defaults.update(kw)
    memory = MainMemory(64 * 1024, load_latency=5, store_latency=5)
    return Cache(CacheConfig(**defaults), memory)


class TestConfigValidation:
    def test_valid(self):
        CacheConfig().validate()

    @pytest.mark.parametrize("kw", [
        {"line_count": 0}, {"line_size": 0}, {"associativity": 0},
        {"line_size": 12},                     # not a power of two
        {"line_count": 10, "associativity": 4},  # not divisible
        {"line_count": 12, "associativity": 2},  # sets not power of two
        {"replacement_policy": "CLOCK"},
    ])
    def test_invalid(self, kw):
        config = CacheConfig(**kw)
        with pytest.raises(ConfigError):
            config.validate()

    def test_json_roundtrip(self):
        config = CacheConfig(line_count=32, line_size=64, associativity=4,
                             replacement_policy="FIFO", write_back=False,
                             access_delay=2, line_replacement_delay=20)
        clone = CacheConfig.from_json(config.to_json())
        assert clone == config


class TestHitMiss:
    def test_cold_miss_then_hit(self):
        cache = make_cache()
        delay1, hit1 = cache.access(0x100, 4, False, 0)
        delay2, hit2 = cache.access(0x104, 4, False, 1)
        assert not hit1 and hit2
        assert delay1 > delay2
        assert delay2 == 1  # pure access delay on a hit

    def test_same_line_different_words(self):
        cache = make_cache(line_size=16)
        cache.access(0x200, 4, False, 0)
        for offset in (4, 8, 12):
            _, hit = cache.access(0x200 + offset, 4, False, 1)
            assert hit

    def test_line_crossing_access_probes_both_lines(self):
        cache = make_cache(line_size=16)
        _, hit = cache.access(0x10E, 4, False, 0)  # spans two lines
        assert not hit
        _, hit1 = cache.access(0x100, 4, False, 1)
        _, hit2 = cache.access(0x110, 4, False, 2)
        assert hit1 and hit2

    def test_miss_delay_includes_replacement_and_memory(self):
        cache = make_cache(access_delay=1, line_replacement_delay=10)
        delay, _ = cache.access(0, 4, False, 0)
        assert delay == 1 + 10 + 5  # access + replacement + memory load

    def test_set_conflict_eviction(self):
        # 2-way, 4 sets, 16B lines: three lines mapping to set 0
        cache = make_cache(line_count=8, associativity=2, line_size=16)
        stride = 4 * 16  # set count * line size
        cache.access(0 * stride, 4, False, 0)
        cache.access(1 * stride, 4, False, 1)
        cache.access(2 * stride, 4, False, 2)   # evicts LRU (line 0)
        _, hit = cache.access(0, 4, False, 3)
        assert not hit
        assert cache.stats.evictions >= 1

    def test_probe_is_non_destructive(self):
        cache = make_cache()
        assert not cache.probe(0)
        cache.access(0, 4, False, 0)
        assert cache.probe(0)
        assert cache.stats.accesses == 1  # probe did not count


class TestReplacementPolicies:
    def test_lru_keeps_recently_used(self):
        cache = make_cache(line_count=2, associativity=2, line_size=16)
        a, b, c = 0x000, 0x100, 0x200   # all map to the single set
        cache.access(a, 4, False, 0)
        cache.access(b, 4, False, 1)
        cache.access(a, 4, False, 2)    # refresh a
        cache.access(c, 4, False, 3)    # should evict b
        assert cache.probe(a)
        assert not cache.probe(b)

    def test_fifo_ignores_hits(self):
        cache = make_cache(line_count=2, associativity=2, line_size=16,
                           replacement_policy="FIFO")
        a, b, c = 0x000, 0x100, 0x200
        cache.access(a, 4, False, 0)
        cache.access(b, 4, False, 1)
        cache.access(a, 4, False, 2)    # hit; FIFO order unchanged
        cache.access(c, 4, False, 3)    # evicts a (first in)
        assert not cache.probe(a)
        assert cache.probe(b)

    def test_random_is_seeded_deterministic(self):
        def trace(seed):
            cache = make_cache(replacement_policy="Random", random_seed=seed,
                               line_count=4, associativity=4, line_size=16)
            hits = []
            for i in range(50):
                _, hit = cache.access((i * 37 % 16) * 16, 4, False, i)
                hits.append(hit)
            return hits
        assert trace(1) == trace(1)     # deterministic (backward simulation)

    def test_policy_factory(self):
        assert isinstance(make_policy("lru", 2), LruPolicy)
        assert isinstance(make_policy("FIFO", 2), FifoPolicy)
        assert isinstance(make_policy("random", 2, seed=3), RandomPolicy)
        with pytest.raises(ConfigError):
            make_policy("mru", 2)

    def test_invalid_ways_preferred_for_fill(self):
        policy = LruPolicy(4)
        assert policy.victim([True, False, True, True]) == 1


class TestWriteModes:
    def test_write_back_marks_dirty_and_writes_on_eviction(self):
        cache = make_cache(line_count=2, associativity=2, line_size=16,
                           write_back=True)
        cache.access(0x000, 4, True, 0)   # dirty line
        assert cache.stats.bytes_written == 0
        cache.access(0x100, 4, False, 1)
        cache.access(0x200, 4, False, 2)  # evicts the dirty line
        assert cache.stats.writebacks == 1
        assert cache.stats.bytes_written == 16  # whole line flushed

    def test_write_through_writes_every_store(self):
        cache = make_cache(write_back=False)
        cache.access(0x00, 4, True, 0)
        cache.access(0x00, 4, True, 1)
        assert cache.stats.bytes_written == 8
        assert cache.stats.writebacks == 0

    def test_write_through_line_crossing_store_counts_bytes_once(self):
        """A store spanning two lines pushes `size` bytes, not 2x size."""
        cache = make_cache(write_back=False, line_size=16)
        cache.access(0x10E, 4, True, 0)  # crosses 0x100 and 0x110 lines
        assert cache.stats.bytes_written == 4
        cache.access(0x10E, 4, True, 1)  # both lines now resident: still 4
        assert cache.stats.bytes_written == 8

    def test_write_through_store_hit_costs_memory_latency(self):
        cache = make_cache(write_back=False, access_delay=1)
        cache.access(0x00, 4, False, 0)        # fill
        delay, hit = cache.access(0x00, 4, True, 1)
        assert hit
        assert delay == 1 + 5                  # access + memory store

    def test_write_back_store_hit_is_cheap(self):
        cache = make_cache(write_back=True, access_delay=1)
        cache.access(0x00, 4, False, 0)
        delay, hit = cache.access(0x00, 4, True, 1)
        assert hit and delay == 1

    def test_flush_clears_dirty(self):
        cache = make_cache()
        cache.access(0x00, 4, True, 0)
        flushed = cache.flush()
        assert flushed == 1
        assert cache.flush() == 0


class TestStats:
    def test_ratios(self):
        cache = make_cache()
        cache.access(0, 4, False, 0)   # miss
        cache.access(0, 4, False, 1)   # hit
        cache.access(4, 4, True, 2)    # hit (same line)
        stats = cache.stats
        assert stats.accesses == 3
        assert stats.hits == 2
        assert stats.hit_ratio == pytest.approx(2 / 3)
        assert stats.load_accesses == 2
        assert stats.store_accesses == 1

    def test_reset(self):
        cache = make_cache()
        cache.access(0, 4, False, 0)
        cache.reset()
        assert cache.stats.accesses == 0
        assert not cache.probe(0)

    def test_lines_snapshot(self):
        cache = make_cache()
        cache.access(0x40, 4, False, 0)
        snap = cache.lines_snapshot()
        valid = [entry for entry in snap if entry["valid"]]
        assert len(valid) == 1
        assert valid[0]["baseAddress"] == 0x40


class _ReferenceCache:
    """Trivial fully-explicit model: set of resident line addresses."""

    def __init__(self, sets, ways, line_size):
        self.sets = sets
        self.ways = ways
        self.line_size = line_size
        self.content = {i: [] for i in range(sets)}  # set -> [line_addr], LRU order

    def access(self, address):
        line = address // self.line_size
        idx = line % self.sets
        bucket = self.content[idx]
        if line in bucket:
            bucket.remove(line)
            bucket.append(line)
            return True
        if len(bucket) >= self.ways:
            bucket.pop(0)
        bucket.append(line)
        return False


class TestAgainstReferenceModel:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 1023), min_size=1, max_size=200))
    def test_lru_hits_match_reference(self, addresses):
        cache = make_cache(line_count=8, associativity=2, line_size=16,
                           replacement_policy="LRU")
        reference = _ReferenceCache(sets=4, ways=2, line_size=16)
        for i, addr in enumerate(addresses):
            _, hit = cache.access(addr, 1, False, i)
            assert hit == reference.access(addr), \
                f"divergence at access {i} (addr {addr})"
