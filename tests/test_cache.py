"""Tests for the set-associative cache and LRU replacement state."""
import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.cache import SetAssociativeCache
from repro.params import CacheParams


def make_cache(size=1024, ways=2, line=64):
    return SetAssociativeCache(CacheParams("T", size, ways, line, 1))


class TestLRUState:
    """True-LRU recency of one set, as the cache keeps it: resident
    lines least recently used first."""

    def test_initial_order(self):
        """An empty set fills in order without evicting."""
        cache = make_cache(size=1024, ways=4)   # 4 sets: set span 256B
        lines = [0x1000 + k * 256 for k in range(4)]
        assert cache.lines_in_set(0) == []
        for line in lines:
            assert cache.fill(line) is None
        assert cache.lines_in_set(0) == lines

    def test_touch_moves_to_mru(self):
        cache = make_cache(size=1024, ways=4)
        a, b, c, d = (0x1000 + k * 256 for k in range(4))
        for line in (a, b, c, d):
            cache.fill(line)
        assert cache.touch(a)
        assert cache.lines_in_set(0) == [b, c, d, a]

    def test_victim_prefers_invalid(self):
        """A freed slot is refilled before anything is evicted."""
        cache = make_cache(size=1024, ways=4)
        a, b, c, d, e, f = (0x1000 + k * 256 for k in range(6))
        for line in (a, b, c, d):
            cache.fill(line)
        cache.touch(a)
        assert cache.invalidate(c)
        assert cache.fill(e) is None
        assert cache.lines_in_set(0) == [b, d, a, e]
        assert cache.fill(f) == b
        assert cache.stats.get("evictions") == 1

    def test_victim_lru_when_all_valid(self):
        cache = make_cache(size=768, ways=3)    # 4 sets: set span 256B
        a, b, c, d = (0x1000 + k * 256 for k in range(4))
        for line in (a, b, c):
            cache.fill(line)
        cache.touch(a)
        cache.touch(c)
        assert cache.fill(d) == b
        assert cache.lines_in_set(0) == [a, c, d]

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=30))
    def test_order_is_always_a_permutation(self, touches):
        cache = make_cache(size=1024, ways=4)
        for k in touches:
            cache.access(0x1000 + k * 256)
        assert sorted(cache.lines_in_set(0)) == \
            sorted({0x1000 + k * 256 for k in touches})

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=30))
    def test_last_touched_is_mru(self, touches):
        cache = make_cache(size=1024, ways=4)
        for k in touches:
            cache.access(0x1000 + k * 256)
        assert cache.lines_in_set(0)[-1] == 0x1000 + touches[-1] * 256


class TestCacheBasics:
    def test_miss_then_hit(self):
        cache = make_cache()
        assert not cache.access(0x1000).hit
        assert cache.access(0x1000).hit

    def test_same_line_offsets_hit(self):
        cache = make_cache()
        cache.access(0x1000)
        assert cache.access(0x103F).hit
        assert not cache.access(0x1040).hit

    def test_contains_is_side_effect_free(self):
        cache = make_cache(ways=2)
        cache.access(0xA000)  # set 0 (1024B/2w/64B -> 8 sets)
        cache.access(0xB000)
        # Probing A must not refresh its recency.
        assert cache.contains(0xA000)
        cache.access(0xC000)  # evicts LRU = A
        assert not cache.contains(0xA000)

    def test_eviction_lru_order(self):
        cache = make_cache(ways=2)
        cache.access(0xA000)
        cache.access(0xB000)
        cache.access(0xA000)          # A is now MRU
        result = cache.access(0xC000)
        assert result.evicted_line_addr == 0xB000

    def test_invalidate(self):
        cache = make_cache()
        cache.access(0x1000)
        assert cache.invalidate(0x1000)
        assert not cache.contains(0x1000)
        assert not cache.invalidate(0x1000)

    def test_fill_of_resident_line_evicts_nothing(self):
        cache = make_cache()
        cache.fill(0x1000)
        assert cache.fill(0x1000) is None

    def test_touch_returns_false_when_absent(self):
        cache = make_cache()
        assert not cache.touch(0x5000)
        cache.fill(0x5000)
        assert cache.touch(0x5000)

    def test_flush_all(self):
        cache = make_cache()
        cache.access(0x1000)
        cache.access(0x2000)
        cache.flush_all()
        assert cache.resident_lines() == []

    def test_stats_and_hit_rate(self):
        cache = make_cache()
        cache.access(0x1000)
        cache.access(0x1000)
        cache.access(0x1000)
        assert cache.stats.get("hits") == 2
        assert cache.stats.get("misses") == 1
        assert cache.hit_rate() == pytest.approx(2 / 3)

    def test_empty_hit_rate_is_zero(self):
        assert make_cache().hit_rate() == 0.0

    def test_lines_in_set_roundtrip(self):
        cache = make_cache(ways=2)
        cache.access(0xA040)
        set_index = cache.set_index(0xA040)
        lines = cache.lines_in_set(set_index)
        assert 0xA040 in lines


class TestCacheProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 255), min_size=1, max_size=200))
    def test_capacity_never_exceeded(self, line_indexes):
        cache = make_cache(size=512, ways=2, line=64)  # 8 lines, 4 sets
        for index in line_indexes:
            cache.access(index * 64)
        assert len(cache.resident_lines()) <= 8

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 63), min_size=1, max_size=100))
    def test_most_recent_line_always_resident(self, line_indexes):
        cache = make_cache(size=512, ways=2, line=64)
        for index in line_indexes:
            cache.access(index * 64)
        assert cache.contains(line_indexes[-1] * 64)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=50))
    def test_within_ways_accesses_never_evict(self, way_choices):
        """Touching at most `ways` distinct lines of one set never
        misses after the first access to each."""
        cache = make_cache(size=512, ways=4, line=64)
        seen = set()
        for choice in way_choices:
            addr = 0x1000 + choice * 512  # same set, different tags
            hit = cache.access(addr).hit
            assert hit == (choice in seen)
            seen.add(choice)


class WayIndexedLRU:
    """Reference model: per set, one line number per way (None when
    invalid) and the ways ordered least- to most-recently used.  A fill takes
    the first invalid way in recency order, else the LRU way; an
    invalidated way keeps its recency slot."""

    def __init__(self, num_sets, ways, line_bytes):
        self.num_sets, self.line_bytes = num_sets, line_bytes
        self.tags = [[None] * ways for _ in range(num_sets)]
        self.order = [list(range(ways)) for _ in range(num_sets)]
        self.stats = {}

    def _incr(self, key):
        self.stats[key] = self.stats.get(key, 0) + 1

    def _find(self, address):
        line = address // self.line_bytes
        set_index = line % self.num_sets
        tags = self.tags[set_index]
        return set_index, line, tags.index(line) if line in tags else None

    def _touch(self, set_index, way):
        self.order[set_index].remove(way)
        self.order[set_index].append(way)

    def contains(self, address):
        return self._find(address)[2] is not None

    def lookup(self, address, update_lru=True):
        set_index, _, way = self._find(address)
        if way is None:
            self._incr("misses")
            return False
        self._incr("hits")
        if update_lru:
            self._touch(set_index, way)
        return True

    def touch(self, address):
        set_index, _, way = self._find(address)
        if way is None:
            return False
        self._touch(set_index, way)
        return True

    def fill(self, address):
        set_index, line, way = self._find(address)
        if way is not None:
            self._touch(set_index, way)
            return None
        tags = self.tags[set_index]
        invalid = [w for w in self.order[set_index] if tags[w] is None]
        victim = invalid[0] if invalid else self.order[set_index][0]
        evicted = None
        if tags[victim] is not None:
            evicted = tags[victim] * self.line_bytes
            self._incr("evictions")
        tags[victim] = line
        self._touch(set_index, victim)
        self._incr("fills")
        return evicted

    def access(self, address, update_lru=True):
        if self.lookup(address, update_lru=update_lru):
            return (True, None)
        return (False, self.fill(address))

    def invalidate(self, address):
        set_index, _, way = self._find(address)
        if way is None:
            return False
        self.tags[set_index][way] = None
        self._incr("invalidations")
        return True

    def flush_all(self):
        for tags in self.tags:
            tags[:] = [None] * len(tags)

    def lines_in_set(self, set_index):
        """Resident line addresses, least recently used first."""
        tags = self.tags[set_index]
        return [tags[w] * self.line_bytes for w in self.order[set_index]
                if tags[w] is not None]


#: Op mix, weighted by repetition: ``flush_all`` is rare so sets fill,
#: evict and refill freed ways between flushes.
_OPS = (("access",) * 6 + ("lookup_no_lru", "touch", "fill", "invalidate") * 3
        + ("contains", "flush_all"))


class TestAgainstWayIndexedLRU:
    """Random op sequences: the cache and the way-indexed reference
    agree on every return value, evicted line, counter and the
    recency-ordered content of every set, after every op."""

    @settings(max_examples=200, deadline=None)
    @given(ways=st.integers(1, 8), num_sets=st.sampled_from([1, 2, 4]),
           ops=st.lists(st.tuples(st.sampled_from(_OPS),
                                  st.integers(0, 15), st.integers(0, 63)),
                        min_size=20, max_size=150))
    def test_matches_reference(self, ways, num_sets, ops):
        cache = make_cache(size=num_sets * ways * 64, ways=ways)
        model = WayIndexedLRU(num_sets, ways, 64)
        for op, line, offset in ops:
            address = 0x4000 + line * 64 + offset
            if op == "access":
                result = cache.access(address)
                got = (result.hit, result.evicted_line_addr)
                want = model.access(address)
            elif op == "lookup_no_lru":
                got = cache.lookup(address, update_lru=False)
                want = model.lookup(address, update_lru=False)
            elif op == "flush_all":
                got, want = cache.flush_all(), model.flush_all()
            else:
                got = getattr(cache, op)(address)
                want = getattr(model, op)(address)
            assert got == want, op
            assert cache.stats.as_dict() == model.stats
            for set_index in range(num_sets):
                assert cache.lines_in_set(set_index) == \
                    model.lines_in_set(set_index)
