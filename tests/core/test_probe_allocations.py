"""The steady-state segment-membership path must not build lists/tuples.

Before the hash-once overhaul every Bloom probe materialised a fresh
list of ``nhashes`` positions (via ``double_hashes``) and re-hashed the
key per filter.  These tests hold the optimized path to the
allocation-free contract two ways:

* a ``tracemalloc`` peak budget around a burst of probes — small enough
  that a single per-probe position list (>500 bytes with its boxed
  ints) would blow it, while the fast path's word-sized integer
  temporaries fit comfortably;
* a bytecode audit that no probe-path function contains a list/tuple/
  map-building opcode or a nested comprehension.
"""

import dis
import tracemalloc

from repro.bloom.bloom import BloomFilter
from repro.bloom.hashing import hash_pair
from repro.bloom.removal import RemovalFilter
from repro.cache.item import Item
from repro.cache.lru import LRUList
from repro.core.bloom_tracker import BloomSegmentTracker
from repro.core.segments import SegmentedLRU

#: bytes of transient allocation allowed across a probe burst: the
#: ``queries`` counter churn plus a few 1-2 machine-word ints alive at
#: once inside a probe expression.  One position list per probe (the old
#: behaviour: 56B header + 8B/slot + ~28B per boxed position) cannot fit.
PROBE_PEAK_BUDGET = 512

#: opcodes that build a transient container.
_CONTAINER_OPS = {"BUILD_LIST", "BUILD_TUPLE", "BUILD_MAP", "BUILD_SET",
                  "LIST_EXTEND", "LIST_APPEND", "SET_ADD", "MAP_ADD"}

#: every function on the steady-state segment-membership path.
PROBE_PATH_FUNCTIONS = [
    BloomFilter.add_hashes,
    BloomFilter.contains_hashes,
    RemovalFilter.masks_hashes,
    RemovalFilter.mark_removed_hashes,
    RemovalFilter.on_segment_add_hashes,
    BloomSegmentTracker.segment_on_access,
    SegmentedLRU.segment_on_access,
]


def _tracker():
    lru = LRUList()
    tracker = BloomSegmentTracker(lru, 8, 4)
    items = [Item(k, 16, 48, 0.01) for k in range(64)]
    for it in items:
        lru.push_front(it)
    tracker.rebuild()
    return tracker, items


class TestProbeAllocations:
    def _peak_over(self, tracker, item, pairs, repeats):
        # warm up so one-time allocations (counter ints crossing the
        # small-int cache, lazily created internals) are out of the way.
        for h1, h2 in pairs:
            tracker.segment_on_access(item, h1, h2)
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for _ in range(repeats):
            for h1, h2 in pairs:
                tracker.segment_on_access(item, h1, h2)
        _, peak = tracemalloc.get_traced_memory()
        return peak - base

    def test_membership_miss_probes_allocate_no_containers(self):
        tracker, items = _tracker()
        pairs = [hash_pair(k) for k in range(10_000, 10_064)]
        tracemalloc.start()
        try:
            peak = self._peak_over(tracker, items[0], pairs, repeats=50)
        finally:
            tracemalloc.stop()
        assert peak <= PROBE_PEAK_BUDGET, (
            f"miss-probe burst peaked at {peak}B transient: something on "
            f"the probe path is building per-request objects again")

    def test_membership_hit_probes_allocate_no_containers(self):
        tracker, items = _tracker()
        # keys known to sit in the bottom segments (rebuild() saw them);
        # positives also exercise the removal-filter marking path.
        pairs = [hash_pair(it.key) for it in items[:32]]
        tracemalloc.start()
        try:
            peak = self._peak_over(tracker, items[0], pairs, repeats=4)
        finally:
            tracemalloc.stop()
        assert peak <= PROBE_PEAK_BUDGET, (
            f"hit-probe burst peaked at {peak}B transient")


class TestProbeBytecode:
    def test_probe_path_builds_no_lists_or_tuples(self):
        for func in PROBE_PATH_FUNCTIONS:
            code = func.__code__
            ops = {ins.opname for ins in dis.get_instructions(code)}
            assert not (ops & _CONTAINER_OPS), (
                f"{func.__qualname__} builds a container on the probe "
                f"path: {sorted(ops & _CONTAINER_OPS)}")
            # comprehensions compile to nested code objects; their
            # presence means a per-call list is being materialised.
            nested = [c for c in code.co_consts if hasattr(c, "co_code")]
            assert not nested, (
                f"{func.__qualname__} contains a comprehension/closure: "
                f"{[c.co_name for c in nested]}")
