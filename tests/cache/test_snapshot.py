"""Tests for cache snapshot / restore."""

import pytest

from repro.cache import SlabCache, SizeClassConfig
from repro.cache.item import Item, StoredItem
from repro.cache.snapshot import load_snapshot, save_snapshot
from repro.core import PamaPolicy
from repro.policies import StaticMemcachedPolicy


def small_cache(slabs=16, policy=None):
    classes = SizeClassConfig(slab_size=4096, base_size=64)
    return SlabCache(slabs * 4096, policy or StaticMemcachedPolicy(),
                     classes)


class TestSnapshotRoundTrip:
    def test_contents_restored(self, tmp_path):
        cache = small_cache()
        for i in range(30):
            cache.set(i, 8, 50 + (i % 3) * 400, 0.01 * (i + 1))
        path = tmp_path / "snap.npz"
        assert save_snapshot(cache, path) == 30

        fresh = small_cache()
        assert load_snapshot(fresh, path) == 30
        assert len(fresh) == 30
        for i in range(30):
            a, b = cache.index[i], fresh.index[i]
            assert (a.key_size, a.value_size) == (b.key_size, b.value_size)
            assert a.penalty == pytest.approx(b.penalty)
        fresh.check_invariants()

    def test_recency_order_preserved(self, tmp_path):
        cache = small_cache(slabs=4)
        n = 100  # more than one slab's worth (64 slots)
        for i in range(n):
            cache.set(i, 8, 50, 0.1)
        cache.get(3)  # make key 3 the most recent
        path = tmp_path / "snap.npz"
        save_snapshot(cache, path)

        # restore into a tiny cache: only the most recent items survive
        tiny = small_cache(slabs=1)
        load_snapshot(tiny, path)
        per_slab = tiny.size_classes.slots_per_slab(0)
        assert 3 in tiny  # the freshest key made it
        assert len(tiny) == per_slab
        # the survivors are the most recently used ones (plus key 3)
        expected = set(range(n - per_slab + 1, n)) | {3}
        assert set(tiny.index) == expected

    def test_queues_are_interleaved_by_depth(self, tmp_path):
        # the cache keeps no global access tick: each queue is written
        # LRU-first, and the queues are interleaved by depth from their
        # LRU ends in the order they were created
        import numpy as np

        cache = small_cache()
        for key in (0, 10, 1, 2, 11, 3, 12, 4):
            cache.set(key, 8, 450 if key >= 10 else 50, 0.1)
        cache.get(1)
        assert len([q for q in cache.iter_queues() if len(q.lru)]) == 2
        path = tmp_path / "snap.npz"
        assert save_snapshot(cache, path) == 8
        with np.load(path) as data:
            assert data["keys"].tolist() == [0, 10, 2, 11, 3, 12, 4, 1]

        fresh = small_cache()
        load_snapshot(fresh, path)
        for queue in cache.iter_queues():
            assert ([i.key for i in fresh.queues[queue.qid].lru.iter_from_back()]
                    == [i.key for i in queue.lru.iter_from_back()])

    def test_cross_policy_restore(self, tmp_path):
        cache = small_cache()
        for i in range(25):
            cache.set(i, 8, 50, 0.001 * (10 ** (i % 4)))
        path = tmp_path / "snap.npz"
        save_snapshot(cache, path)

        pama = small_cache(policy=PamaPolicy())
        assert load_snapshot(pama, path) == 25
        pama.check_invariants()
        # items were re-binned by penalty through PAMA's SET path
        bins = {q.bin_idx for q in pama.iter_queues() if len(q.lru)}
        assert len(bins) > 1

    def test_expiry_persisted(self, tmp_path):
        clock_value = [1000.0]
        cache = small_cache()
        cache.clock = lambda: clock_value[0]
        cache.set("nope", 4, 50, 0.1)  # non-int key
        path = tmp_path / "snap.npz"
        with pytest.raises(TypeError):
            save_snapshot(cache, path)
        cache.delete("nope")
        cache.set(1, 8, 50, 0.1, expires_at=2000.0)
        save_snapshot(cache, path)

        fresh = small_cache()
        fresh.clock = lambda: clock_value[0]
        load_snapshot(fresh, path)
        assert fresh.index[1].expires_at == 2000.0

    def test_a_replayed_cache_restores_stored_items_only_with_an_expiry(
            self, tmp_path):
        cache = small_cache(policy=PamaPolicy())
        cache.clock = lambda: 1000.0
        stores = [(1, key, 8, 50, 0.01 * (key % 4)) for key in range(40)]
        hits = [(0, key, 8, 50, 0.01) for key in range(0, 40, 3)]
        cache.apply_rows(stores + hits, False, [].append)
        assert cache.touch(7, 2000.0)
        assert cache.set(11, 8, 50, 0.02, value=(0, b"v"), expires_at=3000.0)
        assert cache.set(12, 8, 50, 0.02, value=(0, b"v"))
        path = tmp_path / "snap.npz"
        assert save_snapshot(cache, path) == 40

        fresh = small_cache(policy=PamaPolicy())
        fresh.clock = lambda: 1000.0
        assert load_snapshot(fresh, path) == 40
        kinds = {key: type(item) for key, item in fresh.index.items()}
        assert kinds == {key: StoredItem if key in (7, 11) else Item
                         for key in range(40)}
        assert (fresh.index[7].expires_at, fresh.index[11].expires_at) \
            == (2000.0, 3000.0)
        assert all(item.value is None and item.cas == 0
                   for item in fresh.index.values())
        for key, item in cache.index.items():
            restored = fresh.index[key]
            assert (restored.key_size, restored.value_size, restored.penalty,
                    restored.queue.qid) == (item.key_size, item.value_size,
                                            item.penalty, item.queue.qid)
        fresh.check_invariants()
        fresh.policy.check_ghost_sync()

    def test_empty_cache_snapshot(self, tmp_path):
        cache = small_cache()
        path = tmp_path / "snap.npz"
        assert save_snapshot(cache, path) == 0
        fresh = small_cache()
        assert load_snapshot(fresh, path) == 0
