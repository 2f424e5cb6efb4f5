"""Failure-injection tests: malformed inputs, corrupt files, abrupt
disconnects, and policy-contract violations must fail loudly and
leave the system consistent."""

import socket

import numpy as np
import pytest

from repro.cache import SlabCache, SizeClassConfig
from repro.cache.errors import OutOfMemoryError, PolicyError
from repro.cache.snapshot import load_snapshot, save_snapshot
from repro.core import PamaPolicy
from repro.policies import (GreedyDualSizePolicy, OraclePolicy,
                            StaticMemcachedPolicy)
from repro.policies.base import AllocationPolicy
from repro.server import start_server
from repro.sim import simulate
from repro.traces import ETC, generate, load_npz


def small_cache(slabs=4, policy=None):
    classes = SizeClassConfig(slab_size=4096, base_size=64)
    return SlabCache(slabs * 4096, policy or StaticMemcachedPolicy(),
                     classes)


class TestCorruptFiles:
    def test_truncated_npz_trace(self, tmp_path):
        path = tmp_path / "broken.npz"
        path.write_bytes(b"PK\x03\x04 this is not a real archive")
        with pytest.raises(Exception):
            load_npz(path)

    def test_snapshot_wrong_version(self, tmp_path):
        path = tmp_path / "snap.npz"
        np.savez_compressed(path, version=np.int64(999),
                            keys=np.array([], dtype=np.int64),
                            key_sizes=np.array([], dtype=np.int32),
                            value_sizes=np.array([], dtype=np.int32),
                            penalties=np.array([]),
                            expiries=np.array([]))
        with pytest.raises(ValueError):
            load_snapshot(small_cache(), path)

    def test_snapshot_missing_fields(self, tmp_path):
        path = tmp_path / "snap.npz"
        np.savez_compressed(path, version=np.int64(1))
        with pytest.raises(KeyError):
            load_snapshot(small_cache(), path)

    def test_partial_restore_leaves_cache_consistent(self, tmp_path):
        donor = small_cache(slabs=8)
        for i in range(100):
            donor.set(i, 8, 50, 0.1)
        path = tmp_path / "snap.npz"
        save_snapshot(donor, path)
        # a 1-slab target cannot hold everything; restore must still
        # leave a fully consistent cache
        tiny = small_cache(slabs=1)
        stored = load_snapshot(tiny, path)
        assert stored == 100  # all SETs succeeded (with evictions)
        tiny.check_invariants()


class TestMisbehavingPolicy:
    def test_empty_donor_is_rejected(self):
        class BadPolicy(AllocationPolicy):
            name = "bad"

            def resolve_pressure(self, queue, must_migrate):
                # names a queue that owns no slabs
                return self.cache.queue_for(queue.class_idx + 1, 0)

        cache = small_cache(slabs=1, policy=BadPolicy())
        per_slab = 4096 // 64
        for i in range(per_slab):
            cache.set(i, 8, 50, 0.1)
        with pytest.raises(PolicyError):
            cache.set("overflow", 8, 50, 0.1)

    def test_foreign_victim_is_rejected(self):
        class BadVictim(AllocationPolicy):
            name = "bad-victim"

            def resolve_pressure(self, queue, must_migrate):
                return None

            def choose_victim(self, queue):
                # return an item from a different queue
                for q in self.cache.iter_queues():
                    if q is not queue and len(q.lru):
                        return q.lru.back
                return None

        cache = small_cache(slabs=2, policy=BadVictim())
        cache.set("other", 8, 3000, 0.1)  # populates a second queue
        per_slab = 4096 // 64
        for i in range(per_slab):
            cache.set(i, 8, 50, 0.1)
        with pytest.raises(PolicyError):
            cache.set("overflow", 8, 50, 0.1)

    @pytest.mark.parametrize("base", [GreedyDualSizePolicy, OraclePolicy])
    def test_item_level_policies_choose_every_victim(self, base):
        # The cache asks choose_victim only of policies that override
        # it; the two that do must still be asked on every eviction,
        # and a victim from another queue must still be refused.
        asked, foreign = [], []
        trace = generate(ETC.scaled(0.01), 4_000, seed=5)

        class Watched(base):
            def choose_victim(self, queue):
                victim = super().choose_victim(queue)
                asked.append(victim)
                if foreign:
                    return foreign[0]
                return victim

        classes = SizeClassConfig(slab_size=4096, base_size=64)
        policy = Watched(trace) if base is OraclePolicy else Watched()
        cache = SlabCache(8 * 4096, policy, classes)
        simulate(trace, cache, window_gets=1_000)
        cache.check_invariants()
        assert cache.stats.evictions > 0
        assert len(asked) == cache.stats.evictions
        assert all(victim is not None for victim in asked)

        full = max(cache.iter_queues(), key=lambda q: len(q.lru))
        other = next(q for q in cache.iter_queues()
                     if q is not full and len(q.lru))
        foreign.append(other.lru.back)
        with pytest.raises(PolicyError):
            cache._evict_one(full)

    def test_oom_on_zero_donors(self):
        cache = small_cache(slabs=1, policy=StaticMemcachedPolicy())
        per_slab = 4096 // 64
        for i in range(per_slab):
            cache.set(i, 8, 50, 0.1)
        # a class with no slab and no fallback donor -> failed SET, not
        # a crash, and the cache stays consistent
        assert not cache.set("big", 8, 3000, 0.1)
        cache.check_invariants()


class TestServerRobustness:
    @pytest.fixture
    def server(self):
        cache = SlabCache(1 << 20, PamaPolicy(),
                          SizeClassConfig(slab_size=64 << 10))
        srv = start_server(cache)
        yield srv
        srv.shutdown()
        srv.server_close()

    def test_abrupt_disconnect_mid_set(self, server):
        # announce 100 bytes, send 10, slam the connection
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall(b"set k 0 0 100\r\n" + b"x" * 10)
        # the server must survive and keep serving other clients
        from repro.server import CacheClient
        with CacheClient(port=server.port) as client:
            assert client.set("ok", b"fine")
            assert client.get("ok") == b"fine"
        assert "k" not in server.cache

    def test_garbage_bytes(self, server):
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            f = sock.makefile("rb")
            sock.sendall(b"\x00\x01\x02\xff\r\n")
            assert f.readline().startswith(b"CLIENT_ERROR")
            sock.sendall(b"version\r\n")
            assert f.readline().startswith(b"VERSION")

    def test_wrong_data_trailer(self, server):
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            f = sock.makefile("rb")
            sock.sendall(b"set k 0 0 3\r\nabcXX")  # bad trailer
            assert f.readline().startswith(b"CLIENT_ERROR")
