"""Multi-client stress test: the server under concurrent load."""

import threading

from repro.server import CacheClient


class TestConcurrentClients:
    N_THREADS = 8
    OPS_PER_THREAD = 150

    def test_parallel_mixed_workload(self, server, cache):
        errors: list[Exception] = []

        def worker(tid: int) -> None:
            try:
                with CacheClient(port=server.port) as client:
                    for i in range(self.OPS_PER_THREAD):
                        key = f"t{tid}:k{i % 20}"
                        if i % 3 == 0:
                            client.set(key, f"v{tid}:{i}".encode(),
                                       penalty=0.01 * (tid + 1))
                        elif i % 3 == 1:
                            value = client.get(key)
                            if value is not None:
                                assert value.startswith(f"v{tid}:".encode())
                        else:
                            client.delete(key)
            except Exception as exc:  # noqa: BLE001 - surface to main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(self.N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors
        cache.check_invariants()

    def test_shared_counter_under_contention(self, server):
        with CacheClient(port=server.port) as seed:
            seed.set("counter", b"0")
        increments_per_thread = 50
        errors: list[Exception] = []

        def bump() -> None:
            try:
                with CacheClient(port=server.port) as client:
                    for _ in range(increments_per_thread):
                        client.incr("counter", 1)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=bump) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors
        with CacheClient(port=server.port) as check:
            # one event loop runs each incr whole: no lost updates
            assert check.get("counter") == str(
                6 * increments_per_thread).encode()
