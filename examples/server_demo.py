#!/usr/bin/env python
"""Run the memcached-protocol server with a PAMA-managed cache.

Starts the server in-process, drives it with the client over a real
socket — including a miss path that "recomputes" values from the
simulated backend and stores them with their measured penalty — then
prints the server-side stats.

    python examples/server_demo.py
"""

import random
import time

from repro.backend import SimulatedBackend
from repro.cache import SizeClassConfig
from repro.core import PamaPolicy
from repro.server import CacheClient, ShardSet, start_async_server


def main() -> None:
    shards = ShardSet(8 << 20, PamaPolicy,
                      SizeClassConfig(slab_size=64 << 10))
    server = start_async_server(shards)
    backend = SimulatedBackend()
    print(f"server listening on 127.0.0.1:{server.port} "
          f"({shards.shards[0].describe()})\n")

    rng = random.Random(0)
    hits = misses = 0
    backend_time = 0.0
    with CacheClient(port=server.port) as client:
        t0 = time.perf_counter()
        for i in range(3_000):
            key = f"user:{rng.randrange(600)}"
            value = client.get(key)
            if value is None:
                misses += 1
                # cache-aside pattern: recompute via the backend, then
                # store with the measured penalty riding in the flags.
                size = rng.choice((120, 800, 4_000))
                cost = backend.fetch(hash(key) & 0xFFFF, size, now=i * 0.01)
                backend_time += cost
                client.set(key, b"x" * size, penalty=cost)
            else:
                hits += 1
        elapsed = time.perf_counter() - t0

        stats = client.stats()
        print(f"client: {hits} hits / {misses} misses in {elapsed:.2f}s "
              f"({3_000 / elapsed:.0f} ops/s over the socket)")
        print(f"backend: {backend.fetches} fetches, "
              f"{backend_time:.1f}s simulated recompute time avoided by hits")
        print("\nserver stats:")
        for key in ("gets", "hits", "misses", "sets", "evictions",
                    "migrations", "items", "slabs_total", "slabs_free",
                    "policy"):
            print(f"  {key:12s} {stats[key]}")

    server.stop()


if __name__ == "__main__":
    main()
