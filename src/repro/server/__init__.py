"""Memcached-protocol serving over the slab cache.

:class:`AsyncCacheServer` (``start_async_server`` runs one on a
background thread) speaks the memcached text protocol: one event loop,
pipelined parsing, write coalescing, and a hash-partitioned
:class:`~repro.server.shard.ShardSet` (one cache by default) with no
hot-path locks.  :class:`CacheClient` and the ``loadgen`` driver talk
to it over real sockets.
"""

from repro.server.async_server import (AsyncCacheServer, AsyncServerHandle,
                                       start_async_server)
from repro.server.client import CacheClient
from repro.server.loadgen import (LoadgenConfig, LoadgenResult, run_loadgen,
                                  run_loadgen_sync)
from repro.server.protocol import (ProtocolError, StreamDecoder,
                                   format_request, parse_command)
from repro.server.shard import ShardSet, shard_of

__all__ = ["AsyncCacheServer", "AsyncServerHandle", "start_async_server",
           "ShardSet", "shard_of", "CacheClient", "parse_command",
           "format_request", "ProtocolError", "StreamDecoder",
           "LoadgenConfig", "LoadgenResult", "run_loadgen",
           "run_loadgen_sync"]
