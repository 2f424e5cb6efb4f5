"""Fixtures shared by the server tests: one server over one cache."""

import socket

import pytest

from repro.cache import SizeClassConfig
from repro.core import PamaPolicy
from repro.server import CacheClient, ShardSet, start_async_server


@pytest.fixture
def server():
    """A running server over a one-shard 2 MiB PAMA cache of 64 KiB
    slabs, on an ephemeral port (``server.port``)."""
    handle = start_async_server(ShardSet(
        2 << 20, PamaPolicy, SizeClassConfig(slab_size=64 << 10)))
    yield handle
    handle.stop()


@pytest.fixture
def cache(server):
    """The server's one cache."""
    return server.shards.shards[0]


@pytest.fixture
def client(server):
    with CacheClient(port=server.port) as c:
        yield c


@pytest.fixture
def raw(server):
    """A bare socket to the server and a binary reader over it."""
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=5.0) as sock:
        yield sock, sock.makefile("rb")
