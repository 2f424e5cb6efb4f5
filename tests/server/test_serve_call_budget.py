"""A request served by ``_Connection._serve`` stays inside its budget of
Python frames.

The per-request cost of the serving path in CPython is dispatch, as it
is on the replay side (``tests/cache/test_hit_call_budget.py``).  A
plain ``get`` used to enter the decoder's generator, ``parse_command``,
``_check_key``, the command's ``__init__``, ``_execute``, the one-shard
router, ``SlabCache.get`` on top of ``lookup``, ``format_value``,
``format_get_tail`` and ``verb_of`` — ten frames before the cache and
the histogram did any work.  ``_serve`` now hands a run of plain
``get`` / ``set`` / ``delete`` lines to ``_serve_plain``, which decodes,
routes, executes and answers each in its own frame, so what is left per
request is the cache operation and one ``Histogram.record``.  Counts
are frames entered under ``memcached``, whose hooks are no-ops,
``_serve``'s own frame left out.
"""

import pytest

from repro.cache import SizeClassConfig
from repro.policies import make_policy
from repro.server import ShardSet
from repro.server.async_server import AsyncCacheServer, _Connection
from tests.cache.test_pressure_call_budget import calls_during
from tests.server.test_request_path import RecordingTransport

#: frames of one pass besides its requests': ``StreamDecoder.idle``,
#: ``_serve_plain``, the ``events()`` generator (which finds nothing
#: left and compacts the buffer), the bytes-written counter and the
#: transport's write
PASS = 5
#: frames per request: the cache operation's and ``Histogram.record``
FRAMES = {
    "hit": 3,        # lookup, move_to_front, record
    "miss": 2,       # lookup, record
    "store": 5,      # the probe's lookup, set, Item(), push_front, record
    "delete": 4,     # delete, _unlink, LRUList.remove, record
}
PIPELINE = 16


@pytest.fixture
def conn() -> _Connection:
    server = AsyncCacheServer(ShardSet(
        1 << 20, lambda: make_policy("memcached"),
        SizeClassConfig(slab_size=64 << 10)))
    conn = _Connection(server)
    conn.connection_made(RecordingTransport())
    # the sizes, a slab and every histogram exist before counting
    serve(conn, b"set w 0 0 3\r\nabc\r\nset www 0 0 3\r\nabc\r\n"
          b"get w\r\ndelete w\r\n")
    return conn


def serve(conn: _Connection, data: bytes) -> int:
    """Frames entered by one pass of ``_serve`` over ``data``."""
    conn.decoder.feed(data)
    del conn.transport.written[:]
    return calls_during(conn._serve)


@pytest.mark.parametrize("requests", [1, PIPELINE])
class TestFramesPerRequest:
    def test_get_hit(self, conn, requests):
        serve(conn, b"set a 0 0 3\r\nabc\r\nset b 0 0 3\r\nabc\r\n")
        assert serve(conn, b"get a\r\n" * requests) \
            == PASS + requests * FRAMES["hit"]
        assert conn.transport.written \
            == b"VALUE a 0 3\r\nabc\r\nEND\r\n" * requests

    def test_get_miss(self, conn, requests):
        assert serve(conn, b"get nope\r\n" * requests) \
            == PASS + requests * FRAMES["miss"]
        assert conn.transport.written == b"END\r\n" * requests

    def test_set_of_a_new_key(self, conn, requests):
        data = b"".join(b"set k%02d 0 0 3\r\nabc\r\n" % i
                        for i in range(requests))
        assert serve(conn, data) == PASS + requests * FRAMES["store"]
        assert conn.transport.written == b"STORED\r\n" * requests

    def test_delete(self, conn, requests):
        serve(conn, b"".join(b"set k%02d 0 0 3\r\nabc\r\n" % i
                             for i in range(requests)))
        data = b"".join(b"delete k%02d\r\n" % i for i in range(requests))
        assert serve(conn, data) == PASS + requests * FRAMES["delete"]
        assert conn.transport.written == b"DELETED\r\n" * requests
