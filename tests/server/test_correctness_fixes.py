"""End-to-end tests for the protocol correctness fixes.

Covers gets/cas (cas ids on the wire), connection resync after a
malformed storage line, strict unsigned incr/decr parsing, the
SERVER_ERROR path for unexpected failures, and ``stats detail``.
"""

import socket

import pytest


class TestGetsCas:
    def test_gets_returns_cas_that_changes_on_store(self, client):
        client.set("k", b"one")
        value, cas1 = client.gets("k")
        assert value == b"one"
        client.set("k", b"two")
        value, cas2 = client.gets("k")
        assert value == b"two"
        assert cas2 > cas1

    def test_cas_round_trip(self, client):
        client.set("k", b"v1")
        _, cas = client.gets("k")
        assert client.cas("k", b"v2", cas) is True          # STORED
        assert client.get("k") == b"v2"
        assert client.cas("k", b"v3", cas) is False         # EXISTS (stale)
        assert client.get("k") == b"v2"
        client.delete("k")
        assert client.cas("k", b"v4", cas) is None          # NOT_FOUND

    def test_wire_formats(self, raw):
        sock, f = raw
        sock.sendall(b"set k 7 0 3\r\nabc\r\n")
        assert f.readline() == b"STORED\r\n"
        sock.sendall(b"get k\r\n")
        assert len(f.readline().split()) == 4   # VALUE key flags bytes
        f.readline(), f.readline()              # data, END
        sock.sendall(b"gets k\r\n")
        parts = f.readline().split()
        assert len(parts) == 5                  # ... + cas unique
        assert parts[:4] == [b"VALUE", b"k", b"7", b"3"]
        assert parts[4].isdigit()

    def test_a_unique_of_zero_never_matches(self, raw):
        # a store leaves the item without a unique (0) until a gets
        # issues one; 0 is not a unique a client can hold
        sock, f = raw
        sock.sendall(b"set k 0 0 1\r\na\r\n")
        assert f.readline() == b"STORED\r\n"
        sock.sendall(b"cas k 0 0 1 0\r\nb\r\n")
        assert f.readline() == b"EXISTS\r\n"
        sock.sendall(b"gets k\r\n")
        assert f.readline().split()[4] != b"0"

    def test_cas_requires_unsigned_unique(self, raw):
        sock, f = raw
        sock.sendall(b"cas k 0 0 3 -1\r\nabc\r\n")
        assert f.readline().startswith(b"CLIENT_ERROR")
        # byte count was readable, so the data block is drained and the
        # connection stays in sync
        sock.sendall(b"version\r\n")
        assert f.readline().startswith(b"VERSION")


class TestStorageLineResync:
    def test_bad_flags_drains_data_block(self, raw):
        sock, f = raw
        # flags is not an integer but the byte count (7) is readable:
        # the server must consume the 7+2 payload bytes — which spell a
        # valid command — without executing them.
        sock.sendall(b"set k bad 0 7\r\nversion\r\n")
        assert f.readline().startswith(b"CLIENT_ERROR")
        sock.sendall(b"version\r\n")
        assert f.readline().startswith(b"VERSION")
        sock.sendall(b"quit\r\n")
        assert f.readline() == b""  # exactly one VERSION was answered

    def test_unknowable_byte_count_closes_connection(self, raw):
        sock, f = raw
        sock.sendall(b"set k 0 0 xyz\r\n")
        assert f.readline().startswith(b"CLIENT_ERROR")
        assert f.readline() == b""  # server closed: resync impossible

    def test_bad_trailer_closes_connection(self, raw):
        sock, f = raw
        sock.sendall(b"set k 0 0 3\r\nabcXYjunk")
        assert f.readline().startswith(b"CLIENT_ERROR")
        assert f.readline() == b""

    def test_eof_mid_data_block_is_silent(self, raw):
        sock, f = raw
        sock.sendall(b"set k 0 0 10\r\nabc")
        sock.shutdown(socket.SHUT_WR)
        assert f.readline() == b""  # no reply, no hang

    def test_eof_mid_drain_is_silent(self, raw):
        sock, f = raw
        sock.sendall(b"set k bad 0 10\r\nabc")
        sock.shutdown(socket.SHUT_WR)
        assert f.readline() == b""


class TestStrictIncrDecr:
    def test_incr_decr_still_work(self, client):
        client.set("n", b"10")
        assert client.incr("n", 5) == 15
        assert client.decr("n", 20) == 0  # clamped

    @pytest.mark.parametrize("delta", [b"+5", b"1_0", b"5.0", b"-3"])
    def test_signed_or_exotic_deltas_rejected(self, raw, delta):
        sock, f = raw
        sock.sendall(b"set n 0 0 2\r\n10\r\n")
        assert f.readline() == b"STORED\r\n"
        sock.sendall(b"incr n " + delta + b"\r\n")
        assert f.readline().startswith(b"CLIENT_ERROR")
        # parse error only — connection stays usable
        sock.sendall(b"incr n 1\r\n")
        assert f.readline() == b"11\r\n"

    @pytest.mark.parametrize("value", [b"+10", b" 10 ", b"1_0", b"ten"])
    def test_non_numeric_stored_values_rejected(self, client, value):
        client.set("n", value)
        with pytest.raises(RuntimeError, match="CLIENT_ERROR"):
            client.incr("n")


def raising_on(key, method):
    """``method``, except that it raises ``RuntimeError("boom")`` when
    called for ``key``."""
    def call(k, *args, **kwargs):
        if k == key:
            raise RuntimeError("boom")
        return method(k, *args, **kwargs)
    return call


class TestServerErrorPath:
    # A plain ``get k`` line is served by the connection's own frame,
    # which calls ``lookup``; ``gets k`` goes through ``_execute``,
    # which calls ``get``.

    def test_unexpected_exception_replies_then_closes(self, server, cache,
                                                      raw):
        sock, f = raw
        cache.lookup = raising_on("k", cache.lookup)
        sock.sendall(b"get k\r\n")
        assert f.readline() == b"SERVER_ERROR boom\r\n"
        assert f.readline() == b""  # closed after the reply
        assert server.registry.get("server_errors_total").value == 1

    def test_gets_replies_then_closes(self, server, cache, raw):
        sock, f = raw
        cache.get = raising_on("k", cache.get)
        sock.sendall(b"gets k\r\n")
        assert f.readline() == b"SERVER_ERROR boom\r\n"
        assert f.readline() == b""
        assert server.registry.get("server_errors_total").value == 1

    @pytest.mark.parametrize("verb,method", [(b"get", "lookup"),
                                             (b"gets", "get")])
    def test_failing_multi_key_read_answers_only_the_error(
            self, server, cache, raw, verb, method):
        # the first key was found and formatted before the second
        # raised: none of that reply may precede the error
        sock, f = raw
        setattr(cache, method, raising_on("b", getattr(cache, method)))
        sock.sendall(b"set a 0 0 1\r\nx\r\n" + verb + b" a b\r\n")
        sock.shutdown(socket.SHUT_WR)
        assert f.read() == b"STORED\r\nSERVER_ERROR boom\r\n"
        assert server.registry.get("server_errors_total").value == 1


class TestStatsDetail:
    def test_plain_stats_has_flat_counters_only(self, client):
        client.set("k", b"v")
        stats = client.stats()
        assert int(stats["cache_sets_total"]) >= 1
        assert not any("latency" in k for k in stats)

    def test_stats_detail_exposes_registry_and_events(self, client):
        client.set("k", b"v")
        client.get("k")
        stats = client.stats("detail")
        assert int(stats["cache_hits_total"]) >= 1
        assert int(stats[
            "server_cmd_latency_seconds{cmd=get,shard=0}_count"]) >= 1
        assert "server_cmd_latency_seconds{cmd=get,shard=0}_p99" in stats
        assert int(stats["events_recorded"]) >= 0

    def test_stats_rejects_unknown_argument(self, raw):
        sock, f = raw
        sock.sendall(b"stats bogus\r\n")
        assert f.readline().startswith(b"CLIENT_ERROR")
