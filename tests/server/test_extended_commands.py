"""Tests for the extended memcached commands over the wire."""

import pytest

from repro.server import protocol as p


class TestParseExtended:
    def test_storage_verbs(self):
        for verb in ("add", "replace", "append", "prepend"):
            cmd = p.parse_command(f"{verb} k 0 0 3".encode())
            assert isinstance(cmd, p.SetCommand)
            assert cmd.verb == verb

    def test_incr_decr(self):
        cmd = p.parse_command(b"incr counter 5")
        assert isinstance(cmd, p.IncrDecrCommand)
        assert cmd.delta == 5 and not cmd.decrement
        assert p.parse_command(b"decr counter 2").decrement

    def test_touch_and_flush(self):
        assert isinstance(p.parse_command(b"touch k 60"), p.TouchCommand)
        assert isinstance(p.parse_command(b"flush_all"), p.FlushAllCommand)

    @pytest.mark.parametrize("line", [
        b"incr k", b"incr k abc", b"incr k -1", b"touch k",
        b"touch k abc", b"flush_all now please",
    ])
    def test_malformed_extended(self, line):
        with pytest.raises(p.ProtocolError):
            p.parse_command(line)


class TestResolveExptime:
    def test_semantics(self):
        now = 1_000_000.0
        assert p.resolve_exptime(0, now) == 0.0
        assert p.resolve_exptime(60, now) == now + 60
        assert p.resolve_exptime(p.RELATIVE_EXPTIME_LIMIT, now) \
            == now + p.RELATIVE_EXPTIME_LIMIT
        absolute = p.RELATIVE_EXPTIME_LIMIT + 10
        assert p.resolve_exptime(absolute, now) == float(absolute)
        assert p.resolve_exptime(-1, now) < now


class TestAddReplace:
    def test_add_only_when_absent(self, client):
        assert client.add("k", b"first")
        assert not client.add("k", b"second")
        assert client.get("k") == b"first"

    def test_replace_only_when_present(self, client):
        assert not client.replace("k", b"nope")
        client.set("k", b"v1")
        assert client.replace("k", b"v2")
        assert client.get("k") == b"v2"


class TestAppendPrepend:
    def test_append(self, client):
        client.set("k", b"hello")
        assert client.append("k", b" world")
        assert client.get("k") == b"hello world"

    def test_prepend(self, client):
        client.set("k", b"world")
        assert client.prepend("k", b"hello ")
        assert client.get("k") == b"hello world"

    def test_concat_on_absent_fails(self, client):
        assert not client.append("missing", b"x")
        assert not client.prepend("missing", b"x")


class TestIncrDecr:
    def test_incr(self, client):
        client.set("n", b"10")
        assert client.incr("n", 5) == 15
        assert client.get("n") == b"15"

    def test_decr_clamps_at_zero(self, client):
        client.set("n", b"3")
        assert client.decr("n", 10) == 0

    def test_absent_returns_none(self, client):
        assert client.incr("missing") is None

    def test_non_numeric_error(self, client):
        client.set("s", b"abc")
        with pytest.raises(RuntimeError):
            client.incr("s")


class TestTouchFlush:
    def test_touch_over_wire(self, cache, client):
        client.set("k", b"v", exptime=1)
        assert client.touch("k", 3600)
        item = cache.index["k"]
        assert item.expires_at > cache.clock() + 3000

    def test_touch_absent(self, client):
        assert not client.touch("missing", 60)

    def test_exptime_expires_items(self, server, client):
        client.set("k", b"v", exptime=-1)  # negative: expired on arrival
        assert client.get("k") is None

    def test_flush_all(self, client):
        for i in range(10):
            client.set(f"k{i}", b"v")
        client.flush_all()
        assert all(client.get(f"k{i}") is None for i in range(10))
