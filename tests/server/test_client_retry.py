"""CacheClient resilience: bounded retries, deterministic backoff,
reconnect-on-failure, and the non-retry of non-idempotent ops."""

import socket

import pytest

from repro.server import CacheClient


def make_client(server, **kwargs):
    kwargs.setdefault("_sleep", lambda s: None)
    return CacheClient(port=server.port, **kwargs)


class TestValidationAndDefaults:
    def test_negative_retries_rejected(self, server):
        with pytest.raises(ValueError, match="retries"):
            make_client(server, retries=-1)

    def test_default_is_no_retry(self, server):
        with make_client(server) as client:
            assert client.retries == 0
            client._sock.shutdown(socket.SHUT_RDWR)  # break the transport
            with pytest.raises(OSError):
                client.get("k")
            assert client.reconnects == 0


class TestBackoffDeterminism:
    def test_same_seed_same_delays(self, server):
        with make_client(server, retry_seed=9) as a, \
                make_client(server, retry_seed=9) as b:
            assert [a._backoff_delay(i) for i in (1, 2, 3)] \
                == [b._backoff_delay(i) for i in (1, 2, 3)]

    def test_different_seed_different_delays(self, server):
        with make_client(server, retry_seed=1) as a, \
                make_client(server, retry_seed=2) as b:
            assert a._backoff_delay(1) != b._backoff_delay(1)

    def test_exponential_envelope(self, server):
        with make_client(server, backoff_base=0.1, backoff_factor=2.0,
                         backoff_jitter=0.5) as client:
            for attempt in (1, 2, 3):
                delay = client._backoff_delay(attempt)
                base = 0.1 * 2.0 ** (attempt - 1)
                assert base <= delay <= base * 1.5


class TestRetry:
    def test_reconnects_and_succeeds_after_connection_loss(self, server):
        slept = []
        with make_client(server, retries=2, _sleep=slept.append) as client:
            client.set("k", b"v")
            client._sock.shutdown(socket.SHUT_RDWR)  # drop the connection
            assert client.get("k") == b"v"
            assert client.reconnects == 1
            assert len(slept) == 1 and slept[0] > 0

    def test_retries_are_bounded(self, server):
        with make_client(server, retries=2) as client:
            calls = []

            def always_fails():
                calls.append(1)
                raise ConnectionError("down")

            with pytest.raises(ConnectionError):
                client._retry(always_fails)
            assert len(calls) == 3  # first try + two retries

    def test_each_idempotent_op_survives_a_drop(self, server):
        ops = [lambda c: c.set("k", b"v"), lambda c: c.get("k"),
               lambda c: c.gets("k"), lambda c: c.touch("k", 60),
               lambda c: c.delete("nope"), lambda c: c.stats(),
               lambda c: c.version(), lambda c: c.flush_all()]
        for op in ops:
            with make_client(server, retries=1) as client:
                client.set("k", b"v")
                client._sock.shutdown(socket.SHUT_RDWR)
                op(client)  # must not raise
                assert client.reconnects == 1

    def test_non_idempotent_ops_are_not_retried(self, server):
        with make_client(server, retries=5) as client:
            client.set("n", b"1")
            _, cas_id = client.gets("n")
            client._sock.shutdown(socket.SHUT_RDWR)
            with pytest.raises(OSError):
                client.incr("n")
            client._reconnect()
            client._sock.shutdown(socket.SHUT_RDWR)
            with pytest.raises(OSError):
                client.cas("n", b"2", cas_id)
            assert client.reconnects == 1  # only the explicit one
