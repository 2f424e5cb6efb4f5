"""The driver's reply parser, request encoding and the echo server's
request splitter."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from driver import (DELETE, GET, HIT, LINE, MISS, SET, STATS, ProtocolViolation,
                    ReplyParser, Requests, canned_hit)
from echo_server import answer, canned_replies

replies = st.one_of(
    st.tuples(st.just(HIT), st.from_regex(rb"k[0-9]{1,12}", fullmatch=True),
              st.integers(0, 2**32 - 1), st.binary(max_size=200)),
    st.just((MISS,)),
    st.sampled_from([(LINE, b"STORED"), (LINE, b"NOT_STORED"),
                     (LINE, b"DELETED"), (LINE, b"NOT_FOUND"),
                     (LINE, b"SERVER_ERROR out of memory")]),
    st.tuples(st.just(STATS), st.dictionaries(
        st.from_regex(r"[a-z_]{1,10}", fullmatch=True),
        st.from_regex(r"[0-9.]{1,8}", fullmatch=True), max_size=4)
        .filter(bool)),
)


def wire(reply) -> bytes:
    if reply[0] == HIT:
        _, key, flags, data = reply
        return (b"VALUE %b %d %d\r\n" % (key, flags, len(data)) + data
                + b"\r\nEND\r\n")
    if reply[0] == MISS:
        return b"END\r\n"
    if reply[0] == STATS:
        return b"".join(f"STAT {k} {v}\r\n".encode()
                        for k, v in reply[1].items()) + b"END\r\n"
    return reply[1] + b"\r\n"


@settings(max_examples=200, deadline=None)
@given(st.lists(replies, max_size=12), st.data())
def test_parser_gives_the_same_replies_at_any_chunk_boundaries(sent, data):
    """Values may hold CRLF, "END" and "VALUE": the byte count rules."""
    stream = b"".join(wire(r) for r in sent)
    parser, got, at = ReplyParser(), [], 0
    while at < len(stream):
        step = data.draw(st.integers(1, max(1, len(stream) - at)))
        parser.feed(stream[at:at + step])
        at += step
        while (reply := parser.next()) is not None:
            got.append(reply)
    assert got == sent
    assert parser.next() is None and not parser.buf


def test_parser_rejects_a_value_block_without_end():
    parser = ReplyParser()
    parser.feed(b"VALUE k1 0 2\r\nabXXSTORED\r\n")
    with pytest.raises(ProtocolViolation):
        parser.next()


def make_requests(seed: int, n: int = 400) -> Requests:
    from repro.traces import generate, get_profile

    trace = generate(get_profile("zippydb").scaled(0.01), n, seed=seed)
    return Requests(trace.ops.tolist(), trace.keys.tolist(),
                    trace.value_sizes.tolist(), trace.penalties.tolist())


def test_request_encoding_is_deterministic_in_the_seed():
    def stream(seed):
        req = make_requests(seed)
        return b"".join(req.wire(row) for row in range(len(req)))

    assert stream(5) == stream(5)
    assert stream(5) != stream(6)


def test_encoded_requests_decode_to_the_trace_rows():
    from repro.server import protocol as p

    req = make_requests(7)
    decoder = p.StreamDecoder()
    decoder.feed(b"".join(req.wire(row) for row in range(len(req))))
    events = list(decoder.events())
    assert len(events) == len(req)
    for row, (tag, cmd, data) in enumerate(events):
        assert tag == p.EV_COMMAND
        key = req.key[row].decode()
        if req.kind[row] == GET:
            assert cmd == p.GetCommand((key,))
        elif req.kind[row] == DELETE:
            assert cmd == p.DeleteCommand(key, False)
        else:
            assert req.kind[row] == SET and cmd.key == key
            assert cmd.penalty == pytest.approx(req.penalty[row], abs=1e-6)
            assert data == req.value(row) and len(data) == req.size[row]
    # a fill SET carries the GET row's value and penalty
    row = req.kind.index(GET)
    decoder.feed(req.wire(row, fill=True))
    (_, cmd, data), = decoder.events()
    assert (cmd.verb, cmd.key, data) == ("set", req.key[row].decode(),
                                         req.value(row))


def test_values_differ_between_keys_of_equal_size():
    req = Requests([SET, SET], [1, 2], [64, 64], [0.1, 0.1])
    assert req.value(0) != req.value(1)
    assert req.value(0)[1:] == req.value(1)[:-1]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 5000))
def test_echo_server_answers_every_request_at_any_chunk_boundaries(seed, most):
    rng = random.Random(seed)
    req = make_requests(9, n=60)
    replies = canned_replies(req)
    stream = b"".join(req.wire(row) for row in range(len(req)))
    buf, out, at = bytearray(), b"", 0
    while at < len(stream):
        step = rng.randint(1, most)
        buf += stream[at:at + step]
        at += step
        out += answer(buf, replies)
    parser = ReplyParser()
    parser.feed(out)
    for row in range(len(req)):
        reply = parser.next()
        if req.kind[row] == GET:
            if canned_hit(req.keys[row]):
                assert reply[0] == HIT and reply[3] == req.value(row)
            else:
                assert reply == (MISS,)
        elif req.kind[row] == SET:
            assert reply == (LINE, b"STORED")
        else:
            assert reply == (LINE, b"DELETED")
    assert parser.next() is None and not buf
