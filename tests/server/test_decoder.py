"""Unit tests for the incremental pipelined decoder."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server import protocol as p


def drain(decoder):
    return list(decoder.events())


def feed_all(data: bytes, chunk: int = 0):
    """Feed ``data`` (whole, or in ``chunk``-byte pieces); return events."""
    d = p.StreamDecoder()
    events = []
    if chunk:
        for i in range(0, len(data), chunk):
            d.feed(data[i:i + chunk])
            events.extend(d.events())
    else:
        d.feed(data)
        events.extend(d.events())
    return events


class TestBasicDecoding:
    def test_single_get(self):
        (ev,) = feed_all(b"get alpha\r\n")
        assert ev[0] == p.EV_COMMAND
        assert ev[1] == p.GetCommand(keys=("alpha",))
        assert ev[2] is None

    def test_storage_with_data_block(self):
        (ev,) = feed_all(b"set k 7 0 3\r\nabc\r\n")
        assert ev[0] == p.EV_COMMAND
        assert ev[1].verb == "set" and ev[1].nbytes == 3
        assert ev[2] == b"abc"

    def test_pipelined_burst_decodes_in_one_pass(self):
        data = (b"set a 0 0 1\r\nx\r\n"
                b"get a\r\n"
                b"delete a noreply\r\n"
                b"version\r\n")
        events = feed_all(data)
        kinds = [type(ev[1]).__name__ for ev in events]
        assert kinds == ["SetCommand", "GetCommand", "DeleteCommand",
                        "VersionCommand"]

    def test_empty_lines_are_skipped(self):
        events = feed_all(b"\r\n\r\nversion\r\n")
        assert len(events) == 1
        assert isinstance(events[0][1], p.VersionCommand)

    def test_bare_lf_line_endings_accepted(self):
        (ev,) = feed_all(b"get alpha\n")
        assert ev[1] == p.GetCommand(keys=("alpha",))

    def test_value_containing_crlf_survives(self):
        payload = b"a\r\nEND\r\nb"
        (ev,) = feed_all(b"set k 0 0 %d\r\n%s\r\n" % (len(payload), payload))
        assert ev[2] == payload


class TestChunkedArrival:
    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_byte_at_a_time_equals_one_shot(self, chunk):
        data = (b"set k 1 0 5\r\nhello\r\n"
                b"gets k\r\n"
                b"incr n 4\r\n"
                b"quit\r\n")
        assert feed_all(data, chunk=chunk) == feed_all(data)

    def test_data_block_split_across_chunks(self):
        d = p.StreamDecoder()
        d.feed(b"set k 0 0 6\r\nfoo")
        assert drain(d) == []
        d.feed(b"bar\r\nversion\r\n")
        events = drain(d)
        assert events[0][2] == b"foobar"
        assert isinstance(events[1][1], p.VersionCommand)

    def test_buffered_counts_unconsumed_bytes(self):
        d = p.StreamDecoder()
        d.feed(b"set k 0 0 10\r\nabc")
        drain(d)
        assert d.buffered == 3  # partial data block retained


class TestErrorRecovery:
    def test_recoverable_storage_error_drains_data_block(self):
        # flags is bad but the byte count (7) is readable: the 7+2
        # payload bytes spell a valid command and must NOT be decoded.
        events = feed_all(b"set k bad 0 7\r\nversion\r\nversion\r\n")
        assert events[0][0] == p.EV_ERROR
        assert len(events) == 2
        assert isinstance(events[1][1], p.VersionCommand)

    def test_drain_split_across_chunks(self):
        d = p.StreamDecoder()
        d.feed(b"set k bad 0 10\r\nabc")
        assert drain(d) == []  # still draining, no event yet
        d.feed(b"0123456\r\nversion\r\n")
        events = drain(d)
        assert events[0][0] == p.EV_ERROR
        assert isinstance(events[1][1], p.VersionCommand)

    def test_unknowable_byte_count_is_fatal(self):
        events = feed_all(b"set k 0 0 xyz\r\nwhatever")
        assert events[-1][0] == p.EV_FATAL
        d = p.StreamDecoder()
        d.feed(b"set k 0 0 xyz\r\n")
        list(d.events())
        assert d.closed
        d.feed(b"version\r\n")  # refused after close
        assert drain(d) == []

    def test_bad_trailer_is_fatal(self):
        events = feed_all(b"set k 0 0 3\r\nabcXYjunk")
        assert events == [(p.EV_FATAL, "bad data chunk")]

    def test_unknown_command_is_recoverable(self):
        events = feed_all(b"bogus\r\nversion\r\n")
        assert events[0][0] == p.EV_ERROR
        assert isinstance(events[1][1], p.VersionCommand)

    def test_oversized_line_is_fatal(self):
        events = feed_all(b"g" * (p.StreamDecoder.MAX_LINE + 2))
        assert events == [(p.EV_FATAL, "command line too long")]

    def test_long_line_is_fatal_however_it_arrives(self):
        # one shot the newline is in the buffer, byte at a time it is
        # not yet: both must reach the same verdict
        data = b"get " + b"k " * (p.StreamDecoder.MAX_LINE // 2) + b"\r\n"
        assert feed_all(data) == [(p.EV_FATAL, "command line too long")]
        assert feed_all(data, chunk=1) == feed_all(data)

    def test_longest_allowed_line_decodes(self):
        line = b"get " + b" ".join([b"k" * 100] * 80)
        line += b" " + b"z" * (p.StreamDecoder.MAX_LINE - len(line) - 2)
        data = line + b"\r\n"
        assert data.index(b"\n") == p.StreamDecoder.MAX_LINE
        for events in (feed_all(data), feed_all(data, chunk=1)):
            (ev,) = events
            assert len(ev[1].keys) == 81


class TestItemSizeLimit:
    """A storage line declaring more than the cache can store is not
    buffered: its block is discarded as it arrives."""

    CHUNK = 64 << 10

    def test_oversized_block_is_discarded_in_chunk_memory(self):
        limit = 1 << 20
        nbytes = 64 << 20
        d = p.StreamDecoder(max_item_size=limit)
        d.feed(b"set big 7 0 %d\r\n" % nbytes)
        assert drain(d) == []
        chunk = b"get x\r\n" * (self.CHUNK // 7)  # payload spelling commands
        sent = 0
        while sent < nbytes:
            piece = chunk[:min(len(chunk), nbytes - sent)]
            d.feed(piece)
            assert drain(d) == []
            assert d.buffered <= len(chunk)
            sent += len(piece)
        d.feed(b"\r\nget after\r\n")
        oversized, after = drain(d)
        assert oversized[0] == p.EV_COMMAND and oversized[2] is None
        assert oversized[1].key == "big" and oversized[1].nbytes == nbytes
        assert after == (p.EV_COMMAND, p.GetCommand(("after",)), None)
        assert d.buffered == 0

    def test_block_at_the_limit_is_delivered(self):
        d = p.StreamDecoder(max_item_size=8)
        d.feed(b"set k 0 0 8\r\n12345678\r\nset k 0 0 9\r\n123456789\r\n")
        at_limit, over = drain(d)
        assert at_limit[2] == b"12345678"
        assert over[1].nbytes == 9 and over[2] is None

    def test_oversized_noreply_keeps_its_flag(self):
        d = p.StreamDecoder(max_item_size=4)
        d.feed(b"set k 0 0 5 noreply\r\n12345\r\nversion\r\n")
        over, version = drain(d)
        assert over[1].noreply and over[2] is None
        assert isinstance(version[1], p.VersionCommand)

    def test_no_limit_by_default(self):
        (ev,) = feed_all(b"set k 0 0 70000\r\n" + b"x" * 70000 + b"\r\n")
        assert len(ev[2]) == 70000


class TestIdle:
    """``idle``: ``pos`` starts a request line, so a consumer may serve
    lines from ``buf`` itself."""

    def test_a_fresh_decoder_is_idle(self):
        assert p.StreamDecoder().idle

    def test_not_while_a_block_is_pending(self):
        d = p.StreamDecoder()
        d.feed(b"set k 0 0 3\r\nab")
        assert drain(d) == [] and not d.idle
        d.feed(b"c\r\nget k\r\n")
        events = d.events()
        assert next(events)[2] == b"abc"
        assert d.idle and d.buf.startswith(b"get k", d.pos)
        events.close()

    def test_not_while_a_block_is_discarded(self):
        d = p.StreamDecoder(max_item_size=4)
        d.feed(b"set k 0 0 5\r\nabc")
        assert drain(d) == [] and not d.idle
        d.feed(b"de\r\n")
        assert drain(d)[0][1].key == "k" and d.idle

    def test_not_once_closed(self):
        d = p.StreamDecoder()
        d.feed(b"set k 0 0 1\r\nxy\r\n")
        assert drain(d)[0][0] == p.EV_FATAL and not d.idle

    def test_serving_a_line_between_two_steps(self):
        """A line consumed by advancing ``pos`` between two steps of one
        ``events()`` pass is not decoded again."""
        d = p.StreamDecoder()
        d.feed(b"version\r\nget a\r\nstats\r\n")
        events = d.events()
        assert isinstance(next(events)[1], p.VersionCommand)
        d.pos = d.buf.index(b"stats")
        assert [type(e[1]) for e in events] == [p.StatsCommand]
        assert d.buffered == 0


# -- fuzz ----------------------------------------------------------------

_WORDS = st.sampled_from([
    b"get", b"gets", b"set", b"add", b"cas", b"append", b"delete", b"incr",
    b"touch", b"flush_all", b"stats", b"version", b"quit", b"noreply",
    b"k", b"key:1", b"0", b"1", b"5", b"12", b"300", b"-1", b"bad",
    b"\xff", b"\xc2\xa0", b"\x1c"])
_lines = st.lists(_WORDS, max_size=7).map(b" ".join)
_fragments = st.one_of(
    _lines.map(lambda line: line + b"\r\n"),
    _lines.map(lambda line: line + b"\n"),
    st.binary(max_size=40),
    st.sampled_from([b"\r\n", b"\n", b"\r", b"set k 0 0 5\r\nhello\r\n",
                     b"set k 0 0 5\r\nhelloXX", b"set k bad 0 3\r\nabc\r\n",
                     b"set k 0 0 300\r\n" + b"v" * 300 + b"\r\n",
                     b"x" * 5000]))
_streams = st.lists(_fragments, max_size=12).map(b"".join)
_MAX_ITEM = 256  # below the 300-byte fragment: the limit is exercised


def _chunked(data: bytes, cuts: list[int]) -> list[bytes]:
    bounds = sorted({0, len(data), *(c % (len(data) + 1) for c in cuts)})
    return [data[a:b] for a, b in zip(bounds, bounds[1:])]


def _decode(pieces, max_item_size=_MAX_ITEM):
    """Events of ``pieces`` fed in order, with the most the decoder
    buffered relative to its bound."""
    d = p.StreamDecoder(max_item_size=max_item_size)
    events, slack = [], 0
    for piece in pieces:
        d.feed(piece)
        events.extend(d.events())
        if d.closed:  # nothing more is accepted
            break
        bound = p.StreamDecoder.MAX_LINE + max_item_size + 2 + len(piece)
        slack = max(slack, d.buffered - bound)
    return d, events, slack


class TestFuzz:
    @settings(max_examples=400, deadline=None)
    @given(_streams, st.lists(st.integers(min_value=0), max_size=8))
    def test_chunking_never_changes_the_events(self, data, cuts):
        _, whole, slack_whole = _decode([data])
        _, pieces, slack = _decode(_chunked(data, cuts))
        _, bytewise, slack_bytes = _decode(
            [data[i:i + 1] for i in range(len(data))])
        assert pieces == whole
        assert bytewise == whole
        assert max(slack_whole, slack, slack_bytes) <= 0
        for ev in whole:  # well-formed tuples, whatever went in
            assert ev[0] in (p.EV_COMMAND, p.EV_ERROR, p.EV_FATAL)
            assert len(ev) == (3 if ev[0] == p.EV_COMMAND else 2)

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=600), st.integers(min_value=1, max_value=64))
    def test_arbitrary_bytes_never_raise(self, data, chunk):
        d, events, slack = _decode(
            [data[i:i + chunk] for i in range(0, len(data), chunk)])
        assert slack <= 0
        if d.closed:
            assert events[-1][0] == p.EV_FATAL
            assert [ev[0] for ev in events].count(p.EV_FATAL) == 1

    @settings(max_examples=300, deadline=None)
    @given(_streams, st.binary(max_size=200))
    def test_nothing_after_fatal(self, data, more):
        d, events, _ = _decode([data])
        if d.closed:
            d.feed(more + b"\r\nversion\r\n")
            assert list(d.events()) == []
            assert list(d.events()) == []

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=80).filter(lambda b: b"\n" not in b))
    def test_next_command_decodes_after_a_bad_line(self, junk):
        if junk.split()[:1] and junk.split()[0].lower() in (
                v.encode() for v in p.STORAGE_VERBS):
            junk = b"x" + junk  # a storage verb would claim a data block
        d, events, _ = _decode([junk + b"\r\n"])
        assert not d.closed and d.buffered == 0
        d.feed(b"get probe\r\n")
        assert list(d.events()) == [
            (p.EV_COMMAND, p.GetCommand(("probe",)), None)]

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=120),
           st.sampled_from([b"set k bad 0 %d", b"set k 0 zz %d noreply",
                            b"cas k 0 0 %d nope", b"set k 0 0 %d extra x"]))
    def test_next_command_decodes_after_a_drained_block(self, block, line):
        # the block may spell commands: none of it may be decoded
        d, events, _ = _decode([line % len(block) + b"\r\n", block,
                                b"\r\nget probe\r\n"])
        assert [ev[0] for ev in events] == [p.EV_ERROR, p.EV_COMMAND]
        assert events[1][1] == p.GetCommand(("probe",))
