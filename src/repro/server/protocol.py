"""Memcached text-protocol subset: parsing and formatting.

Implements the commands the paper's interface description needs (§I:
"insertion (SET), retrieval (GET), and deletion (DEL)") plus the
conventional ``stats``/``version``/``quit``.  One deliberate extension:
the 32-bit ``flags`` field of ``set`` carries the item's miss penalty
in **microseconds**, so penalty-aware policies work over the wire
without protocol changes (flags are opaque to real memcached clients).
"""

from __future__ import annotations

from dataclasses import dataclass

CRLF = b"\r\n"
MAX_KEY_LEN = 250  # memcached's limit


class ProtocolError(ValueError):
    """Malformed client input; rendered as CLIENT_ERROR.

    ``data_bytes`` is set when a *storage* line failed to parse but its
    byte count was readable: the server can then drain the data block
    (``data_bytes`` + CRLF) and keep the connection in sync.  ``fatal``
    marks storage-line errors where the count is unknowable — the only
    safe recovery is closing the connection, since the bytes that
    follow are payload, not commands.
    """

    def __init__(self, message: str, *, data_bytes: int | None = None,
                 fatal: bool = False) -> None:
        super().__init__(message)
        self.data_bytes = data_bytes
        self.fatal = fatal


#: storage command verbs sharing the ``set`` grammar (``cas`` carries
#: one extra field, the cas unique id from a prior ``gets``).
STORAGE_VERBS = ("set", "add", "replace", "append", "prepend", "cas")

#: Commands are values nothing mutates, but not ``frozen``: that would
#: construct them through one ``object.__setattr__`` call per field.
_command = dataclass(unsafe_hash=True, slots=True)


@_command
class SetCommand:
    """Any storage command: ``verb key flags exptime bytes [noreply]``.

    ``verb`` distinguishes memcached's conditional/concatenating
    variants: ``add`` (store only if absent), ``replace`` (only if
    present), ``append``/``prepend`` (concatenate onto an existing
    value), ``cas`` (store only if untouched since ``cas_unique`` was
    read via ``gets``).
    """

    key: str
    flags: int
    exptime: int
    nbytes: int
    noreply: bool
    verb: str = "set"
    cas_unique: int | None = None

    @property
    def penalty(self) -> float:
        """Penalty in seconds, decoded from the flags field (µs)."""
        return self.flags / 1e6


@_command
class GetCommand:
    keys: tuple[str, ...]
    #: True for ``gets``: VALUE lines carry the item's cas unique id.
    with_cas: bool = False


@_command
class DeleteCommand:
    key: str
    noreply: bool


@_command
class IncrDecrCommand:
    key: str
    delta: int
    decrement: bool
    noreply: bool


@_command
class TouchCommand:
    key: str
    exptime: int
    noreply: bool


@_command
class FlushAllCommand:
    noreply: bool


@_command
class StatsCommand:
    #: None for plain ``stats``; "detail" dumps every registry metric.
    arg: str | None = None


@_command
class VersionCommand:
    pass


@_command
class QuitCommand:
    pass


Command = (SetCommand | GetCommand | DeleteCommand | IncrDecrCommand
           | TouchCommand | FlushAllCommand | StatsCommand
           | VersionCommand | QuitCommand)

_VERBS = {DeleteCommand: "delete", TouchCommand: "touch",
          FlushAllCommand: "flush_all", StatsCommand: "stats",
          VersionCommand: "version"}


def verb_of(cmd: Command) -> str:
    """The label under which a command's latency is recorded."""
    if isinstance(cmd, GetCommand):
        return "gets" if cmd.with_cas else "get"
    if isinstance(cmd, SetCommand):
        return cmd.verb
    if isinstance(cmd, IncrDecrCommand):
        return "decr" if cmd.decrement else "incr"
    return _VERBS.get(type(cmd), "other")


def _check_key(key: str) -> str:
    if not key or len(key) > MAX_KEY_LEN:
        raise ProtocolError(f"bad key length {len(key)}")
    if key.split() != [key]:  # str.split and str.isspace agree on whitespace
        raise ProtocolError("key contains whitespace")
    return key


def parse_command(line: bytes | bytearray) -> Command:
    """Parse one request line (a trailing CR or CRLF is ignored)."""
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError("non-utf8 command line") from exc
    parts = text.split()
    if not parts:
        raise ProtocolError("empty command")
    cmd = parts[0].lower()

    # ordered by how often a cache sees them; a single-key get first
    if cmd in ("get", "gets"):
        if len(parts) < 2:
            raise ProtocolError("get expects at least one key")
        keys = ((_check_key(parts[1]),) if len(parts) == 2  # no generator
                else tuple(_check_key(k) for k in parts[1:]))
        return GetCommand(keys, with_cas=cmd == "gets")

    if cmd in STORAGE_VERBS:
        def bad(message: str) -> ProtocolError:
            # A storage line is followed by a data block; attach the
            # byte count (if readable) so the server can drain the block
            # instead of parsing payload as commands.
            recover = (int(parts[4]) if len(parts) > 4
                       and parts[4].isdigit() else None)
            return ProtocolError(message, data_bytes=recover,
                                 fatal=recover is None)

        nargs = 6 if cmd == "cas" else 5  # cas carries the unique id
        if len(parts) not in (nargs, nargs + 1):
            raise bad(f"{cmd} expects: key flags exptime bytes"
                      f"{' casunique' if cmd == 'cas' else ''} [noreply]")
        noreply = len(parts) == nargs + 1
        if noreply and parts[nargs] != "noreply":
            raise bad(f"unexpected token {parts[nargs]!r}")
        try:
            flags, exptime, nbytes = int(parts[2]), int(parts[3]), int(parts[4])
        except ValueError as exc:
            raise bad(f"{cmd} numeric fields must be integers") from exc
        if nbytes < 0 or flags < 0:
            raise bad("negative bytes/flags")
        cas_unique = None
        if cmd == "cas":
            if not parts[5].isdigit():
                raise bad("cas unique must be an unsigned integer")
            cas_unique = int(parts[5])
        try:
            key = _check_key(parts[1])
        except ProtocolError as exc:
            raise bad(str(exc)) from exc
        return SetCommand(key, flags, exptime, nbytes, noreply, verb=cmd,
                          cas_unique=cas_unique)

    if cmd == "delete":
        if len(parts) not in (2, 3):
            raise ProtocolError("delete expects: key [noreply]")
        noreply = len(parts) == 3
        if noreply and parts[2] != "noreply":
            raise ProtocolError(f"unexpected token {parts[2]!r}")
        return DeleteCommand(_check_key(parts[1]), noreply)

    if cmd in ("incr", "decr"):
        if len(parts) not in (3, 4):
            raise ProtocolError(f"{cmd} expects: key value [noreply]")
        noreply = len(parts) == 4
        if noreply and parts[3] != "noreply":
            raise ProtocolError(f"unexpected token {parts[3]!r}")
        # memcached deltas are unsigned ASCII decimals: "+1", " 1" and
        # "1_0" (all accepted by int()) must be rejected.
        if not parts[2].isdigit():
            raise ProtocolError(
                f"{cmd} delta must be an unsigned decimal integer")
        return IncrDecrCommand(_check_key(parts[1]), int(parts[2]),
                               cmd == "decr", noreply)

    if cmd == "touch":
        if len(parts) not in (3, 4):
            raise ProtocolError("touch expects: key exptime [noreply]")
        noreply = len(parts) == 4
        if noreply and parts[3] != "noreply":
            raise ProtocolError(f"unexpected token {parts[3]!r}")
        try:
            exptime = int(parts[2])
        except ValueError as exc:
            raise ProtocolError("touch exptime must be an integer") from exc
        return TouchCommand(_check_key(parts[1]), exptime, noreply)

    if cmd == "flush_all":
        if len(parts) not in (1, 2):
            raise ProtocolError("flush_all takes no arguments [noreply]")
        noreply = len(parts) == 2
        if noreply and parts[1] != "noreply":
            raise ProtocolError(f"unexpected token {parts[1]!r}")
        return FlushAllCommand(noreply)

    if cmd == "stats":
        if len(parts) == 1:
            return StatsCommand()
        if len(parts) == 2 and parts[1].lower() == "detail":
            return StatsCommand(arg="detail")
        raise ProtocolError("stats takes no argument or 'detail'")
    if cmd == "version":
        return VersionCommand()
    if cmd == "quit":
        return QuitCommand()
    raise ProtocolError(f"unknown command {cmd!r}")


# -- incremental decoding ----------------------------------------------------

#: decoder event tags (first element of every tuple ``events`` yields).
EV_COMMAND = "cmd"      # ("cmd", Command, data_block_or_None)
EV_ERROR = "error"      # ("error", message) — reply CLIENT_ERROR, keep open
EV_FATAL = "fatal"      # ("fatal", message) — reply CLIENT_ERROR, then close


class StreamDecoder:
    """Incremental decoder for a pipelined memcached text stream.

    Feed raw socket chunks with :meth:`feed`; drain complete items with
    :meth:`events`, which yields zero or more tuples per call:

    * ``(EV_COMMAND, command, data)`` — a parsed command; ``data`` is the
      data block (without CRLF) of a storage command, else ``None``
      (also for a block over ``max_item_size``: discarded, not read).
    * ``(EV_ERROR, message)`` — a recoverable protocol error (the stream
      is back in sync; reply ``CLIENT_ERROR`` and continue).
    * ``(EV_FATAL, message)`` — an unrecoverable framing error (bad data
      trailer, or a storage line whose byte count is unknowable); reply
      and close.  The decoder refuses further input afterwards.

    The recovery rules are those documented in docs/protocol.md (drain
    the data block of a malformed-but-countable storage line, close when
    the count is unknowable or the trailer is not CRLF), and they hold
    however the bytes are cut: any number of pipelined commands
    arriving in one TCP segment decode in one pass with no per-command
    syscalls.

    ``buf`` holds the bytes received and ``pos`` the end of the prefix
    already consumed.  While the decoder is :attr:`idle`, ``pos`` starts
    a request line, and a consumer may serve complete lines from ``buf``
    itself and advance ``pos`` past them, between two steps of
    :meth:`events` as well: each step reads ``pos`` afresh.  The async
    server's ``_Connection._serve_plain`` does this for the plain
    ``get`` / ``set`` / ``delete`` lines.
    """

    #: commands may not exceed this line length (a full-size key plus
    #: every field fits in a fraction of it; anything longer is abuse).
    MAX_LINE = 8192

    def __init__(self, max_item_size: float = float("inf")) -> None:
        self.max_item_size = max_item_size  # bytes; servers pass a slab's
        self.buf = bytearray()
        self.pos = 0  # consumed prefix of buf
        self._pending: SetCommand | None = None  # awaiting its data block
        self._drain = 0  # block bytes still to discard
        self._drain_event: tuple | None = None  # yielded once they are
        self.closed = False

    def feed(self, chunk: bytes) -> None:
        """Append one received chunk (no decoding happens here)."""
        if not self.closed:
            self.buf += chunk

    @property
    def idle(self) -> bool:
        """True when ``pos`` starts a request line: the decoder is open
        and no data block is pending or being discarded.  It is so after
        every event :meth:`events` yields, unless that closed it."""
        return not self.closed and self._pending is None and not self._drain

    @property
    def buffered(self) -> int:
        """Bytes received but not yet consumed by :meth:`events`."""
        return len(self.buf) - self.pos

    def events(self):
        """Yield decoded events until the buffer has no complete item.
        Finish or drop the iteration before the next :meth:`feed`: the
        buffer cannot grow while data blocks are copied out of a view."""
        buf = self.buf
        with memoryview(buf) as view:
            while not self.closed:
                # 1) discard a block nobody will read: the resync after a
                #    malformed-but-countable storage line, an oversized item
                if self._drain:
                    take = min(self._drain, len(buf) - self.pos)
                    self.pos += take
                    self._drain -= take
                    if self._drain:
                        break  # need more bytes
                    event, self._drain_event = self._drain_event, None
                    yield event
                    continue
                # 2) a storage command is waiting for its data block + CRLF
                if self._pending is not None:
                    cmd = self._pending
                    start = self.pos
                    end = start + cmd.nbytes
                    if len(buf) < end + 2:
                        break
                    self._pending = None
                    self.pos = end + 2
                    if buf[end] != 13 or buf[end + 1] != 10:  # not CRLF
                        # framing is lost: there is no way to know where
                        # the next command starts.
                        self.closed = True
                        yield (EV_FATAL, "bad data chunk")
                        break
                    yield (EV_COMMAND, cmd, bytes(view[start:end]))
                    continue
                # 3) otherwise: decode the next request line
                nl = buf.find(b"\n", self.pos)
                if (nl if nl >= 0 else len(buf)) - self.pos > self.MAX_LINE:
                    self.closed = True
                    yield (EV_FATAL, "command line too long")
                    break
                if nl < 0:
                    break
                line = buf[self.pos:nl]  # parse_command ignores a final CR
                self.pos = nl + 1
                if not line or (line[0] == 13 and not line.strip(b"\r")):
                    continue
                try:
                    cmd = parse_command(line)
                except ProtocolError as exc:
                    if exc.data_bytes is not None:
                        # the client still sends the data block; discard
                        # payload + CRLF before replying, or its bytes
                        # would be decoded as commands (the classic
                        # desync bug).
                        self._drain = exc.data_bytes + 2
                        self._drain_event = (EV_ERROR, str(exc))
                        continue
                    if exc.fatal:
                        self.closed = True
                        yield (EV_FATAL, str(exc))
                        break
                    yield (EV_ERROR, str(exc))
                    continue
                if not isinstance(cmd, SetCommand):
                    yield (EV_COMMAND, cmd, None)
                elif cmd.nbytes > self.max_item_size:
                    self._drain = cmd.nbytes + 2
                    self._drain_event = (EV_COMMAND, cmd, None)
                else:
                    self._pending = cmd
        del buf[:self.pos]  # compact: drop the consumed prefix
        self.pos = 0


# -- response formatting -----------------------------------------------------

def format_value(key: str, flags: int, data: bytes,
                 cas: int | None = None) -> bytes:
    """One VALUE block of a get (4-field) or gets (5-field) response."""
    head = f"VALUE {key} {flags} {len(data)}"
    if cas is not None:
        head += f" {cas}"
    return head.encode() + CRLF + data + CRLF


#: the fixed replies, built once: ``format_*`` returns these objects
END = b"END" + CRLF
STORED = b"STORED" + CRLF
NOT_STORED = b"NOT_STORED" + CRLF
DELETED = b"DELETED" + CRLF
NOT_FOUND = b"NOT_FOUND" + CRLF
EXISTS = b"EXISTS" + CRLF
TOUCHED = b"TOUCHED" + CRLF
OK = b"OK" + CRLF


def format_get_tail() -> bytes:
    return END


def format_stored() -> bytes:
    return STORED


def format_not_stored() -> bytes:
    return NOT_STORED


def format_deleted(found: bool) -> bytes:
    return DELETED if found else NOT_FOUND


def format_not_found() -> bytes:
    return NOT_FOUND


def format_exists() -> bytes:
    """``cas`` reply: the item changed since its cas id was fetched."""
    return EXISTS


def format_touched(found: bool) -> bytes:
    return TOUCHED if found else NOT_FOUND


def format_number(value: int) -> bytes:
    return str(value).encode() + CRLF


def format_ok() -> bytes:
    return OK


#: memcached treats exptime values above this as absolute unix times.
RELATIVE_EXPTIME_LIMIT = 60 * 60 * 24 * 30


def resolve_exptime(exptime: int, now: float) -> float:
    """Memcached exptime semantics → absolute expiry (0.0 = never).

    0 means never; values up to 30 days are relative to ``now``; larger
    values are absolute unix timestamps; negative means already expired.
    """
    if exptime == 0:
        return 0.0
    if exptime < 0:
        return now - 1.0  # immediately expired
    if exptime <= RELATIVE_EXPTIME_LIMIT:
        return now + exptime
    return float(exptime)


def format_error(message: str) -> bytes:
    return f"CLIENT_ERROR {message}".encode() + CRLF


def format_server_error(message: str) -> bytes:
    return f"SERVER_ERROR {message}".encode() + CRLF


def format_stats(stats: dict[str, object]) -> bytes:
    body = b"".join(f"STAT {k} {v}".encode() + CRLF
                    for k, v in sorted(stats.items()))
    return body + END


def format_version(version: str) -> bytes:
    return f"VERSION {version}".encode() + CRLF


# -- request formatting ------------------------------------------------------

def format_request(cmd: Command) -> bytes:
    """Render a command back to its request line (without CRLF or data).

    The inverse of :func:`parse_command` — ``parse_command(
    format_request(cmd)) == cmd`` for every representable command,
    which the protocol round-trip property test relies on.
    """
    if isinstance(cmd, SetCommand):
        parts = [cmd.verb, cmd.key, str(cmd.flags), str(cmd.exptime),
                 str(cmd.nbytes)]
        if cmd.verb == "cas":
            parts.append(str(cmd.cas_unique))
        if cmd.noreply:
            parts.append("noreply")
        return " ".join(parts).encode()
    if isinstance(cmd, GetCommand):
        verb = "gets" if cmd.with_cas else "get"
        return " ".join([verb, *cmd.keys]).encode()
    if isinstance(cmd, DeleteCommand):
        tail = " noreply" if cmd.noreply else ""
        return f"delete {cmd.key}{tail}".encode()
    if isinstance(cmd, IncrDecrCommand):
        verb = "decr" if cmd.decrement else "incr"
        tail = " noreply" if cmd.noreply else ""
        return f"{verb} {cmd.key} {cmd.delta}{tail}".encode()
    if isinstance(cmd, TouchCommand):
        tail = " noreply" if cmd.noreply else ""
        return f"touch {cmd.key} {cmd.exptime}{tail}".encode()
    if isinstance(cmd, FlushAllCommand):
        return b"flush_all noreply" if cmd.noreply else b"flush_all"
    if isinstance(cmd, StatsCommand):
        return b"stats" if cmd.arg is None else f"stats {cmd.arg}".encode()
    if isinstance(cmd, VersionCommand):
        return b"version"
    if isinstance(cmd, QuitCommand):
        return b"quit"
    raise TypeError(f"unknown command type {type(cmd).__name__}")
