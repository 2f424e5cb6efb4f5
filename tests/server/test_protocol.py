"""Tests for the memcached text-protocol parser and formatters."""

import pytest

from repro.server import protocol as p


class TestParseCommand:
    def test_set(self):
        cmd = p.parse_command(b"set mykey 100000 0 5")
        assert isinstance(cmd, p.SetCommand)
        assert cmd.key == "mykey" and cmd.nbytes == 5
        assert cmd.penalty == pytest.approx(0.1)  # flags are microseconds
        assert not cmd.noreply

    def test_set_noreply(self):
        cmd = p.parse_command(b"set k 0 0 3 noreply")
        assert cmd.noreply

    def test_get_multi(self):
        cmd = p.parse_command(b"get a b c")
        assert isinstance(cmd, p.GetCommand)
        assert cmd.keys == ("a", "b", "c")

    def test_gets_alias(self):
        assert isinstance(p.parse_command(b"gets a"), p.GetCommand)

    def test_delete(self):
        cmd = p.parse_command(b"delete k")
        assert isinstance(cmd, p.DeleteCommand) and not cmd.noreply

    def test_admin_commands(self):
        assert isinstance(p.parse_command(b"stats"), p.StatsCommand)
        assert isinstance(p.parse_command(b"version"), p.VersionCommand)
        assert isinstance(p.parse_command(b"quit"), p.QuitCommand)

    @pytest.mark.parametrize("line", [
        b"", b"bogus x", b"set k 0 0", b"set k a b c", b"set k 0 0 -1",
        b"set k 0 0 5 extra", b"get", b"delete", b"delete k banana",
        b"set " + b"k" * 300 + b" 0 0 1",
        b"\xff\xfe invalid utf8",
    ])
    def test_malformed(self, line):
        with pytest.raises(p.ProtocolError):
            p.parse_command(line)


#: everything ``str.isspace`` is true for that a key could carry: ASCII
#: blanks, the separators ``bytes.split`` does not know (\x1c-\x1f) and
#: the non-ASCII spaces.
WHITESPACE = ["\t", "\n", "\r", " ", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
              "\x1f", "\x85", "\xa0", "\u2028", "\u3000"]


class TestCheckKey:
    """``_check_key`` for direct callers: what the per-character
    ``any(c.isspace() for c in key)`` accepted and rejected."""

    @pytest.mark.parametrize("ws", WHITESPACE)
    @pytest.mark.parametrize("where", ["inside", "leading", "trailing"])
    def test_whitespace_rejected(self, ws, where):
        key = {"inside": f"ab{ws}cd", "leading": f"{ws}abcd",
               "trailing": f"abcd{ws}"}[where]
        assert any(c.isspace() for c in key)
        with pytest.raises(p.ProtocolError, match="whitespace"):
            p._check_key(key)

    def test_whitespace_only_key_rejected(self):
        with pytest.raises(p.ProtocolError, match="whitespace"):
            p._check_key(" ")

    @pytest.mark.parametrize("key", [
        "k", "k" * 250, "key:with/punct-._%#@", "caf\u00e9", "\u30ad\u30fc",
        "zero\u200bwidth",  # U+200B is not whitespace to str.isspace
        "nul\x00byte", "esc\x1bape",
    ])
    def test_accepted(self, key):
        assert not any(c.isspace() for c in key)
        assert p._check_key(key) is key

    @pytest.mark.parametrize("key", ["", "k" * 251])
    def test_bad_length(self, key):
        with pytest.raises(p.ProtocolError, match="bad key length"):
            p._check_key(key)

    def test_agrees_with_isspace_on_every_code_point(self):
        for cp in range(0x110000):
            if 0xD800 <= cp <= 0xDFFF:
                continue  # lone surrogates cannot reach a utf-8 parser
            key = f"a{chr(cp)}b"
            try:
                p._check_key(key)
                rejected = False
            except p.ProtocolError:
                rejected = True
            assert rejected == chr(cp).isspace(), hex(cp)

    @pytest.mark.parametrize("ws", ["\x1c", "\x1f", "\x85", "\xa0", "\u2028",
                                    "\u3000"])
    def test_parser_splits_lines_as_str(self, ws):
        # bytes.split() would leave these inside one token
        cmd = p.parse_command(f"get a{ws}b".encode())
        assert cmd.keys == ("a", "b")


class TestFormatting:
    def test_value_block(self):
        out = p.format_value("k", 7, b"abc")
        assert out == b"VALUE k 7 3\r\nabc\r\n"

    def test_stats(self):
        out = p.format_stats({"b": 1, "a": 2})
        assert out == b"STAT a 2\r\nSTAT b 1\r\nEND\r\n"

    def test_simple_responses(self):
        assert p.format_stored() == b"STORED\r\n"
        assert p.format_not_stored() == b"NOT_STORED\r\n"
        assert p.format_deleted(True) == b"DELETED\r\n"
        assert p.format_deleted(False) == b"NOT_FOUND\r\n"
        assert p.format_error("x").startswith(b"CLIENT_ERROR")
        assert p.format_version("v1") == b"VERSION v1\r\n"
