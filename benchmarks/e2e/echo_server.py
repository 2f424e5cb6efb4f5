"""Canned-reply echo server: answers the driver's request stream
without a cache, so a run against it isolates the driver's own cost
(``driver.self_us_per_op``) and exercises its reply parser.

``get`` is answered from a fixed per-key rule (:func:`driver.canned_hit`)
with the same value bytes the driver expects, ``set`` with ``STORED``,
``delete`` with ``DELETED``.

    python echo_server.py <compiled trace dir> <rows>
"""

from __future__ import annotations

import socket
import sys
import threading

from driver import GET, canned_hit
from serve import load_requests


def canned_replies(requests) -> dict[bytes, bytes]:
    """``get`` reply per key."""
    replies = {}
    for row, kind in enumerate(requests.kind):
        key = requests.key[row]
        if kind != GET or key in replies:
            continue
        if canned_hit(requests.keys[row]):
            value = requests.value(row)
            replies[key] = (b"VALUE %b 0 %d\r\n" % (key, len(value))
                            + value + b"\r\nEND\r\n")
        else:
            replies[key] = b"END\r\n"
    return replies


def answer(buf: bytearray, replies: dict[bytes, bytes]) -> bytes:
    """Consume every complete request in ``buf``; returns the replies."""
    out = []
    pos = 0
    while True:
        nl = buf.find(b"\n", pos)
        if nl < 0:
            break
        line = bytes(buf[pos:nl + 1])
        if line.startswith(b"get "):
            out.append(replies.get(line[4:-2], b"END\r\n"))
            pos = nl + 1
        elif line.startswith(b"set "):
            end = nl + 1 + int(line.rsplit(b" ", 1)[1]) + 2
            if len(buf) < end:
                break
            out.append(b"STORED\r\n")
            pos = end
        else:
            out.append(b"DELETED\r\n")
            pos = nl + 1
    del buf[:pos]
    return b"".join(out)


def serve(conn: socket.socket, replies: dict[bytes, bytes]) -> None:
    buf = bytearray()
    with conn:
        while data := conn.recv(1 << 18):
            buf += data
            conn.sendall(answer(buf, replies))


def main() -> None:
    replies = canned_replies(load_requests(sys.argv[1], int(sys.argv[2])))
    listener = socket.create_server(("127.0.0.1", 0))
    print(f"serving [echo] on 127.0.0.1:{listener.getsockname()[1]}",
          flush=True)
    while True:  # ends on SIGTERM, like the real server
        conn, _ = listener.accept()
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # a thread per connection: a reply batch larger than the socket
        # buffer blocks its sender until the driver reads it, and the
        # driver may be waiting on the other connection meanwhile
        threading.Thread(target=serve, args=(conn, replies),
                         daemon=True).start()


if __name__ == "__main__":
    main()
