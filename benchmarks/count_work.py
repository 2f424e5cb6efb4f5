"""Deterministic work counter — bytecodes and Python-level calls per row.

    PYTHONHASHSEED=0 python benchmarks/count_work.py \
        [--workload replay-write-obs] [--seed 1] [--rows 614400:716800] \
        [--max-calls-per-row F] [--max-collections N]

Replays an e2e replay workload's own input (``benchmarks/e2e``: same
rows, the workload's passes chained as ``replay.py`` chains them, same
cache and telemetry attachments) and, over the given row range of that
chain, counts executed bytecodes and entered frames by function with
``sys.settrace`` + ``f_trace_opcodes``.  Tracing starts when the range's
first window is pulled and sees only frames entered from then on: the
kernel's ``_replay`` frame is outside the count, everything it calls per
run of rows is inside — including the row loop itself,
``SlabCache.apply_rows``, which is printed on its own line and left out
of a second total, because before the loop moved behind the cache it ran
in ``_replay``'s frame and was not counted.  No clock is read: two runs
of one commit print the same numbers, and two commits differ by the work
they do, not by the host's mood.  C calls (``dict.get``, ``bisect``) are
not frames and count as the one bytecode that makes them.  With
``--max-calls-per-row F`` the script exits 1, printing the excess, when
the total of calls per row is above ``F`` (CPython 3.12 inlines
comprehensions, so it counts no more calls than 3.11 does).

It also prints the cyclic garbage collector's passes per generation
that start inside the traced range, counted by a ``gc.callbacks`` hook
(whose own frames are not counted as work).  They too repeat exactly
for a given commit.  A replay runs with the collector paused
(``Simulator.run``), so its count is 0; with ``--max-collections N``
the script exits 1 when the total is above ``N``.

``--workload serve-miss-mixed`` counts the server's side of that
workload per request (default rows ``[80000, 100000)``, after the rows
before them are served untraced as warm-up): the server the ``serve``
command builds from its defaults, and :data:`CONNECTIONS` connections
without sockets or an event loop, each with an in-memory transport.
Batches are built as ``benchmarks/e2e/driver.py`` builds them —
:data:`PIPELINE` rows, strict alternation between the connections, a
missed GET's fill SET at the head of that connection's next batch — and
each is handed over in chunks of at most :data:`SEGMENT` bytes, each
chunk as ``decoder.feed`` + ``_Connection._serve``, the two calls
``data_received`` and the event loop's next pass make.  Only those two
calls are traced; the run loop is ``_serve_plain``, the frame that
serves the plain ``get`` / ``set`` / ``delete`` lines.  Fill SETs are
work but not requests, as they are not operations to ``run.py``.  The
latency histogram's min/max updates follow the clock, so bytecodes
move by a few hundredths per request from run to run; calls repeat
exactly.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tempfile
from collections import Counter
from itertools import chain

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "e2e"), os.path.join(HERE, "..", "src")]


#: the frame each kind of workload's loop over its requests runs in
RUN_LOOP = {"replay": "SlabCache.apply_rows",
            "serve": "_Connection._serve_plain"}
#: the default ``--rows`` of each kind
ROWS = {"replay": "614400:716800", "serve": "80000:100000"}
#: most bytes one read of a loopback socket delivers of a larger batch
SEGMENT = 65483


def open_workload(name: str, seed: int, tmp: str):
    """``(compiled trace, cache, simulator, window rows, passes)`` of an
    e2e replay workload at the benchmark's run length, built the way
    ``benchmarks/e2e/replay.py`` does."""
    from replay import build_cache, build_simulator
    from workloads import (WINDOW, WORKLOADS, cache_spec, compile_rows,
                           plan_rows)

    w = WORKLOADS[name]
    if w.kind != "replay":
        raise SystemExit(f"{name} is not a replay workload")
    spec = cache_spec(w)
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        rows, _warm = plan_rows(w, json.load(fh)["run_seconds"], False)
    ct = compile_rows(w, rows, os.path.join(tmp, "trace.ctrc"), seed)
    cache = build_cache(spec)
    return ct, cache, build_simulator(cache, spec["obs"]), WINDOW, spec["passes"]


class Transport:
    """What a ``_Connection`` writes to, kept in memory."""

    def __init__(self) -> None:
        self.written = bytearray()

    def write(self, data) -> None:
        self.written += data

    def close(self) -> None:
        pass


def serve_rows(name: str, seed: int, tmp: str, lo: int, hi: int,
               tracer) -> int:
    """Serve rows ``[0, hi)`` of the serving workload's input through
    in-memory connections, tracing ``feed`` and ``_serve`` of the
    batches of rows ``[lo, hi)``; returns the fill SETs among them."""
    from driver import (CONNECTIONS, FILL, GET, MISS, PIPELINE,
                        ReplyParser)
    from serve import load_requests
    from workloads import (SERVE_CACHE_BYTES, SERVE_POLICY, WORKLOADS,
                           cache_spec, compile_rows, plan_rows)

    from repro.cache import SizeClassConfig
    from repro.cli import build_parser
    from repro.policies import make_policy
    from repro.server.async_server import AsyncCacheServer, _Connection
    from repro.server.shard import ShardSet

    w = WORKLOADS[name]
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        rows, _warm = plan_rows(w, json.load(fh)["run_seconds"], False)
    if lo % PIPELINE or hi % PIPELINE or not 0 <= lo < hi <= rows:
        raise SystemExit(f"--rows must be whole batches of {PIPELINE} "
                         f"inside [0, {rows})")
    path = os.path.join(tmp, "trace.ctrc")
    compile_rows(w, rows, path, seed)
    req = load_requests(path, hi)
    defaults = build_parser().parse_args(["serve"])
    server = AsyncCacheServer(ShardSet(
        SERVE_CACHE_BYTES, lambda: make_policy(SERVE_POLICY),
        SizeClassConfig(slab_size=cache_spec(w)["slab_size"]),
        nshards=defaults.shards))
    conns, parsers = [], []
    for _ in range(CONNECTIONS):
        conn = _Connection(server)
        conn.connection_made(Transport())
        conns.append(conn)
        parsers.append(ReplyParser())
    carry: list[list[int]] = [[] for _ in conns]
    fills = 0
    for step, first in enumerate(range(0, len(req), PIPELINE)):
        which = step % CONNECTIONS
        conn, parser = conns[which], parsers[which]
        expect = [(FILL, row) for row in carry[which]]
        wire = [req.wire(row, fill=True) for row in carry[which]]
        for row in range(first, min(first + PIPELINE, len(req))):
            expect.append((req.kind[row], row))
            wire.append(req.wire(row))
        data = b"".join(wire)
        traced = first >= lo
        fills += traced * len(carry[which])
        for at in range(0, len(data), SEGMENT):
            chunk = data[at:at + SEGMENT]
            if traced:
                sys.settrace(tracer)
            conn.decoder.feed(chunk)
            conn._serve()
            sys.settrace(None)
        parser.feed(conn.transport.written)
        del conn.transport.written[:]
        tags = [parser.next()[0] for _ in expect]
        carry[which] = [row for (kind, row), tag in zip(expect, tags)
                        if kind == GET and tag == MISS]
    return fills


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="replay-write-obs")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rows", default=None,
                    help="LO:HI, whole trace windows (whole batches of a "
                    "serving workload)")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--max-calls-per-row", type=float, default=None,
                    metavar="F", help="exit 1 when the total is above F")
    ap.add_argument("--max-collections", type=int, default=None,
                    metavar="N", help="exit 1 when the cyclic collector "
                    "runs more than N times in the traced range")
    args = ap.parse_args()
    from workloads import WORKLOADS

    kind = WORKLOADS[args.workload].kind
    run_loop = RUN_LOOP[kind]
    ops: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    collections = [0] * len(gc.get_stats())

    def collected(phase, info):
        if phase == "start" and sys.gettrace() is tracer:
            collections[info["generation"]] += 1

    def tracer(frame, event, arg):
        if event == "opcode":
            ops[frame.f_code.co_qualname] += 1
        elif event == "call":
            if frame.f_code is collected.__code__:
                return None
            calls[frame.f_code.co_qualname] += 1
            frame.f_trace_opcodes, frame.f_trace_lines = True, False
        return tracer

    def windows(ct, passes, lo, hi):
        chained = chain.from_iterable(ct.iter_windows(window_rows)
                                      for _ in range(passes))
        for i, window in enumerate(chained):
            if i == lo:
                sys.settrace(tracer)
            elif i == hi:
                break
            yield window
        sys.settrace(None)

    lo, hi = (int(x) for x in (args.rows or ROWS[kind]).split(":"))
    fills = 0
    gc.callbacks.append(collected)
    with tempfile.TemporaryDirectory() as tmp:
        if kind == "serve":
            fills = serve_rows(args.workload, args.seed, tmp, lo, hi, tracer)
        else:
            ct, _cache, sim, window_rows, passes = open_workload(
                args.workload, args.seed, tmp)
            lo, hi = lo // window_rows, hi // window_rows
            hi = min(hi, -(-len(ct) // window_rows) * passes)
            sim.run(windows(ct, passes, lo, hi))
            lo, hi = lo * window_rows, hi * window_rows
    gc.callbacks.remove(collected)
    n = hi - lo
    print(f"{args.workload} seed {args.seed} rows [{lo}, {hi})"
          + (f", {fills} fill SETs among them" if kind == "serve" else ""))
    print(f"{'function':44} {'bytecodes/row':>14} {'calls/row':>10}")
    for name, count in ops.most_common(args.top):
        if name != run_loop:
            print(f"{name:44} {count / n:14.2f} {calls[name] / n:10.3f}")
    total_ops, total_calls = sum(ops.values()), sum(calls.values())
    print(f"{'total less the run loop':44} "
          f"{(total_ops - ops[run_loop]) / n:14.2f} "
          f"{(total_calls - calls[run_loop]) / n:10.3f}")
    print(f"{run_loop + ' (the run loop)':44} {ops[run_loop] / n:14.2f} "
          f"{calls[run_loop] / n:10.3f}")
    print(f"{'total':44} {total_ops / n:14.2f} {total_calls / n:10.3f}")
    print("cyclic collections by generation: "
          + " / ".join(map(str, collections)))
    failed = False
    limit, per_row = args.max_calls_per_row, total_calls / n
    if limit is not None and per_row > limit:
        print(f"{per_row:.3f} calls per row: {per_row - limit:.3f} above "
              f"--max-calls-per-row {limit}")
        failed = True
    if (args.max_collections is not None
            and sum(collections) > args.max_collections):
        print(f"{sum(collections)} cyclic collections: above "
              f"--max-collections {args.max_collections}")
        failed = True
    if failed:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
