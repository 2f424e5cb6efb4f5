"""Deterministic work counter — bytecodes and Python-level calls per row.

    PYTHONHASHSEED=0 python benchmarks/count_work.py \
        [--workload replay-write-obs] [--seed 1] [--rows 614400:716800] \
        [--max-calls-per-row F]

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
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from collections import Counter
from itertools import chain

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "e2e"), os.path.join(HERE, "..", "src")]


#: the frame the replay kernel's row loop runs in
RUN_LOOP = "SlabCache.apply_rows"


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


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="replay-write-obs")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rows", default="614400:716800",
                    help="LO:HI, whole trace windows")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--max-calls-per-row", type=float, default=None,
                    metavar="F", help="exit 1 when the total is above F")
    args = ap.parse_args()
    ops: Counter[str] = Counter()
    calls: Counter[str] = Counter()

    def tracer(frame, event, arg):
        if event == "opcode":
            ops[frame.f_code.co_qualname] += 1
        elif event == "call":
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

    with tempfile.TemporaryDirectory() as tmp:
        ct, _cache, sim, window_rows, passes = open_workload(
            args.workload, args.seed, tmp)
        lo, hi = (int(x) // window_rows for x in args.rows.split(":"))
        hi = min(hi, -(-len(ct) // window_rows) * passes)
        sim.run(windows(ct, passes, lo, hi))
    n = (hi - lo) * window_rows
    print(f"{args.workload} seed {args.seed} rows "
          f"[{lo * window_rows}, {hi * window_rows})")
    print(f"{'function':44} {'bytecodes/row':>14} {'calls/row':>10}")
    for name, count in ops.most_common(args.top):
        if name != RUN_LOOP:
            print(f"{name:44} {count / n:14.2f} {calls[name] / n:10.3f}")
    total_ops, total_calls = sum(ops.values()), sum(calls.values())
    print(f"{'total less the run loop':44} "
          f"{(total_ops - ops[RUN_LOOP]) / n:14.2f} "
          f"{(total_calls - calls[RUN_LOOP]) / n:10.3f}")
    print(f"{RUN_LOOP + ' (the run loop)':44} {ops[RUN_LOOP] / n:14.2f} "
          f"{calls[RUN_LOOP] / n:10.3f}")
    print(f"{'total':44} {total_ops / n:14.2f} {total_calls / n:10.3f}")
    limit, per_row = args.max_calls_per_row, total_calls / n
    if limit is not None and per_row > limit:
        print(f"{per_row:.3f} calls per row: {per_row - limit:.3f} above "
              f"--max-calls-per-row {limit}")
        raise SystemExit(1)


if __name__ == "__main__":
    main()
