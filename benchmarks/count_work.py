"""Deterministic work counter — bytecodes and Python-level calls per row.

    PYTHONHASHSEED=0 python benchmarks/count_work.py \
        [--workload replay-write-obs] [--seed 1] [--rows 614400:716800]

Replays an e2e replay workload's own input (``benchmarks/e2e``: same
rows, cache and telemetry attachments) and, over the given row range,
counts executed bytecodes and entered frames by function with
``sys.settrace`` + ``f_trace_opcodes``.  Tracing starts when the range's
first window is pulled and sees only frames entered from then on, so the
replay kernel's own loop frame is outside the count; what is counted is
everything the kernel calls per row.  No clock is read: two runs of one
commit print the same numbers, and two commits differ by the work they
do, not by the host's mood.  C calls (``dict.get``, ``bisect``) are not
frames and count as the one bytecode that makes them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "e2e"), os.path.join(HERE, "..", "src")]


def open_workload(name: str, seed: int, tmp: str):
    """``(compiled trace, cache, simulator, window rows)`` of an e2e
    replay workload at the benchmark's run length, built the way
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
    return ct, cache, build_simulator(cache, spec["obs"]), WINDOW


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="replay-write-obs")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rows", default="614400:716800",
                    help="LO:HI, whole trace windows")
    ap.add_argument("--top", type=int, default=25)
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

    def windows(ct, lo, hi):
        for i, window in enumerate(ct.iter_windows(window_rows)):
            if i == lo:
                sys.settrace(tracer)
            elif i == hi:
                break
            yield window
        sys.settrace(None)

    with tempfile.TemporaryDirectory() as tmp:
        ct, _cache, sim, window_rows = open_workload(
            args.workload, args.seed, tmp)
        lo, hi = (int(x) // window_rows for x in args.rows.split(":"))
        hi = min(hi, -(-len(ct) // window_rows))
        sim.run(windows(ct, lo, hi))
    n = (hi - lo) * window_rows
    print(f"{args.workload} seed {args.seed} rows "
          f"[{lo * window_rows}, {hi * window_rows})")
    print(f"{'function':44} {'bytecodes/row':>14} {'calls/row':>10}")
    for name, count in ops.most_common(args.top):
        print(f"{name:44} {count / n:14.2f} {calls[name] / n:10.3f}")
    print(f"{'total':44} {sum(ops.values()) / n:14.2f} "
          f"{sum(calls.values()) / n:10.3f}")


if __name__ == "__main__":
    main()
