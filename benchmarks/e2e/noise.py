"""Noise procedure: where the bounds in ``BENCHMARK.json`` come from.

    python benchmarks/e2e/noise.py [--runs 5] [--workload W] [--recheck]

Runs the same commit as two sets, A and B, of ``--runs`` runs per
workload, alternating A/B, run ``i`` of either set with the same seed
(the procedure the driver applies to this benchmark).  The seeds are
spread over 32 bits: the driver's are not small numbers.  Per workload and
end-to-end metric it reports the set-to-set difference of medians in
the worsening direction and the spread (inter-quartile range over
median, seeds included) inside each set, and writes ``NOISE.json``.  A
bound is sound when it is at least twice the largest difference seen
and no smaller than the largest spread (the driver does not judge the
spread of ``setup_s``, and neither does this).  Replay workloads must also
repeat ``hit_ratio`` and ``avg_service_ms`` bit for bit per seed.
``--recheck`` measures nothing: it judges the runs already stored in
``NOISE.json`` against the bounds ``BENCHMARK.json`` holds now.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
EXACT = ("hit_ratio", "avg_service_ms")


def one_run(workload: str, seed: int) -> dict[str, float]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed)], check=True, text=True, capture_output=True)
    line = json.loads(done.stdout.splitlines()[-1])
    if not line["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: output check failed")
    return {name: m["value"] for name, m in line["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(metric: dict, a: list[float], b: list[float]) -> dict:
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = (med_a - med_b if metric["better"] == "higher"
             else med_b - med_a) / med_a
    return {"median_a": med_a, "median_b": med_b, "b_worse_by": worse,
            "spread_a": spread(a), "spread_b": spread(b),
            "bound": metric["bound"],
            "ok": 2 * abs(worse) <= metric["bound"]
            and (metric["name"] == "setup_s"
                 or max(spread(a), spread(b)) <= metric["bound"])}


def seed_of(run: int) -> int:
    return run * 2654435761 % (1 << 32)


def measure(name: str, runs: int) -> dict[str, list[dict]]:
    sets: dict[str, list[dict]] = {"a": [], "b": []}
    for seed in map(seed_of, range(1, runs + 1)):
        for label in ("a", "b"):
            sets[label].append(one_run(name, seed))
            print(f"{name} {label} seed {seed}: "
                  f"{sets[label][-1]['ops_per_s']:.6g} ops/s", flush=True)
    return sets


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--recheck", action="store_true")
    args = parser.parse_args()

    path = os.path.join(HERE, "NOISE.json")
    stored = {}
    if args.recheck:
        with open(path) as fh:
            stored = json.load(fh)["workloads"]
    doc: dict = {"workloads": {}}
    ok = True
    for name in [args.workload] if args.workload else names:
        sets = (stored[name]["runs"] if args.recheck
                else measure(name, args.runs))
        table = {}
        for metric in contract["end_to_end"]:
            key = metric["name"]
            table[key] = compare(metric, [r[key] for r in sets["a"]],
                                 [r[key] for r in sets["b"]])
        exact = all(ra[key] == rb[key] for key in EXACT
                    for ra, rb in zip(sets["a"], sets["b"]))
        if name.startswith("replay") and not exact:
            print(f"{name}: {EXACT} differ between two runs of one seed")
            ok = False
        doc["workloads"][name] = {"metrics": table, "exact_repeat": exact,
                                  "runs": sets}
        print(f"\n{name:<24}{'B worse by':>12}{'spread A':>10}"
              f"{'spread B':>10}{'bound':>8}")
        for key, row in table.items():
            ok = ok and row["ok"]
            print(f"  {key:<22}{row['b_worse_by']:>12.4f}"
                  f"{row['spread_a']:>10.4f}{row['spread_b']:>10.4f}"
                  f"{row['bound']:>8.3f}{'' if row['ok'] else '  <-- bound'}")
        print()
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
