"""What PAMA's migrations on an e2e replay input amount to.

    PYTHONHASHSEED=0 python benchmarks/migration_churn.py \
        [--workload replay-write-obs] [--seed 1]

Reads the ``pama_decision`` / ``slab_migration`` events the cache and the
policy already emit (an ``EventTrace`` that tallies instead of storing)
and reports, as shares of all migrations:

* **returned** — the donor was handed a slab again within one value
  window of giving one up (each hand-back answers the oldest gift still
  open; slabs are interchangeable, so "its slab" is any slab), the part
  of those that came straight back from the queue it went to, and how
  many accesses the round trips took;
* **against zero** — approved against a donor whose outgoing value was
  exactly 0 (nothing hit its bottom segments since the sums were last
  reset or decayed to nothing);
* **to or from zero** — left the donor with no slab, or was the
  receiver's only one;

plus the forced share, the five busiest donors with the items a slab of
theirs held when it left, and the decisions that moved nothing.  Counts, no
clock: a (workload, seed) prints the same numbers on every run.
"""

from __future__ import annotations

import argparse
import tempfile
from collections import Counter, deque

from count_work import open_workload


def main() -> None:
    from repro.obs import EventTrace

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="replay-write-obs")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    tally: Counter[str] = Counter()
    gifts: dict[tuple, deque] = {}    # donor qid -> (tick, receiver) open
    gaps: list[int] = []              # accesses from a gift to its return
    gave: Counter[tuple] = Counter()  # donor qid -> slabs given up
    lost: Counter[tuple] = Counter()  # donor qid -> items evicted for them

    class Tally(EventTrace):
        def record(self, kind, tick, /, **data):
            if kind == "pama_decision":
                tally[data["outcome"]] += 1
                if data["outcome"] == "approved" and data["outgoing"] == 0.0:
                    tally["against zero"] += 1
            elif kind == "slab_migration":
                donor, receiver = data["donor"], data["receiver"]
                tally["migrations"] += 1
                gave[donor] += 1
                lost[donor] += data["evicted"]
                queues = cache.queues   # counts as they are after the move
                emptied = queues[donor].slabs == 0
                first = queues[receiver].slabs == 1
                tally["emptied donor"] += emptied
                tally["receiver's first"] += first
                tally["to or from zero"] += emptied or first
                gifts.setdefault(donor, deque()).append((tick, receiver))
                open_gifts = gifts.get(receiver)
                while open_gifts and tick - open_gifts[0][0] > window:
                    open_gifts.popleft()
                if open_gifts:
                    given, went_to = open_gifts.popleft()
                    gaps.append(tick - given)
                    tally["returned"] += 1
                    tally["returned directly"] += went_to == donor

    with tempfile.TemporaryDirectory() as tmp:
        ct, cache, sim, window_rows, _passes = open_workload(
            args.workload, args.seed, tmp)
        window = cache.policy.config.value_window
        cache.events = Tally()
        sim.run(ct.iter_windows(window_rows))
        rows = len(ct)
    moved = tally["migrations"]
    print(f"{args.workload} seed {args.seed}: {rows} rows, {moved} migrations "
          f"({moved / rows * 1e3:.1f} per 1k rows), value window {window}")
    for name in ("returned", "returned directly", "against zero", "forced",
                 "to or from zero", "emptied donor", "receiver's first"):
        print(f"  {name:18} {tally[name]:8d}  {tally[name] / moved:7.2%}")
    gaps.sort()
    print("  accesses from giving a slab up to getting one back: "
          + ", ".join(f"p{q} {gaps[len(gaps) * q // 100]}"
                      for q in (10, 50, 90, 99) if gaps))
    print("  donors: " + ", ".join(
        f"{qid} {n / moved:.1%} ({lost[qid] / n:.1f} items a slab)"
        for qid, n in gave.most_common(5)))
    kept = tally["declined"] + tally["self"]
    print(f"  decisions {kept + moved}: {kept} moved nothing "
          f"({tally['declined']} declined, {tally['self']} own slab cheapest)")


if __name__ == "__main__":
    main()
