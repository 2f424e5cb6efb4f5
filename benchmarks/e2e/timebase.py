"""The benchmark's time base: calibration spin, rounds, medians.

Host speed on the reference box drifts by about ±20% on a two-second
scale, so a single raw rate is not comparable between runs.  The
measured phase is therefore cut into :data:`ROUNDS` rounds of equal op
count and every rate is the median over rounds; replay rounds are
additionally rescaled to *reference-host time* by a fixed arithmetic
spin taken between batches (``CAL_REF_MS / median(spins in the round)``).
Everything here is pure arithmetic on recorded timings, so the tests
drive it with synthetic numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

#: duration of :func:`spin` on the reference host, milliseconds.
CAL_REF_MS = 4.5
SPIN_ITERS = 50_000
#: the measured phase is cut into this many rounds of equal op count.
ROUNDS = 9
#: a spin is taken once at least this much measured time has passed.
EPOCH_S = 0.25
#: a percentile is reported only with this many samples beyond it.
SAMPLES_BEYOND = 10


def spin() -> float:
    """Run the fixed calibration kernel; returns its duration in ms.

    Arithmetic only: a memory-bound kernel (dict probes over 1.5M
    entries) tracked replay speed worse in the prototypes.
    """
    started = time.perf_counter()
    x = 1
    for _ in range(SPIN_ITERS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
    return (time.perf_counter() - started) * 1e3


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def supported_percentile(n: int,
                         candidates=(50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
                         ) -> float:
    """Highest candidate percentile with >= SAMPLES_BEYOND samples above it.

    Falls back to the lowest candidate when even that is unsupported
    (``--quick`` runs), which the caller flags.
    """
    best = candidates[0]
    for pct in candidates:
        if n * (100.0 - pct) / 100.0 >= SAMPLES_BEYOND:
            best = pct
    return best


def split_rounds(n: int, rounds: int = ROUNDS) -> list[tuple[int, int]]:
    """Cut ``n`` batches into ``rounds`` contiguous near-equal ranges."""
    rounds = max(1, min(rounds, n))
    base, extra = divmod(n, rounds)
    out, start = [], 0
    for r in range(rounds):
        stop = start + base + (1 if r < extra else 0)
        out.append((start, stop))
        start = stop
    return out


def calibration_scale(spins_ms) -> float:
    """Factor that turns host seconds into reference-host seconds."""
    return CAL_REF_MS / median(spins_ms)


@dataclass
class Round:
    """One round of the measured phase."""

    rows: int
    wall_s: float
    cpu_s: float
    #: batch latencies inside the round, host seconds
    latencies_s: list[float] = field(default_factory=list)
    #: calibration spins taken in (or on the edges of) the round, ms
    spins_ms: list[float] = field(default_factory=list)


def rounds_from_batches(rows, wall_s, cpu_s, spins, rounds: int = ROUNDS
                        ) -> list[Round]:
    """Group serial batches (a replay's trace windows) into rounds.

    ``spins`` holds ``(batch_index, ms)``: a spin with index ``i`` ran
    just before batch ``i`` (index ``len(rows)`` = after the last one).
    A round owns the spins on both of its edges, so every round has at
    least the two taken at round boundaries.
    """
    out = []
    for start, stop in split_rounds(len(rows), rounds):
        out.append(Round(
            rows=sum(rows[start:stop]),
            wall_s=sum(wall_s[start:stop]),
            cpu_s=sum(cpu_s[start:stop]),
            latencies_s=list(wall_s[start:stop]),
            spins_ms=[ms for idx, ms in spins if start <= idx <= stop]))
    return out


def summarize(rounds: list[Round], calibrate: bool) -> dict[str, float]:
    """Reduce rounds to the time-based end-to-end numbers.

    With ``calibrate`` each round's durations are first multiplied by
    that round's :func:`calibration_scale`.  Rates and CPU per op are
    medians over rounds; ``p50``/``p95`` run over every batch of the
    measured phase.
    """
    all_spins = [ms for r in rounds for ms in r.spins_ms]
    rates, cpus, lat = [], [], []
    for r in rounds:
        scale = 1.0
        if calibrate:
            scale = calibration_scale(r.spins_ms or all_spins)
        rates.append(r.rows / (r.wall_s * scale))
        cpus.append(r.cpu_s * scale / r.rows * 1e6)
        lat.extend(s * scale for s in r.latencies_s)
    total_rows = sum(r.rows for r in rounds)
    total_wall = sum(r.wall_s for r in rounds)
    return {
        "ops_per_s": median(rates),
        "cpu_us_per_op": median(cpus),
        "p50_ms": percentile(lat, 50.0) * 1e3,
        "p95_ms": percentile(lat, 95.0) * 1e3,
        "p99_ms": percentile(lat, 99.0) * 1e3,
        "batches": len(lat),
        "supported_pct": supported_percentile(len(lat)),
        "round_ops_per_s": rates,
        "raw_ops_per_s": total_rows / total_wall,
        "cal_ms": median(all_spins) if all_spins else 0.0,
    }
