"""Small shared helpers used across the repro packages."""

from __future__ import annotations

import gc
from contextlib import contextmanager

KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024


def fmt_bytes(n: int) -> str:
    """Render a byte count in a human-friendly unit (``1.5MiB``)."""
    if n < 0:
        raise ValueError(f"byte count must be non-negative, got {n}")
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024 or unit == "TiB":
            if unit == "B":
                return f"{int(value)}B"
            return f"{value:.1f}{unit}"
        value /= 1024
    raise AssertionError("unreachable")


def fmt_seconds(t: float) -> str:
    """Render a duration with an appropriate unit (``250.0us``, ``1.20s``)."""
    if t < 0:
        raise ValueError(f"duration must be non-negative, got {t}")
    if t == 0:
        return "0s"
    if t < 1e-3:
        return f"{t * 1e6:.1f}us"
    if t < 1.0:
        return f"{t * 1e3:.1f}ms"
    return f"{t:.2f}s"


def parse_size(text: str) -> int:
    """Parse ``"64KiB"``/``"4GB"``/``"1048576"`` into a byte count.

    Decimal (``KB``) and binary (``KiB``) suffixes are both treated as
    binary multiples, matching memcached's convention.
    """
    s = text.strip().lower()
    multipliers = {
        "tib": GIB * 1024, "tb": GIB * 1024, "t": GIB * 1024,
        "gib": GIB, "gb": GIB, "g": GIB,
        "mib": MIB, "mb": MIB, "m": MIB,
        "kib": KIB, "kb": KIB, "k": KIB,
        "b": 1,
    }
    for suffix, mult in multipliers.items():
        if s.endswith(suffix):
            num = s[: -len(suffix)].strip()
            if not num:
                raise ValueError(f"missing number in size {text!r}")
            return int(float(num) * mult)
    return int(s)


def next_pow2(n: int) -> int:
    """Smallest power of two >= n (n must be positive)."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return 1 << (n - 1).bit_length()


def seq_sum(carry: float, values) -> float:
    """``carry + v0 + v1 + ...`` added strictly left to right.

    Bit for bit what a Python loop of ``carry += v`` computes; NumPy's
    ``values.sum()`` adds pairwise and does not.  The array forms of the
    per-request recorders accumulate with this, so a replay reduced per
    window equals the one recorded per request.
    """
    import numpy as np

    buf = np.empty(len(values) + 1)
    buf[0] = carry
    buf[1:] = values
    # the scalar += makes a NaN (+inf meeting -inf) and an overflow to
    # inf silently
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.add.accumulate(buf, out=buf)[-1])


@contextmanager
def collector_paused():
    """Run the ``with`` body with CPython's cyclic collector disabled.

    For code that creates no reference cycles, so that everything it
    drops is freed by reference counting and the collector's passes
    over the live heap are pure cost.  The collector is re-enabled on
    exit, an exception included, only if it was enabled on entry: a
    caller's own pause stays in force.  Nothing is collected on exit;
    the collector's thresholds take over again.  The switch is
    process-wide, so other threads run without the collector too.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
