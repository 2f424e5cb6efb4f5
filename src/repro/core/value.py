"""Slab-value accounting (Eq. 1 and Eq. 2 of the paper).

Each subclass (queue) accumulates, per time window:

* ``out[i]`` — penalty mass of requests that hit live segment Si
  (Eq. 1: ``Vi = sum of Ti over requests landing in Si``), and
* ``inc[i]`` — penalty mass of misses that landed in ghost segment Gi.

The candidate slab's **outgoing value** and the subclass's **incoming
value** are the Eq. 2 weighted sums ``V = Σ Vi / 2^(i+1)``.

The paper defines the window in cache accesses but not what happens at
its boundary; we support the literal ``reset`` and a smoother ``decay``
(multiply by λ), the default, which keeps decisions meaningful right
after the boundary.  See DESIGN.md "Interpretation choices".
"""

from __future__ import annotations


class ValueAccumulator:
    """Per-queue segment value state."""

    __slots__ = ("weights", "out", "inc", "out_hits", "inc_hits",
                 "_out_value", "_inc_value")

    def __init__(self, num_segments: int) -> None:
        if num_segments <= 0:
            raise ValueError("num_segments must be positive")
        self.weights = [1.0 / (1 << (i + 1)) for i in range(num_segments)]
        self.out = [0.0] * num_segments
        self.inc = [0.0] * num_segments
        #: raw request counts per segment (pre-PAMA values / diagnostics).
        self.out_hits = [0] * num_segments
        self.inc_hits = [0] * num_segments
        # Eq. 2 sums as last computed, None once ``out`` / ``inc`` moved.
        # The decision path reads them for every queue on every
        # pressured SET, far more often than a queue's segments change.
        self._out_value: float | None = None
        self._inc_value: float | None = None

    def add_outgoing(self, segment: int, amount: float) -> None:
        """Credit a request on live segment ``segment`` (Eq. 1 term).

        ``PamaPolicy.on_hit`` does the same in its own frame."""
        self.out[segment] += amount
        self.out_hits[segment] += 1
        self._out_value = None

    def add_incoming(self, segment: int, amount: float) -> None:
        """Credit a miss that fell in ghost segment ``segment``."""
        self.inc[segment] += amount
        self.inc_hits[segment] += 1
        self._inc_value = None

    def outgoing_value(self) -> float:
        """Eq. 2: penalty the subclass would suffer losing its bottom slab."""
        value = self._out_value
        if value is None:
            value = self._out_value = sum(
                w * v for w, v in zip(self.weights, self.out))
        return value

    def incoming_value(self) -> float:
        """Eq. 2 over ghost segments: penalty a new slab would save."""
        value = self._inc_value
        if value is None:
            value = self._inc_value = sum(
                w * v for w, v in zip(self.weights, self.inc))
        return value

    def rollover(self, mode: str, decay: float) -> None:
        """Apply the window-boundary rule."""
        self._out_value = self._inc_value = None
        if mode == "reset":
            n = len(self.out)
            self.out = [0.0] * n
            self.inc = [0.0] * n
            self.out_hits = [0] * n
            self.inc_hits = [0] * n
        elif mode == "decay":
            self.out = [v * decay for v in self.out]
            self.inc = [v * decay for v in self.inc]
            # Hit counts follow the same fade so pre-PAMA decays alike.
            # They stay floats: truncating to int would collapse a
            # count of 1 to 0 and zero out count-based segment values
            # after a few windows.
            self.out_hits = [v * decay for v in self.out_hits]
            self.inc_hits = [v * decay for v in self.inc_hits]
        else:
            raise ValueError(f"unknown window mode {mode!r}")
