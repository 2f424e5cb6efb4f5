"""PAMA configuration: penalty bins, reference segments, value windows."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass


#: The paper's five subclass penalty ranges (§IV): (0,1ms], (1ms,10ms],
#: (10ms,100ms], (100ms,1s], (1s,5s].  Values above the last edge fall
#: in the last bin (the trace methodology caps penalties at 5s anyway).
DEFAULT_PENALTY_EDGES = (0.001, 0.01, 0.1, 1.0, 5.0)

#: Default penalty assumed when a trace gives none (paper: "we use a
#: default penalty value (100ms), which is roughly the observed mean").
DEFAULT_PENALTY = 0.1

#: Paper's cap on believable GET-miss -> SET gaps.
PENALTY_CAP = 5.0


@dataclass(frozen=True)
class PamaConfig:
    """Tunables of the PAMA scheme.

    Attributes:
        penalty_edges: ascending upper edges of the subclass penalty
            ranges; ``len(penalty_edges)`` bins are created per class.
        m: number of *additional* reference segments beyond the
            candidate/receiving segment (Eq. 2; paper default m=2, with
            the Fig 10 sensitivity sweep over 0/2/4/8).
        value_window: the time window, in cache accesses, over which
            segment values accumulate (§III: window time is "the number
            of accesses on the entire cache").
        window_mode: what happens to accumulated values at a window
            boundary — ``"decay"`` multiplies them by ``decay`` (default;
            avoids the degenerate all-zero state right after a reset),
            ``"reset"`` zeroes them (the literal reading of the paper).
        decay: multiplier applied in ``"decay"`` mode.
        tracker: ``"exact"`` for O(1) boundary-pointer segment tracking,
            ``"bloom"`` for the paper's Bloom-filter membership tests.
        bloom_fp_rate: false-positive target for ``"bloom"`` tracking.

    The ghost list is ``num_segments`` deep — the receiving segment plus
    ``m`` references, one per term Eq. 2 sums — and takes no setting.
    """

    penalty_edges: tuple[float, ...] = DEFAULT_PENALTY_EDGES
    m: int = 2
    value_window: int = 100_000
    window_mode: str = "decay"
    decay: float = 0.5
    tracker: str = "exact"
    bloom_fp_rate: float = 0.01

    def __post_init__(self) -> None:
        if not self.penalty_edges:
            raise ValueError("penalty_edges must not be empty")
        if list(self.penalty_edges) != sorted(self.penalty_edges):
            raise ValueError("penalty_edges must be ascending")
        if any(e <= 0 for e in self.penalty_edges):
            raise ValueError("penalty edges must be positive")
        if self.m < 0:
            raise ValueError(f"m must be >= 0, got {self.m}")
        if self.value_window <= 0:
            raise ValueError("value_window must be positive")
        if self.window_mode not in ("decay", "reset"):
            raise ValueError(f"unknown window_mode {self.window_mode!r}")
        if not 0.0 <= self.decay <= 1.0:
            raise ValueError("decay must be in [0, 1]")
        if self.tracker not in ("exact", "bloom"):
            raise ValueError(f"unknown tracker {self.tracker!r}")
        if not 0.0 < self.bloom_fp_rate < 1.0:
            raise ValueError("bloom_fp_rate must be in (0, 1)")

    @property
    def num_bins(self) -> int:
        return len(self.penalty_edges)

    @property
    def num_segments(self) -> int:
        """Tracked bottom segments: candidate S0 plus m references."""
        return self.m + 1

    def bin_for(self, penalty: float) -> int:
        """Subclass index for a penalty (values beyond the cap → last bin)."""
        if penalty != penalty or penalty < 0:  # NaN or negative
            raise ValueError(f"invalid penalty {penalty}")
        idx = bisect_left(self.penalty_edges, penalty)
        return min(idx, len(self.penalty_edges) - 1)

    def segment_weights(self) -> list[float]:
        """Eq. 2 weights: segment Si contributes with weight 1/2^(i+1)."""
        return [1.0 / (1 << (i + 1)) for i in range(self.num_segments)]
