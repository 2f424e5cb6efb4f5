"""Adaptive penalty binning — a PAMA extension.

The paper fixes the five subclass ranges at (0,1ms] ... (1s,5s].  That
works for Facebook-like penalty spreads, but a workload whose penalties
cluster inside one range collapses every item into a single subclass
and PAMA degenerates to pre-PAMA-with-one-bin.  This extension learns
the bin edges from the observed penalty distribution: it samples
penalties (reservoir), and once warm, splits them at quantiles so the
subclasses stay balanced whatever the distribution looks like.

Re-binning applies to *new insertions only* — live items keep the queue
they were stored in (their bin is that queue's ``bin_idx``), which is
exactly how Memcached handles class-geometry changes: lazily, through
natural churn.  A learned edge can move inside ``on_miss``, so the
cache bins a miss and its fill separately.
"""

from __future__ import annotations

import random
from bisect import bisect_left

from repro.core.config import PamaConfig
from repro.core.pama import PamaPolicy


class AdaptivePamaPolicy(PamaPolicy):
    """PAMA with quantile-learned subclass penalty edges.

    Args:
        config: base PAMA config (its fixed edges serve until warm-up
            completes, and define the number of bins).
        warmup_samples: penalties to observe before learning edges.
        reservoir_size: size of the penalty reservoir (uniform sample
            over everything seen so far).
        refresh_interval: re-learn edges every N observed penalties
            after warm-up (0 = learn once and freeze).
        seed: reservoir RNG seed.
    """

    name = "pama-adaptive"

    def __init__(self, config: PamaConfig | None = None,
                 warmup_samples: int = 20_000,
                 reservoir_size: int = 4_096,
                 refresh_interval: int = 0, seed: int = 0) -> None:
        super().__init__(config)
        if warmup_samples <= 0 or reservoir_size <= 0:
            raise ValueError("warmup_samples and reservoir_size must be positive")
        if refresh_interval < 0:
            raise ValueError("refresh_interval must be >= 0")
        self.warmup_samples = warmup_samples
        self.reservoir_size = reservoir_size
        self.refresh_interval = refresh_interval
        self._rng = random.Random(seed)
        self._reservoir: list[float] = []
        self._observed = 0
        #: learned ascending bin upper edges (None until warm)
        self.learned_edges: tuple[float, ...] | None = None
        self.relearn_count = 0

    # -- sampling ---------------------------------------------------------
    def observe_penalty(self, penalty: float) -> None:
        """Feed one penalty observation into the reservoir."""
        if not (penalty >= 0):  # NaN or negative: not a real observation
            return
        self._observed += 1
        if len(self._reservoir) < self.reservoir_size:
            self._reservoir.append(penalty)
        else:
            slot = self._rng.randrange(self._observed)
            if slot < self.reservoir_size:
                self._reservoir[slot] = penalty
        if self.learned_edges is None:
            if self._observed >= self.warmup_samples:
                self._learn()
        elif (self.refresh_interval
              and self._observed % self.refresh_interval == 0):
            self._learn()

    def _learn(self) -> None:
        """Set bin edges at the reservoir's quantiles."""
        if len(self._reservoir) < 2 * self.config.num_bins:
            return  # not enough signal yet
        import numpy as np

        num_bins = self.config.num_bins
        qs = [(i + 1) / num_bins for i in range(num_bins)]
        edges = np.quantile(np.asarray(self._reservoir), qs)
        # de-duplicate degenerate edges (heavily repeated penalties)
        uniq: list[float] = []
        for e in edges.tolist():
            if not uniq or e > uniq[-1]:
                uniq.append(e)
        self.learned_edges = tuple(uniq)
        self.relearn_count += 1

    # -- PAMA overrides -----------------------------------------------------
    def bin_for(self, penalty: float) -> int:
        if self.learned_edges is None:
            return self.config.bin_for(penalty)
        if penalty != penalty or penalty < 0:
            raise ValueError(f"invalid penalty {penalty}")
        idx = bisect_left(self.learned_edges, penalty)
        return min(idx, len(self.learned_edges) - 1)

    def bin_edges(self) -> tuple[float, ...] | None:
        # Binning re-learns mid-replay; precomputed bins would go stale.
        return None

    def on_insert(self, queue, item) -> None:
        self.observe_penalty(item.penalty)
        super().on_insert(queue, item)

    def on_miss(self, key: object, class_idx: int, penalty: float,
                h1: int = 0, h2: int = 0) -> None:
        self.observe_penalty(penalty)
        super().on_miss(key, class_idx, penalty, h1, h2)
