"""Synthetic Facebook-like trace generation.

Fully vectorized: popularity ranks come from an explicit Zipf inverse
CDF, per-key attributes (sizes, penalties) are deterministic hashes of
the key id (stable across accesses without per-key tables), churn
rotates the hot set over time, and a configurable share of GETs goes to
one-timer keys (compulsory misses).
"""

from __future__ import annotations

import numpy as np

from repro.traces.penalty import PenaltyModel, uniform01
from repro.traces.record import Op, Trace
from repro.traces.workloads import SizeMixture, WorkloadProfile


def zipf_cdf(num_keys: int, alpha: float) -> np.ndarray:
    """Cumulative popularity of ranks 0..num_keys-1 under Zipf(alpha)."""
    if num_keys <= 0:
        raise ValueError("num_keys must be positive")
    weights = 1.0 / np.power(np.arange(1, num_keys + 1, dtype=np.float64), alpha)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf


def sample_sizes(mixture: SizeMixture, keys: np.ndarray,
                 seed: int) -> np.ndarray:
    """Deterministic per-key sizes from a log-uniform band mixture."""
    keys = np.asarray(keys, dtype=np.int64)
    u_band = uniform01(keys, seed)
    u_size = uniform01(keys, seed + 1)
    sizes = np.empty(len(keys), dtype=np.int64)
    cum = 0.0
    remaining = np.ones(len(keys), dtype=bool)
    for weight, lo, hi in mixture.bands:
        cum += weight
        in_band = remaining & (u_band < cum)
        if in_band.any():
            log_lo, log_hi = np.log(lo), np.log(hi + 1)
            sizes[in_band] = np.exp(
                log_lo + u_size[in_band] * (log_hi - log_lo)).astype(np.int64)
        remaining &= ~in_band
    if remaining.any():  # float round-off on the last band edge
        _w, lo, hi = mixture.bands[-1]
        sizes[remaining] = lo
    return np.clip(sizes, 1, None)


class SyntheticTraceGenerator:
    """Generates :class:`Trace` streams for a :class:`WorkloadProfile`.

    Key-id layout: warm keys occupy ids ``[0, num_keys)`` shifted by the
    churn epoch; cold one-timer keys draw from a disjoint high range so
    they never collide with warm keys.

    Args:
        profile: the workload description.
        seed: RNG seed — identical (profile, seed, n) → identical trace.
        penalty_model: override the profile-derived penalty model.
        mean_interarrival: seconds between requests (drives timestamps).
    """

    #: cold keys start here; far above any realistic warm universe.
    COLD_KEY_BASE = 1 << 40

    def __init__(self, profile: WorkloadProfile, seed: int = 0,
                 penalty_model: PenaltyModel | None = None,
                 mean_interarrival: float = 1e-4) -> None:
        # cold keys are numbered from ``COLD_KEY_BASE + (seed << 32)``
        # in an int64, and SeedSequence takes no negative entropy
        if not 0 <= seed < (1 << 31) - 256:
            raise ValueError(
                f"seed must be in [0, 2**31 - 256), got {seed}")
        self.profile = profile
        self.seed = seed
        self.penalty_model = penalty_model or PenaltyModel(
            correlation=profile.penalty_correlation,
            sigma=profile.penalty_sigma,
            unknown_fraction=profile.penalty_unknown_fraction,
            seed=seed,
        )
        self.mean_interarrival = mean_interarrival
        self._cdf = zipf_cdf(profile.num_keys, profile.zipf_alpha)
        self._cold_counter = self.COLD_KEY_BASE + (seed << 32)

    # -- internals ----------------------------------------------------------
    def _warm_keys(self, ranks: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Map popularity ranks to key ids, applying churn rotation.

        Each churn epoch retires ``churn_fraction`` of the universe: key
        ids advance by ``epoch * churn_fraction * num_keys``, so
        yesterday's hot keys become unreferenced and fresh ids heat up.
        Per-key attributes are hashes of the id, so the new hot keys
        draw fresh sizes and penalties.
        """
        p = self.profile
        shift = None
        if p.churn_interval > 0:
            epochs = positions // p.churn_interval
            shift = epochs * max(1, int(p.churn_fraction * p.num_keys))
        if p.drift_per_request > 0.0:
            # Continuous glide: the mapping advances fractionally per
            # request, so the hot set drifts instead of (or on top of)
            # the stepwise churn rotation.
            glide = (positions.astype(np.float64)
                     * p.drift_per_request).astype(np.int64)
            shift = glide if shift is None else shift + glide
        if shift is None:
            return ranks.astype(np.int64)
        return (ranks + shift).astype(np.int64)

    def generate(self, n: int, start_position: int = 0) -> Trace:
        """Produce ``n`` requests (deterministic in seed and position)."""
        if n <= 0:
            raise ValueError("n must be positive")
        p = self.profile
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, start_position]))

        positions = np.arange(start_position, start_position + n, dtype=np.int64)

        # operation mix
        u_op = rng.random(n)
        ops = np.full(n, Op.GET, dtype=np.uint8)
        ops[u_op >= p.get_fraction] = Op.SET
        ops[u_op >= p.get_fraction + p.set_fraction] = Op.DELETE

        # popularity ranks via inverse CDF
        ranks = np.searchsorted(self._cdf, rng.random(n), side="left")
        keys = self._warm_keys(ranks, positions)

        # cold one-timers: a slice of GETs goes to fresh keys
        cold = (ops == Op.GET) & (rng.random(n) < p.cold_fraction)
        n_cold = int(np.count_nonzero(cold))
        if n_cold:
            cold_ids = self._cold_counter + np.arange(n_cold, dtype=np.int64)
            self._cold_counter += n_cold
            keys = keys.copy()
            keys[cold] = cold_ids

        key_sizes = sample_sizes(p.key_sizes, keys, self.seed + 11)
        value_sizes = sample_sizes(p.value_sizes, keys, self.seed + 23)
        penalties = self.penalty_model.penalties_for(keys, key_sizes + value_sizes)

        gaps = rng.exponential(self.mean_interarrival, n)
        if p.diurnal_period > 0 and p.diurnal_amplitude > 0:
            # Load curve: request *rate* follows 1 + A*sin(2*pi*t/T),
            # so gaps compress at the peak and stretch in the trough.
            # Phase comes from the flat-load clock (position * mean
            # gap), keeping chunked generation position-anchored.
            t = positions * self.mean_interarrival
            rate = 1.0 + p.diurnal_amplitude * np.sin(
                2.0 * np.pi * t / p.diurnal_period)
            gaps = gaps / rate
        timestamps = np.cumsum(gaps) \
            + start_position * self.mean_interarrival

        return Trace(ops, keys, key_sizes.astype(np.int32),
                     value_sizes.astype(np.int32), penalties, timestamps,
                     meta={"workload": p.name, "seed": self.seed,
                           "start": start_position, "n": n})


def generate(profile: WorkloadProfile, n: int, seed: int = 0,
             **kwargs) -> Trace:
    """One-shot convenience: build a generator and produce ``n`` requests."""
    return SyntheticTraceGenerator(profile, seed=seed, **kwargs).generate(n)
