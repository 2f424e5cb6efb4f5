"""Metrics registry: counters, gauges, and log-bucketed histograms.

The design goal is *near-zero cost*: metric objects are plain
``__slots__`` classes whose hot methods are a couple of arithmetic ops;
instrumented code holds direct references to them and guards every
call with an ``is not None`` check.  What can be computed from state an
owner already keeps is not recorded per operation at all: a histogram
takes a whole array (:meth:`Histogram.record_many`), and a registry
asks its ``feeds`` for fresh counter values when it is read.

Histograms are log-bucketed (geometric bucket bounds), the standard
HDR-style trade-off: a fixed, small memory footprint with bounded
*relative* quantile error of about ``sqrt(growth)`` per estimate.
"""

from __future__ import annotations

from bisect import bisect_left

from repro._util import seq_sum


def _check_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name) \
            or name[0].isdigit():
        raise ValueError(f"invalid metric name {name!r}")
    return name


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "help", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 labels: tuple[tuple[str, str], ...] = ()) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "help", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 labels: tuple[tuple[str, str], ...] = ()) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Log-bucketed histogram with quantile estimation.

    Bucket ``i`` covers ``(bounds[i-1], bounds[i]]``; values above the
    last bound land in an overflow bucket.  Quantiles are estimated as
    the geometric midpoint of the winning bucket, clamped to the
    observed min/max, which bounds relative error by ``sqrt(growth)``.
    """

    __slots__ = ("name", "help", "labels", "growth", "bounds", "counts",
                 "count", "sum", "min", "max")
    kind = "histogram"

    def __init__(self, name: str, help: str = "", lo: float = 1e-6,
                 growth: float = 1.5, nbuckets: int = 64,
                 labels: tuple[tuple[str, str], ...] = ()) -> None:
        if lo <= 0 or growth <= 1 or nbuckets < 1:
            raise ValueError("need lo > 0, growth > 1, nbuckets >= 1")
        self.name = _check_name(name)
        self.help = help
        self.labels = labels
        self.growth = growth
        self.bounds = [lo * growth ** i for i in range(nbuckets)]
        self.counts = [0] * (nbuckets + 1)  # +1 = overflow bucket
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def record(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.counts[bisect_left(self.bounds, value)] += 1

    def record_many(self, values) -> None:
        """Array form of :meth:`record`: the state that recording each
        value in order leaves, ``sum`` bit for bit."""
        import numpy as np

        values = np.asarray(values, dtype=np.float64)
        if np.isnan(values).any():
            # bisect_left files NaN under bucket 0 and leaves min/max
            # alone; searchsorted and np.min do neither.
            for value in values.tolist():
                self.record(value)
        elif len(values):
            self.count += len(values)
            self.sum = seq_sum(self.sum, values)
            self.min = min(self.min, float(values.min()))
            self.max = max(self.max, float(values.max()))
            added = np.bincount(np.searchsorted(self.bounds, values, "left"),
                                minlength=len(self.counts))
            self.counts = [a + b for a, b in zip(self.counts, added.tolist())]

    def reset(self) -> None:
        """Zero every bucket and aggregate (bounds stay as configured).

        Windowed consumers (the timeline recorder) reuse one histogram
        per window instead of allocating a fresh bucket array each time.
        """
        self.counts = [0] * len(self.counts)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0 < q <= 1) of recorded values."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = q * self.count
        cum = 0
        bounds = self.bounds
        for i, n in enumerate(self.counts):
            cum += n
            if cum >= rank:
                if i >= len(bounds):  # overflow bucket
                    return self.max
                upper = bounds[i]
                lower = bounds[i - 1] if i else upper / self.growth
                estimate = (lower * upper) ** 0.5
                return min(max(estimate, self.min), self.max)
        return self.max  # pragma: no cover - unreachable

    def quantiles(self, qs: tuple[float, ...] = (0.5, 0.9, 0.99, 0.999)
                  ) -> dict[str, float]:
        """Named quantile estimates, e.g. ``{"p50": ..., "p999": ...}``."""
        if not self.count:
            return {}
        return {("p%g" % (q * 100)).replace(".", ""): self.quantile(q)
                for q in qs}

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, Prometheus ``le`` style."""
        out, cum = [], 0
        for bound, n in zip(self.bounds, self.counts):
            cum += n
            out.append((bound, cum))
        out.append((float("inf"), self.count))
        return out


Metric = Counter | Gauge | Histogram


class Registry:
    """Holds metrics keyed by (name, labels); get-or-create semantics."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]],
                            Metric] = {}
        #: callables run before every read (:meth:`collect`,
        #: :meth:`get`): an owner of counters that mirror state it
        #: already keeps (``SlabCache`` and its ``CacheStats``) adds one
        #: that brings them up to date, instead of on every operation.
        self.feeds: list = []

    def _get_or_create(self, cls, name: str, help: str,
                       labels: dict[str, str], **kwargs) -> Metric:
        key = (name, tuple(sorted(labels.items())))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, help, labels=key[1], **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}")
        return metric

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "", lo: float = 1e-6,
                  growth: float = 1.5, nbuckets: int = 64,
                  **labels: str) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels,
                                   lo=lo, growth=growth, nbuckets=nbuckets)

    def collect(self) -> list[Metric]:
        """All metrics, sorted by (name, labels) for stable output."""
        for feed in self.feeds:
            feed()
        return [self._metrics[k] for k in sorted(self._metrics)]

    def get(self, name: str, **labels: str) -> Metric | None:
        for feed in self.feeds:
            feed()
        return self._metrics.get((name, tuple(sorted(labels.items()))))

    def __len__(self) -> int:
        return len(self._metrics)

    # Thin conveniences over repro.obs.export (kept there to avoid
    # loading json/formatting machinery on the instrumentation path).
    def snapshot(self, events=None, meta: dict | None = None) -> dict:
        from repro.obs.export import snapshot
        return snapshot(self, events=events, meta=meta)

    def to_json(self, events=None, meta: dict | None = None) -> str:
        from repro.obs.export import to_json
        return to_json(self, events=events, meta=meta)

    def to_prometheus(self) -> str:
        from repro.obs.export import to_prometheus
        return to_prometheus(self)
