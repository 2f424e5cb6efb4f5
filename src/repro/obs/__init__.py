"""repro.obs — lightweight observability: metrics, events, export.

Two pieces:

* :class:`Registry` — counters, gauges, and log-bucketed histograms
  with p50/p90/p99/p999 quantile estimation;
* :class:`EventTrace` — a bounded ring buffer of structured events
  (slab migrations, evictions, ghost hits, window rollovers), each
  stamped with the cache's access tick.

Instrumented components (:class:`~repro.cache.cache.SlabCache`, the
simulator, the server) hold *optional* references to a registry; when
none is attached every instrumentation point is a single ``is not
None`` check, so the simulate hot path is unaffected (see
``benchmarks/bench_obs_overhead.py``).

Enable globally (new caches/simulators auto-attach)::

    from repro import obs
    registry = obs.enable()
    ... run a simulation ...
    print(registry.to_prometheus())
    obs.disable()

or attach explicitly with ``cache.attach_obs(Registry(), EventTrace())``.
"""

from __future__ import annotations

import importlib

from repro.obs.events import Event, EventTrace
from repro.obs.export import (diff_snapshots, flat_items, format_diff,
                              snapshot, to_json, to_prometheus)
from repro.obs.registry import Counter, Gauge, Histogram, Registry
from repro.obs.spans import Span, SpanTracer, format_waterfall

#: re-exports imported the first time they are asked for (PEP 562): the
#: timeline recorder and the report renderer load NumPy and are not
#: needed by the server or by a replay with nothing attached.
_LAZY = {
    "repro.obs.timeline": ("TimelineRecorder", "JsonlSink"),
    "repro.obs.report": ("write_dump", "load_dump", "validate_dump",
                         "render_html", "render_report"),
}
_MODULE_OF = {name: module for module, names in _LAZY.items()
              for name in names}

__all__ = [
    "Counter", "Gauge", "Histogram", "Registry",
    "Event", "EventTrace",
    "snapshot", "to_json", "to_prometheus", "flat_items",
    "diff_snapshots", "format_diff",
    "TimelineRecorder", "JsonlSink",
    "Span", "SpanTracer", "format_waterfall",
    "write_dump", "load_dump", "validate_dump", "render_html",
    "render_report",
    "enable", "disable", "is_enabled", "get_registry", "get_event_trace",
]

#: module-level switch: when enabled, newly constructed SlabCaches and
#: Simulators attach to this registry/trace automatically.
_registry: Registry | None = None
_events: EventTrace | None = None


def enable(registry: Registry | None = None,
           events: EventTrace | None = None,
           event_capacity: int = 4096) -> Registry:
    """Turn on global observability; returns the active registry."""
    global _registry, _events
    _registry = registry if registry is not None else Registry()
    _events = events if events is not None else EventTrace(event_capacity)
    return _registry


def disable() -> None:
    """Turn global observability off (existing attachments persist)."""
    global _registry, _events
    _registry = None
    _events = None


def is_enabled() -> bool:
    return _registry is not None


def get_registry() -> Registry | None:
    return _registry


def get_event_trace() -> EventTrace | None:
    return _events


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
