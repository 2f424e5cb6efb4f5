"""Request-scoped span tracing: Dapper-style trace trees over ticks.

A *span* is one timed operation (a request, a node attempt, a backend
fill) with a parent link; a *trace* is the tree of spans one sampled
request produced.  The cluster's resilient routing path emits a child
span per node attempt — retries, backoff, connection drops, timeouts
and breaker rejections land on the span as tick-stamped span events —
so a fault-injection run yields replayable waterfalls: which node was
tried, why it failed, where the request failed over.

Sampling is *deterministic and seeded*: whether tick ``t`` is traced is
a pure splitmix64 function of ``(seed, t)``, the same contract as
:mod:`repro.faults.plan` — identical seeds replay identical trace sets,
which is what makes span-level assertions regression-testable.

Threading model: the start/end stack is single-threaded (the replay
engine), matching the simulator; the protocol server uses
:meth:`SpanTracer.record_single`, which appends one finished root span
atomically and never touches the stack.
"""

from __future__ import annotations

from collections import deque

from repro.bloom.hashing import _MASK64, splitmix64

#: stochastic channel salt for sampling draws (cf. repro.faults.plan).
CHAN_SPAN_SAMPLE = 0x5A5A_0B5E


def sample_draw(seed: int, tick: int) -> float:
    """Uniform [0, 1) draw deciding whether ``tick`` is sampled —
    a pure function of its arguments (no RNG state)."""
    x = splitmix64((seed ^ (CHAN_SPAN_SAMPLE * 0x9E3779B97F4A7C15))
                   & _MASK64)
    x = splitmix64((x ^ tick) & _MASK64)
    return x / 2.0 ** 64


class Span:
    """One traced operation: name, tick range, status, attributes, and
    tick-stamped span events (retry, conn_drop, ...)."""

    __slots__ = ("span_id", "parent_id", "trace_id", "name", "start_tick",
                 "end_tick", "status", "attrs", "events")

    def __init__(self, span_id: int, parent_id: int | None, trace_id: int,
                 name: str, start_tick: int, attrs: dict) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.name = name
        self.start_tick = start_tick
        self.end_tick = start_tick
        self.status = "open"
        self.attrs = attrs
        self.events: list[dict] = []

    def add_event(self, name: str, tick: int, **attrs) -> None:
        self.events.append({"name": name, "tick": tick, **attrs})

    def as_dict(self) -> dict:
        return {"span_id": self.span_id, "parent_id": self.parent_id,
                "trace_id": self.trace_id, "name": self.name,
                "start_tick": self.start_tick, "end_tick": self.end_tick,
                "status": self.status, "attrs": self.attrs,
                "events": self.events}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Span({self.name}#{self.span_id}"
                f" [{self.start_tick},{self.end_tick}] {self.status})")


class SpanTracer:
    """Collects sampled trace trees with bounded memory.

    Args:
        sample: fraction of ticks traced; ``1.0`` traces everything,
            ``0.0`` nothing.  Per-tick decisions are pure functions of
            ``(seed, tick)``.
        seed: sampling seed (same seed -> same sampled tick set).
        capacity: finished traces retained; older whole traces fall off
            the back (``dropped_traces`` counts them).

    Usage, from a replay loop::

        if tracer.sampled(tick):
            root = tracer.start_trace(tick, "get", key=key)
            ...  # nested code calls tracer.start()/end()
            tracer.end(root, tick, status="ok")

    Nested instrumentation (the cluster's routing path) calls
    :meth:`start`, which silently returns ``None`` when no trace is
    active — so instrumented code needs no sampling awareness, only
    ``tracer.end(span, ...)`` tolerance for ``span is None`` (built in).
    """

    def __init__(self, sample: float = 1.0, seed: int = 0,
                 capacity: int = 256) -> None:
        if not 0.0 <= sample <= 1.0:
            raise ValueError(f"sample must be in [0, 1], got {sample}")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sample = sample
        self.seed = seed
        self.capacity = capacity
        self.started_traces = 0
        self.finished_traces = 0
        self._traces: deque[list[Span]] = deque(maxlen=capacity)
        self._stack: list[Span] = []
        self._open: list[Span] = []  # every span of the active trace
        self._next_span_id = 1

    # -- sampling -------------------------------------------------------
    def sampled(self, tick: int) -> bool:
        """Pure, seeded per-tick sampling decision."""
        if self.sample >= 1.0:
            return True
        if self.sample <= 0.0:
            return False
        return sample_draw(self.seed, tick) < self.sample

    @property
    def active(self) -> bool:
        """True while a trace is open (between start_trace and its end)."""
        return bool(self._stack)

    @property
    def dropped_traces(self) -> int:
        return self.finished_traces - len(self._traces)

    # -- span lifecycle -------------------------------------------------
    def start_trace(self, tick: int, name: str, **attrs) -> Span:
        """Open a new root span (finishing any trace left open)."""
        if self._stack:  # a crashed consumer left a trace open
            self._finish_trace()
        self.started_traces += 1
        root = Span(self._next_span_id, None, self.started_traces, name,
                    tick, attrs)
        self._next_span_id += 1
        self._stack = [root]
        self._open = [root]
        return root

    def start(self, name: str, tick: int, **attrs) -> Span | None:
        """Open a child of the current span; None when no trace is
        active (the unsampled fast path for nested instrumentation)."""
        if not self._stack:
            return None
        parent = self._stack[-1]
        span = Span(self._next_span_id, parent.span_id, parent.trace_id,
                    name, tick, attrs)
        self._next_span_id += 1
        self._stack.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span | None, tick: int, status: str = "ok",
            **attrs) -> None:
        """Close ``span`` (no-op for None); closing the root finishes
        the trace.  Unclosed descendants are closed implicitly."""
        if span is None or not self._stack:
            return
        span.end_tick = tick
        span.status = status
        if attrs:
            span.attrs.update(attrs)
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
            # descendant left open: inherit the closing tick
            top.end_tick = tick
            if top.status == "open":
                top.status = "ok"
        if not self._stack:
            self._finish_trace()

    def event(self, name: str, tick: int, **attrs) -> None:
        """Attach a tick-stamped event to the current span (if any)."""
        if self._stack:
            self._stack[-1].add_event(name, tick, **attrs)

    def _finish_trace(self) -> None:
        self.finished_traces += 1
        self._traces.append(self._open)
        self._stack = []
        self._open = []

    def record_single(self, name: str, start_tick: int, end_tick: int,
                      status: str = "ok", **attrs) -> None:
        """Append a finished one-span trace without touching the stack.

        The protocol server records its per-command spans this way:
        one deque append, so it is also safe under the GIL from any
        thread.
        """
        self.started_traces += 1
        span = Span(self._next_span_id, None, self.started_traces, name,
                    start_tick, attrs)
        self._next_span_id += 1
        span.end_tick = end_tick
        span.status = status
        self.finished_traces += 1
        self._traces.append([span])

    # -- access ---------------------------------------------------------
    def traces(self) -> list[list[Span]]:
        """Finished traces, oldest first (each a list of spans,
        root first)."""
        return list(self._traces)

    def trace_dicts(self) -> list[list[dict]]:
        """JSON-able form of every retained trace."""
        return [[s.as_dict() for s in spans] for spans in self._traces]

    def find_traces(self, predicate) -> list[list[Span]]:
        """Traces for which ``predicate(spans) `` is truthy."""
        return [spans for spans in self._traces if predicate(spans)]


def span_children(spans: list[dict] | list[Span]) -> dict:
    """``parent span_id -> [child, ...]`` adjacency for one trace."""
    as_dicts = [s.as_dict() if isinstance(s, Span) else s for s in spans]
    children: dict = {}
    for s in as_dicts:
        children.setdefault(s["parent_id"], []).append(s)
    return children


def format_waterfall(spans: list[dict] | list[Span]) -> str:
    """Render one trace as an indented text waterfall.

    Each line: tick range, bar offset proportional to the root span,
    name, status, and the span's events — the quick-look form of the
    HTML report's waterfall.
    """
    as_dicts = [s.as_dict() if isinstance(s, Span) else s for s in spans]
    if not as_dicts:
        return "(empty trace)"
    children = span_children(as_dicts)
    roots = children.get(None, [])
    lines: list[str] = []

    def emit(span: dict, depth: int) -> None:
        events = " ".join(
            f"[{e['name']}@{e['tick']}]" for e in span["events"])
        attrs = " ".join(f"{k}={v!r}" for k, v in span["attrs"].items())
        lines.append(
            f"{'  ' * depth}{span['name']} "
            f"ticks={span['start_tick']}..{span['end_tick']} "
            f"status={span['status']}"
            + (f" {attrs}" if attrs else "")
            + (f" {events}" if events else ""))
        for child in children.get(span["span_id"], []):
            emit(child, depth + 1)

    for root in roots:
        emit(root, 0)
    return "\n".join(lines)
