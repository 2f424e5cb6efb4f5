"""Dump directories and the self-contained HTML report.

A *dump directory* is the on-disk form of one observed run:

* ``meta.json`` — run description (policy, seed, scenario, ...);
* ``timeline.jsonl`` — one JSON object per closed timeline window
  (see :mod:`repro.obs.timeline` for the row schema);
* ``spans.json`` — finished span traces, each a list of span dicts
  (see :mod:`repro.obs.spans`);
* ``snapshot.json`` — a registry snapshot (counters/gauges/histograms,
  optionally the event-trace tail).

All four files are optional except that a useful report needs at least
one of timeline/spans/snapshot.  :func:`validate_dump` checks the
schema of whatever is present and returns a list of human-readable
errors (empty = valid); ``repro-kv report`` refuses to render an
invalid dump, which is what the CI artifact job gates on.

The HTML report is fully self-contained — inline CSS, inline SVG
charts, a small inline script for hover read-outs, no external assets
— so it can be archived as a build artifact and opened offline.
"""

from __future__ import annotations

import html
import json
import os

from repro.obs.timeline import NESTED_FIELDS, SCALAR_FIELDS, load_jsonl

# -- dump directory i/o ----------------------------------------------------

META_FILE = "meta.json"
TIMELINE_FILE = "timeline.jsonl"
SPANS_FILE = "spans.json"
SNAPSHOT_FILE = "snapshot.json"


def write_dump(dirpath: str, *, meta: dict | None = None,
               registry=None, events=None, timeline=None,
               tracer=None) -> list[str]:
    """Write one run's observations as a dump directory.

    ``timeline`` is a :class:`~repro.obs.timeline.TimelineRecorder`,
    whose rows are written — if the recorder already streamed to a
    JSONL sink inside ``dirpath``, skip passing it here — and
    ``tracer`` a :class:`~repro.obs.spans.SpanTracer`, whose traces are.
    Returns the paths written.
    """
    os.makedirs(dirpath, exist_ok=True)
    written: list[str] = []

    def emit(name: str, payload) -> None:
        path = os.path.join(dirpath, name)
        with open(path, "w") as fh:
            fh.write(payload)
        written.append(path)

    emit(META_FILE, json.dumps(meta or {}, indent=2, default=str))
    if timeline is not None:
        emit(TIMELINE_FILE, "".join(
            json.dumps(row, sort_keys=True) + "\n" for row in timeline.rows))
    if tracer is not None:
        emit(SPANS_FILE, json.dumps(tracer.trace_dicts(), indent=1))
    if registry is not None:
        from repro.obs.export import to_json
        emit(SNAPSHOT_FILE, to_json(registry, events=events, meta=meta))
    return written


def load_dump(dirpath: str) -> dict:
    """Read a dump directory into ``{meta, timeline, traces, snapshot}``
    (absent files load as empty)."""
    if not os.path.isdir(dirpath):
        raise FileNotFoundError(f"dump directory {dirpath!r} does not exist")

    def maybe_json(name: str, default):
        path = os.path.join(dirpath, name)
        if not os.path.exists(path):
            return default
        with open(path) as fh:
            return json.load(fh)

    timeline_path = os.path.join(dirpath, TIMELINE_FILE)
    return {
        "meta": maybe_json(META_FILE, {}),
        "timeline": (load_jsonl(timeline_path)
                     if os.path.exists(timeline_path) else []),
        "traces": maybe_json(SPANS_FILE, []),
        "snapshot": maybe_json(SNAPSHOT_FILE, {}),
    }


# -- schema validation -----------------------------------------------------

# ``tenants`` is optional: dumps written before the multi-tenant
# timeline dimension existed must keep validating.
_ROW_REQUIRED = (set(SCALAR_FIELDS) | set(NESTED_FIELDS)) - {"tenants"}
_SPAN_REQUIRED = {"span_id", "parent_id", "trace_id", "name", "start_tick",
                  "end_tick", "status", "attrs", "events"}


def validate_dump(dump: dict) -> list[str]:
    """Schema-check a loaded dump; returns error strings (empty = ok)."""
    errors: list[str] = []
    if not isinstance(dump.get("meta"), dict):
        errors.append("meta: expected a JSON object")

    rows = dump.get("timeline", [])
    for i, row in enumerate(rows):
        missing = _ROW_REQUIRED - set(row)
        if missing:
            errors.append(f"timeline row {i}: missing {sorted(missing)}")
            continue
        if row["tick_end"] <= row["tick_start"]:
            errors.append(f"timeline row {i}: empty tick range "
                          f"[{row['tick_start']}, {row['tick_end']})")
        if row["hits"] > row["gets"]:
            errors.append(f"timeline row {i}: hits {row['hits']} exceed "
                          f"gets {row['gets']}")
        for field in NESTED_FIELDS:
            if field not in row:
                continue  # optional fields (tenants) may be absent
            if not isinstance(row[field], dict):
                errors.append(f"timeline row {i}: {field} must be an object")
    ticks = [r.get("tick_start", 0) for r in rows]
    if ticks != sorted(ticks):
        errors.append("timeline: rows are not ordered by tick_start")

    for t, spans in enumerate(dump.get("traces", [])):
        if not isinstance(spans, list) or not spans:
            errors.append(f"trace {t}: expected a non-empty span list")
            continue
        ids = set()
        roots = 0
        for s, span in enumerate(spans):
            missing = _SPAN_REQUIRED - set(span)
            if missing:
                errors.append(f"trace {t} span {s}: missing "
                              f"{sorted(missing)}")
                continue
            ids.add(span["span_id"])
            if span["parent_id"] is None:
                roots += 1
            if span["end_tick"] < span["start_tick"]:
                errors.append(f"trace {t} span {s}: ends before it starts")
        if roots != 1:
            errors.append(f"trace {t}: expected exactly 1 root span, "
                          f"found {roots}")
        for s, span in enumerate(spans):
            parent = span.get("parent_id")
            if parent is not None and parent not in ids:
                errors.append(f"trace {t} span {s}: dangling parent_id "
                              f"{parent}")

    snap = dump.get("snapshot", {})
    if snap:
        for section in ("counters", "gauges", "histograms"):
            if not isinstance(snap.get(section, []), list):
                errors.append(f"snapshot: {section} must be a list")
    return errors


# -- HTML rendering --------------------------------------------------------

#: categorical palette (validated reference order; see docs): the first
#: three slots are all-pairs safe, the full order is adjacent-pairs safe.
_SERIES_LIGHT = ("#2a78d6", "#eb6834", "#1baf7a", "#eda100",
                 "#e87ba4", "#008300", "#4a3aa7", "#e34948")
_SERIES_DARK = ("#3987e5", "#d95926", "#199e70", "#c98500",
                "#d55181", "#008300", "#9085e9", "#e66767")
_OTHER = "#8a8984"

_STATUS_COLORS = {"ok": "#1baf7a", "failed": "#e34948", "error": "#e34948",
                  "degraded": "#eda100"}

_CSS = """
:root { color-scheme: light dark; }
body {
  margin: 2rem auto; max-width: 1080px; padding: 0 1rem;
  background: #fcfcfb; color: #0b0b0b;
  font: 14px/1.5 system-ui, -apple-system, sans-serif;
}
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
.meta, table { border-collapse: collapse; }
td, th { padding: .25rem .6rem; border-bottom: 1px solid #e5e4e0;
         text-align: right; }
th { color: #52514e; font-weight: 600; }
td:first-child, th:first-child { text-align: left; }
.chart { margin: 1rem 0; }
.chart svg { overflow: visible; }
.legend { display: flex; flex-wrap: wrap; gap: .4rem 1rem;
          font-size: .85rem; color: #52514e; margin: .2rem 0 .4rem; }
.legend .swatch { display: inline-block; width: 10px; height: 10px;
                  border-radius: 2px; margin-right: .35rem; }
.axis { font-size: 10px; fill: #52514e; }
.grid { stroke: #e5e4e0; stroke-width: 1; }
.readout { font-size: .8rem; color: #52514e; min-height: 1.2em; }
.waterfall { margin: .6rem 0 1.2rem; }
.wf-row { position: relative; height: 20px; margin: 2px 0;
          background: #f0efec; border-radius: 3px; }
.wf-bar { position: absolute; top: 2px; bottom: 2px; border-radius: 3px;
          min-width: 3px; }
.wf-label { position: absolute; left: .4rem; top: 0; line-height: 20px;
            font-size: .75rem; white-space: nowrap; color: #0b0b0b;
            text-shadow: 0 0 2px #fcfcfb; }
.wf-events { font-size: .75rem; color: #52514e; margin: 0 0 .5rem 0; }
.note { color: #52514e; font-size: .85rem; }
@media (prefers-color-scheme: dark) {
  body { background: #1a1a19; color: #ffffff; }
  th, .legend, .readout, .note, .wf-events { color: #c3c2b7; }
  td, th { border-bottom-color: #383835; }
  .grid { stroke: #383835; }
  .axis { fill: #c3c2b7; }
  .wf-row { background: #383835; }
  .wf-label { color: #ffffff; text-shadow: 0 0 2px #1a1a19; }
}
"""

_HOVER_JS = """
document.querySelectorAll('.chart').forEach(function (chart) {
  var data = JSON.parse(chart.querySelector('script').textContent);
  var svg = chart.querySelector('svg');
  var readout = chart.querySelector('.readout');
  if (!svg || !readout || !data.series.length) return;
  svg.addEventListener('mousemove', function (ev) {
    var rect = svg.getBoundingClientRect();
    var n = data.series[0].values.length;
    if (n < 1) return;
    var frac = (ev.clientX - rect.left - data.pad) /
               (rect.width - 2 * data.pad);
    var i = Math.round(frac * (n - 1));
    i = Math.max(0, Math.min(n - 1, i));
    readout.textContent = data.x + ' ' + data.xs[i] + ' — ' +
      data.series.map(function (s) {
        return s.label + ': ' + Number(s.values[i]).toPrecision(4);
      }).join(', ');
  });
  svg.addEventListener('mouseleave', function () {
    readout.textContent = '';
  });
});
"""


def _fmt_val(v: float) -> str:
    return f"{v:.3g}"


def _line_chart(title: str, xs: list, series: list[tuple[str, list[float]]],
                width: int = 960, height: int = 180,
                x_label: str = "tick") -> str:
    """One SVG line chart: shared x, one y-axis, legend, hover data."""
    series = [(label, values) for label, values in series if values]
    if not series or not xs:
        return ""
    pad = 52
    all_vals = [v for _, values in series for v in values]
    lo, hi = min(all_vals), max(all_vals)
    if hi == lo:
        hi = lo + 1.0
    n = max(len(values) for _, values in series)

    def x_of(i: int) -> float:
        return pad + (width - 2 * pad) * (i / max(n - 1, 1))

    def y_of(v: float) -> float:
        return (height - 24) - (height - 40) * ((v - lo) / (hi - lo))

    polys = []
    for idx, (label, values) in enumerate(series):
        color = (f"var(--s{idx})" if idx < len(_SERIES_LIGHT)
                 else _OTHER)
        points = " ".join(f"{x_of(i):.1f},{y_of(v):.1f}"
                          for i, v in enumerate(values))
        polys.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="2" points="{points}"/>')
    grid_y = [y_of(lo), y_of((lo + hi) / 2), y_of(hi)]
    grid = "".join(
        f'<line class="grid" x1="{pad}" y1="{y:.1f}" '
        f'x2="{width - pad}" y2="{y:.1f}"/>' for y in grid_y)
    labels = (
        f'<text class="axis" x="{pad - 6}" y="{y_of(lo):.1f}" '
        f'text-anchor="end">{_fmt_val(lo)}</text>'
        f'<text class="axis" x="{pad - 6}" y="{y_of(hi) + 4:.1f}" '
        f'text-anchor="end">{_fmt_val(hi)}</text>'
        f'<text class="axis" x="{pad}" y="{height - 6}">'
        f'{html.escape(str(xs[0]))}</text>'
        f'<text class="axis" x="{width - pad}" y="{height - 6}" '
        f'text-anchor="end">{html.escape(str(xs[-1]))}</text>')
    legend = ""
    if len(series) > 1:
        swatches = "".join(
            f'<span><span class="swatch" style="background:'
            f'{"var(--s%d)" % i if i < len(_SERIES_LIGHT) else _OTHER}'
            f'"></span>{html.escape(label)}</span>'
            for i, (label, _) in enumerate(series))
        legend = f'<div class="legend">{swatches}</div>'
    data = json.dumps({
        "x": x_label, "pad": pad, "xs": list(xs),
        "series": [{"label": label, "values": values}
                   for label, values in series]})
    return (f'<div class="chart"><h3>{html.escape(title)}</h3>{legend}'
            f'<svg viewBox="0 0 {width} {height}" width="100%" '
            f'role="img" aria-label="{html.escape(title)}">'
            f"{grid}{''.join(polys)}{labels}</svg>"
            f'<div class="readout"></div>'
            f'<script type="application/json">{data}</script></div>')


def _series_vars() -> str:
    light = "".join(f"--s{i}: {c}; " for i, c in enumerate(_SERIES_LIGHT))
    dark = "".join(f"--s{i}: {c}; " for i, c in enumerate(_SERIES_DARK))
    return (f":root {{ {light}}}\n"
            f"@media (prefers-color-scheme: dark) {{ :root {{ {dark}}} }}")


def _meta_table(meta: dict) -> str:
    if not meta:
        return ""
    rows = "".join(
        f"<tr><td>{html.escape(str(k))}</td>"
        f"<td>{html.escape(json.dumps(v) if isinstance(v, (dict, list)) else str(v))}</td></tr>"
        for k, v in sorted(meta.items()))
    return f'<table class="meta"><tbody>{rows}</tbody></table>'


def _timeline_section(rows: list[dict]) -> str:
    if not rows:
        return '<p class="note">No timeline in this dump.</p>'
    xs = [r["tick_start"] for r in rows]
    parts = [_line_chart("Hit ratio per window", xs,
                         [("hit_ratio", [r["hit_ratio"] for r in rows])])]
    parts.append(_line_chart(
        "Service time per window (s)", xs,
        [("avg", [r["avg_service_time"] for r in rows]),
         ("p99", [r["service_p99"] for r in rows])]))
    parts.append(_line_chart(
        "Miss penalty mass per window (s)", xs,
        [("penalty_mass", [r["penalty_mass"] for r in rows])]))

    # Per-class slab counts: fixed slots for the 8 largest classes,
    # everything else folded into "Other" (never a 9th hue).
    class_keys: dict[str, int] = {}
    for r in rows:
        for key, count in r["class_slabs"].items():
            class_keys[key] = max(class_keys.get(key, 0), count)
    ranked = sorted(class_keys, key=lambda k: -class_keys[k])
    shown, folded = ranked[:8], ranked[8:]
    slab_series = [(f"class {key}",
                    [r["class_slabs"].get(key, 0) for r in rows])
                   for key in sorted(shown, key=int)]
    if folded:
        slab_series.append(("Other", [
            sum(r["class_slabs"].get(key, 0) for key in folded)
            for r in rows]))
    parts.append(_line_chart("Slab allocation per size class (Fig 3 view)",
                             xs, slab_series, height=220))

    decided = [r for r in rows if r["decision_count"]]
    if decided:
        parts.append(_line_chart(
            "PAMA decision values per window (mean per decision)", xs,
            [("Eq.1 incoming", [
                r["eq1_incoming_sum"] / r["decision_count"]
                if r["decision_count"] else 0.0 for r in rows]),
             ("Eq.2 outgoing", [
                 r["eq2_outgoing_sum"] / r["decision_count"]
                 if r["decision_count"] else 0.0 for r in rows])]))
    parts.append(_line_chart(
        "Migration and eviction flux per window", xs,
        [("migrations", [float(r["migrations"]) for r in rows]),
         ("evictions", [float(r["evictions"]) for r in rows]),
         ("ghost_hits", [float(r["ghost_hits"]) for r in rows])]))
    return "\n".join(p for p in parts if p)


def _tenant_section(rows: list[dict], meta: dict) -> str:
    """Per-tenant timeline charts (multi-tenant runs only).

    Renders one line per tenant for hit ratio, average service time
    and miss-penalty mass per window, plus a totals table.  Rows from
    single-tenant runs carry an empty ``tenants`` cell and the section
    is omitted entirely.
    """
    tenant_ids: set[str] = set()
    for r in rows:
        tenant_ids.update(r.get("tenants", {}))
    if not tenant_ids:
        return ""
    names = meta.get("tenants", [])

    def label(tid: str) -> str:
        idx = int(tid)
        return names[idx] if idx < len(names) else f"tenant {tid}"

    ordered = sorted(tenant_ids, key=int)
    xs = [r["tick_start"] for r in rows]

    def cell(r: dict, tid: str) -> dict:
        return r.get("tenants", {}).get(tid, {})

    parts = ["<h2>Per-tenant timeline</h2>"]
    parts.append(_line_chart(
        "Hit ratio per window by tenant", xs,
        [(label(t), [
            (c.get("hits", 0) / c["gets"]) if c.get("gets") else 0.0
            for r in rows for c in (cell(r, t),)]) for t in ordered]))
    parts.append(_line_chart(
        "Avg service time per window by tenant (s)", xs,
        [(label(t), [
            (c.get("service", 0.0) / c["gets"]) if c.get("gets") else 0.0
            for r in rows for c in (cell(r, t),)]) for t in ordered]))
    parts.append(_line_chart(
        "Miss penalty mass per window by tenant (s)", xs,
        [(label(t), [cell(r, t).get("penalty", 0.0) for r in rows])
         for t in ordered]))

    body = []
    for t in ordered:
        gets = sum(cell(r, t).get("gets", 0) for r in rows)
        hits = sum(cell(r, t).get("hits", 0) for r in rows)
        service = sum(cell(r, t).get("service", 0.0) for r in rows)
        penalty = sum(cell(r, t).get("penalty", 0.0) for r in rows)
        body.append(
            f"<tr><td>{html.escape(label(t))}</td><td>{gets}</td>"
            f"<td>{_fmt_val(hits / gets if gets else 0.0)}</td>"
            f"<td>{_fmt_val(service / gets if gets else 0.0)}</td>"
            f"<td>{_fmt_val(penalty)}</td></tr>")
    parts.append(
        "<table><thead><tr><th>tenant</th><th>gets</th><th>hit ratio</th>"
        "<th>avg service (s)</th><th>penalty mass (s)</th></tr></thead>"
        "<tbody>" + "".join(body) + "</tbody></table>")
    return "\n".join(p for p in parts if p)


def _migration_summary(rows: list[dict]) -> str:
    if not rows:
        return ""
    totals: dict[str, int] = {}
    migrations = sum(r["migrations"] for r in rows)
    evictions = sum(r["evictions"] for r in rows)
    for r in rows:
        for outcome, n in r["decisions"].items():
            totals[outcome] = totals.get(outcome, 0) + n
    body = "".join(f"<tr><td>decision: {html.escape(k)}</td><td>{v}</td></tr>"
                   for k, v in sorted(totals.items()))
    body += (f"<tr><td>slab migrations</td><td>{migrations}</td></tr>"
             f"<tr><td>evictions</td><td>{evictions}</td></tr>")
    return ("<h2>Migration summary</h2><table><tbody>"
            + body + "</tbody></table>")


def _tail_table(snapshot: dict) -> str:
    hists = snapshot.get("histograms", [])
    if not hists:
        return ""
    rows = []
    for h in hists:
        label = h["name"] + ("{" + ",".join(
            f"{k}={v}" for k, v in sorted(h["labels"].items())) + "}"
            if h["labels"] else "")
        q = h.get("quantiles", {})
        rows.append(
            f"<tr><td>{html.escape(label)}</td><td>{h['count']}</td>"
            + "".join(f"<td>{_fmt_val(q.get(p, 0.0))}</td>"
                      for p in ("p50", "p90", "p99", "p999"))
            + f"<td>{_fmt_val(h['max'] if h['max'] is not None else 0.0)}"
            f"</td></tr>")
    return ("<h2>Tail latency</h2><table><thead><tr><th>histogram</th>"
            "<th>count</th><th>p50</th><th>p90</th><th>p99</th>"
            "<th>p999</th><th>max</th></tr></thead><tbody>"
            + "".join(rows) + "</tbody></table>")


def _waterfall_section(traces: list[list[dict]], limit: int = 8) -> str:
    if not traces:
        return '<p class="note">No span traces in this dump.</p>'
    # Most interesting first: deepest trees (failovers/retries) win.
    ranked = sorted(traces, key=len, reverse=True)[:limit]
    out = []
    for spans in ranked:
        root = next(s for s in spans if s["parent_id"] is None)
        t0 = root["start_tick"]
        extent = max(max(s["end_tick"] for s in spans) - t0, 1)
        by_parent: dict = {}
        for s in spans:
            by_parent.setdefault(s["parent_id"], []).append(s)
        bars: list[str] = []

        def emit(span: dict, depth: int) -> None:
            left = (span["start_tick"] - t0) / extent * 100
            width = max((span["end_tick"] - span["start_tick"]) / extent
                        * 100, 0.5)
            color = _STATUS_COLORS.get(span["status"], "var(--s0)")
            attrs = " ".join(f"{k}={v}" for k, v in span["attrs"].items())
            events = " ".join(f"{e['name']}@{e['tick']}"
                              for e in span["events"])
            tip = html.escape(
                f"{span['name']} [{span['start_tick']}..{span['end_tick']}] "
                f"{span['status']} {attrs} {events}".strip())
            bars.append(
                f'<div class="wf-row" style="margin-left:{depth * 18}px" '
                f'title="{tip}"><div class="wf-bar" style="left:{left:.2f}%;'
                f'width:{width:.2f}%;background:{color}"></div>'
                f'<span class="wf-label">{html.escape(span["name"])} '
                f'({html.escape(span["status"])})</span></div>')
            if events:
                bars.append(f'<div class="wf-events" '
                            f'style="margin-left:{depth * 18}px">'
                            f"{html.escape(events)}</div>")
            for child in by_parent.get(span["span_id"], []):
                emit(child, depth + 1)

        emit(root, 0)
        head = " ".join(f"{k}={v}" for k, v in root["attrs"].items())
        out.append(
            f'<div class="waterfall"><strong>trace {root["trace_id"]}</strong>'
            f' <span class="note">root tick {t0}, {len(spans)} spans '
            f"{html.escape(head)}</span>{''.join(bars)}</div>")
    note = (f'<p class="note">Showing {len(ranked)} of {len(traces)} '
            f"retained traces (deepest first).</p>")
    return note + "".join(out)


def render_html(dump: dict, title: str = "repro-kv run report") -> str:
    """Render a loaded dump as one self-contained HTML document."""
    meta = dump.get("meta", {})
    rows = dump.get("timeline", [])
    traces = dump.get("traces", [])
    snapshot = dump.get("snapshot", {})
    body = [
        f"<h1>{html.escape(title)}</h1>",
        _meta_table(meta),
        "<h2>Timeline</h2>",
        _timeline_section(rows),
        _tenant_section(rows, meta),
        _migration_summary(rows),
        _tail_table(snapshot),
        "<h2>Span waterfalls</h2>",
        _waterfall_section(traces),
    ]
    return ("<!doctype html><html><head><meta charset='utf-8'>"
            f"<title>{html.escape(title)}</title>"
            f"<style>{_series_vars()}{_CSS}</style></head><body>"
            + "\n".join(p for p in body if p)
            + f"<script>{_HOVER_JS}</script></body></html>")


def render_report(dump_dir: str, out_path: str,
                  title: str | None = None) -> list[str]:
    """Load, validate and render ``dump_dir``; raises ``ValueError`` on
    schema errors.  Returns the validation error list (always empty on
    success) for symmetry with :func:`validate_dump`."""
    dump = load_dump(dump_dir)
    errors = validate_dump(dump)
    if errors:
        raise ValueError("invalid dump:\n" + "\n".join(
            f"  - {e}" for e in errors))
    doc = render_html(dump, title=title
                      or f"repro-kv report — {os.path.basename(dump_dir)}")
    with open(out_path, "w") as fh:
        fh.write(doc)
    return errors
