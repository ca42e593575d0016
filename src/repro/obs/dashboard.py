"""The session dashboard: one self-contained HTML file per session.

``python -m repro.obs.dashboard`` renders one or more ``repro.obs/1``
report artifacts — metrics, meta, the span timeline, the embedded
``repro.flight/2`` recording's time series and event tail, and the
collapsed-stack sampling profile as a flamegraph — plus optional
run-over-run deltas from a ``repro.runs/1`` run store, into a single
HTML document with **zero external dependencies**: all CSS is inline,
every chart is inline SVG, the only script is a few inline lines for
section folding, and nothing references the network (the file opens
identically from a CI artifact tarball or ``file://``)::

    PYTHONPATH=src python -m repro.obs.dashboard exploration_metrics.json \\
        mdp_metrics.json --runstore bench_runs.jsonl -o dashboard.html

Every time axis — span bars and time-series points alike — is mapped to
pixels through :func:`repro.obs.trace.epoch_relative`, the same helper
that aligned the timestamps at export time, so the dashboard and the
Chrome-trace export cannot drift.  The flamegraph renders the same
collapsed-stack format ``Profile.to_collapsed`` emits (see
``docs/PROFILING.md``).
"""

from __future__ import annotations

import html
import json

from .trace import epoch_relative

#: Colour cycle for series lines / span bars / flame frames (drawn from
#: the usual qualitative palettes; repeated when a chart has more keys).
PALETTE = ("#4878d0", "#ee854a", "#6acc64", "#d65f5f", "#956cb4",
           "#8c613c", "#dc7ec0", "#797979", "#d5bb67", "#82c6e2")

#: Cap on rendered rows per section, so a pathological artifact cannot
#: produce a hundred-megabyte dashboard.
MAX_TIMELINE_ROWS = 200
MAX_EVENT_ROWS = 40
MAX_FLAME_DEPTH = 24

_CSS = """
body { font: 13px/1.45 system-ui, sans-serif; margin: 1.5em auto;
       max-width: 1020px; color: #222; background: #fff; }
h1 { font-size: 1.4em; } h2 { font-size: 1.15em; margin-top: 1.6em;
     border-bottom: 1px solid #ddd; padding-bottom: .2em; }
h3 { font-size: 1em; margin: 1em 0 .3em; }
table { border-collapse: collapse; margin: .4em 0; }
th, td { border: 1px solid #ddd; padding: .15em .55em; text-align: left;
         font-variant-numeric: tabular-nums; }
th { background: #f4f4f4; }
td.num { text-align: right; }
svg { display: block; margin: .4em 0; }
svg text { font: 10px system-ui, sans-serif; }
.note { color: #777; font-size: .9em; }
.lvl-warning { background: #fff3cd; } .lvl-error { background: #f8d7da; }
details > summary { cursor: pointer; font-weight: 600; margin: .8em 0 .2em; }
.legend span { margin-right: 1.1em; }
"""

_JS = """
for (const h of document.querySelectorAll('h2[data-fold]')) {
  h.addEventListener('click', () => {
    let n = h.nextElementSibling;
    while (n && n.tagName !== 'H2') {
      n.hidden = !n.hidden; n = n.nextElementSibling;
    }
  });
}
"""


def _esc(value):
    return html.escape(str(value), quote=True)


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _table(headers, rows, title=None, row_classes=None):
    out = []
    if title:
        out.append(f"<h3>{_esc(title)}</h3>")
    out.append("<table><tr>"
               + "".join(f"<th>{_esc(h)}</th>" for h in headers)
               + "</tr>")
    for index, row in enumerate(rows):
        cls = f' class="{row_classes[index]}"' \
            if row_classes and row_classes[index] else ""
        cells = "".join(
            f'<td class="num">{_esc(_fmt(cell))}</td>'
            if isinstance(cell, (int, float)) and not isinstance(cell, bool)
            else f"<td>{_esc(_fmt(cell))}</td>"
            for cell in row)
        out.append(f"<tr{cls}>{cells}</tr>")
    out.append("</table>")
    return "".join(out)


# -- metrics & meta ---------------------------------------------------------------

def _metric_sections(metrics):
    groups = {}
    for kind in ("counters", "gauges", "max_gauges"):
        for name, value in sorted(metrics.get(kind, {}).items()):
            groups.setdefault(name.split(".", 1)[0], []).append(
                (name, value))
    out = []
    for group in sorted(groups):
        out.append(_table(("metric", "value"), groups[group],
                          title=f"[{group}] metrics"))
    histograms = metrics.get("histograms", {})
    if histograms:
        rows = []
        for name in sorted(histograms):
            h = histograms[name]
            mean = h["total"] / h["count"] if h["count"] else 0.0
            rows.append((name, h["count"], round(mean, 6),
                         h["min"], h["max"]))
        out.append(_table(("histogram", "count", "mean", "min", "max"),
                          rows, title="distributions"))
    return "".join(out)


# -- span timeline ----------------------------------------------------------------

def _flatten_timeline(trace, depth=0, into=None):
    if into is None:
        into = []
    for node in trace or []:
        into.append((node.get("name", "?"), float(node.get("start", 0.0)),
                     float(node.get("duration", 0.0)), depth))
        _flatten_timeline(node.get("children"), depth + 1, into)
    return into


def _timeline_svg(trace, width=960):
    rows = _flatten_timeline(trace)
    if not rows:
        return ""
    truncated = len(rows) - MAX_TIMELINE_ROWS
    rows = rows[:MAX_TIMELINE_ROWS]
    t0 = min(start for _n, start, _d, _l in rows)
    t1 = max(start + dur for _n, start, dur, _l in rows)
    scale = (width - 220) / max(t1 - t0, 1e-9)
    row_h, pad = 16, 2
    height = len(rows) * (row_h + pad) + 18
    parts = [f'<svg width="{width}" height="{height}" role="img">']
    for index, (name, start, dur, level) in enumerate(rows):
        x = 210 + epoch_relative(start, t0, scale)
        w = max(dur * scale, 1.0)
        y = index * (row_h + pad)
        colour = PALETTE[level % len(PALETTE)]
        label = _esc(name)
        parts.append(
            f'<text x="200" y="{y + 12}" text-anchor="end">'
            f'{"&#160;" * (2 * level)}{label}</text>'
            f'<rect x="{x:.1f}" y="{y}" width="{w:.1f}" '
            f'height="{row_h}" fill="{colour}" rx="2">'
            f'<title>{label}: {dur * 1e3:.3f} ms '
            f'(start +{start - t0:.4f}s)</title></rect>')
    axis_y = len(rows) * (row_h + pad) + 12
    parts.append(
        f'<text x="210" y="{axis_y}">+0s</text>'
        f'<text x="{width - 10}" y="{axis_y}" text-anchor="end">'
        f'+{t1 - t0:.3f}s</text></svg>')
    note = (f'<p class="note">({truncated} further spans not drawn)</p>'
            if truncated > 0 else "")
    return "".join(parts) + note


# -- time-series charts -----------------------------------------------------------

def _series_points(body):
    points = []
    for point in body.get("points", ()):
        try:
            t, v = float(point[0]), float(point[1])
        except (TypeError, ValueError, IndexError):
            continue
        points.append((t, v))
    return points


def _chart_svg(title, series_map, width=640, height=170):
    """One chart: every ``key -> [(t, v), ...]`` overlaid as a
    polyline (single points become circles)."""
    drawn = {key: pts for key, pts in series_map.items() if pts}
    if not drawn:
        return ""
    t_lo = min(p[0] for pts in drawn.values() for p in pts)
    t_hi = max(p[0] for pts in drawn.values() for p in pts)
    v_lo = min(p[1] for pts in drawn.values() for p in pts)
    v_hi = max(p[1] for pts in drawn.values() for p in pts)
    left, right, top, bottom = 60, 10, 18, 22
    plot_w = width - left - right
    plot_h = height - top - bottom
    t_scale = plot_w / max(t_hi - t_lo, 1e-9)
    v_span = max(v_hi - v_lo, 1e-9)

    def xy(t, v):
        x = left + epoch_relative(t, t_lo, t_scale)
        y = top + (v_hi - v) / v_span * plot_h
        return f"{x:.1f},{y:.1f}"

    parts = [f'<svg width="{width}" height="{height}" role="img">',
             f'<text x="{left}" y="12" font-weight="600">'
             f'{_esc(title)}</text>',
             f'<rect x="{left}" y="{top}" width="{plot_w}" '
             f'height="{plot_h}" fill="#fafafa" stroke="#ddd"/>']
    legend = []
    for index, key in enumerate(sorted(drawn)):
        pts = drawn[key]
        colour = PALETTE[index % len(PALETTE)]
        if len(pts) == 1:
            cx, cy = xy(*pts[0]).split(",")
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="3" '
                         f'fill="{colour}"/>')
        else:
            coords = " ".join(xy(t, v) for t, v in pts)
            parts.append(f'<polyline points="{coords}" fill="none" '
                         f'stroke="{colour}" stroke-width="1.5">'
                         f'<title>{_esc(key)} ({len(pts)} points)'
                         f'</title></polyline>')
        legend.append(f'<span style="color:{colour}">&#9632; '
                      f'{_esc(key)}</span>')
    parts.append(
        f'<text x="{left - 4}" y="{top + 10}" text-anchor="end">'
        f'{v_hi:.6g}</text>'
        f'<text x="{left - 4}" y="{top + plot_h}" text-anchor="end">'
        f'{v_lo:.6g}</text>'
        f'<text x="{left}" y="{height - 6}">+{t_lo:.2f}s</text>'
        f'<text x="{width - right}" y="{height - 6}" text-anchor="end">'
        f'+{t_hi:.2f}s</text></svg>')
    return "".join(parts) + f'<p class="legend">{" ".join(legend)}</p>'


def _series_charts(series):
    """Group flight series by their prefix (the name up to the last
    dot) and render one overlay chart per group."""
    groups = {}
    for name, body in sorted(series.items()):
        prefix, _, key = name.rpartition(".")
        groups.setdefault(prefix or name, {})[key or name] = \
            _series_points(body)
    out = []
    for prefix in sorted(groups):
        chart = _chart_svg(prefix, groups[prefix])
        if chart:
            counts = {key: len(pts)
                      for key, pts in groups[prefix].items()}
            out.append(chart)
            out.append(f'<p class="note">samples: '
                       f'{_esc(json.dumps(counts, sort_keys=True))}</p>')
    return "".join(out)


# -- event tail -------------------------------------------------------------------

def _event_tail(flight):
    events = flight.get("events", [])
    tail = events[-MAX_EVENT_ROWS:]
    rows, classes = [], []
    for event in tail:
        fields = json.dumps(event.get("fields", {}), sort_keys=True,
                            default=repr)
        if len(fields) > 160:
            fields = fields[:157] + "..."
        worker = event.get("worker")
        rows.append((event.get("seq", ""), f"+{event.get('t', 0):.3f}s",
                     event.get("level", ""), event.get("name", ""),
                     event.get("span") or "-",
                     "-" if worker is None else f"w{worker}", fields))
        level = event.get("level")
        classes.append(f"lvl-{level}" if level in ("warning", "error")
                       else "")
    dropped = flight.get("dropped", 0)
    head = (f'<p class="note">{flight.get("events_logged", len(events))} '
            f'events logged, {dropped} dropped by the ring; showing the '
            f'last {len(tail)}.</p>')
    if not tail:
        return head
    return head + _table(
        ("seq", "t", "level", "event", "span", "worker", "fields"),
        rows, row_classes=classes)


# -- flamegraph -------------------------------------------------------------------

def _flame_tree(stacks):
    root = {"value": 0, "children": {}}
    for stack, count in stacks.items():
        node = root
        node["value"] += count
        for frame in stack.split(";")[:MAX_FLAME_DEPTH]:
            child = node["children"].setdefault(
                frame, {"value": 0, "children": {}})
            child["value"] += count
            node = child
    return root


def _flamegraph_svg(profile, width=960):
    stacks = profile.get("stacks", {})
    if not stacks:
        return ""
    root = _flame_tree(stacks)
    total = root["value"] or 1
    row_h = 17
    depth_cap = [0]
    parts = []

    def layout(node, x, w, depth):
        depth_cap[0] = max(depth_cap[0], depth)
        offset = x
        for frame in sorted(node["children"]):
            child = node["children"][frame]
            child_w = w * child["value"] / node["value"]
            if child_w >= 0.5:
                colour = PALETTE[(depth * 3 + len(frame))
                                 % len(PALETTE)]
                label = _esc(frame)
                pct = child["value"] / total
                parts.append(
                    f'<rect x="{offset:.1f}" y="{depth * row_h}" '
                    f'width="{max(child_w - 0.5, 0.5):.1f}" '
                    f'height="{row_h - 1}" fill="{colour}" rx="1">'
                    f'<title>{label}: {child["value"]} samples '
                    f'({pct:.1%})</title></rect>')
                if child_w > 70:
                    text = label if len(frame) * 6 < child_w \
                        else _esc(frame[:max(int(child_w // 6) - 2, 1)]
                                  + "…")
                    parts.append(
                        f'<text x="{offset + 3:.1f}" '
                        f'y="{depth * row_h + 12}" fill="#fff">'
                        f'{text}</text>')
                layout(child, offset, child_w, depth + 1)
            offset += child_w

    layout(root, 0, width, 0)
    height = (depth_cap[0] + 1) * row_h
    samples = profile.get("samples", root["value"])
    head = (f'<p class="note">{samples} samples @ '
            f'{profile.get("hz", "?")} Hz over '
            f'{profile.get("wall_seconds", 0):.3g}s wall; widths are '
            f'inclusive sample shares.</p>')
    return head + (f'<svg width="{width}" height="{height}" role="img">'
                   + "".join(parts) + "</svg>")


# -- run-over-run deltas ----------------------------------------------------------

def _delta_section(store_path):
    from .diff import diff_reports
    from .runstore import RunStore

    store = RunStore(store_path)
    records, skipped = store.scan()
    labels = sorted({record["label"] for record in records})
    out = [f'<p class="note">{len(records)} recorded run(s) across '
           f'{len(labels)} label(s) in {_esc(store_path)}'
           + (f'; {skipped} skipped line(s)' if skipped else "")
           + '.</p>']
    for label in labels:
        pair = store.last(label=label, n=2)
        if len(pair) < 2:
            continue
        older, newer = pair
        diff = diff_reports(older["report"], newer["report"])
        rows = []
        for section in ("counters", "gauges", "max_gauges"):
            rows.extend(
                (name, va if va is not None else "-",
                 vb if vb is not None else "-",
                 delta if delta is not None else "-",
                 f"{drift:+.1%}" if drift is not None else "-")
                for name, va, vb, delta, drift in diff[section]
                if delta)
        if rows:
            out.append(_table(
                ("metric", older["run_id"], newer["run_id"], "delta",
                 "drift"),
                rows, title=f"{label}: {older['run_id']} → "
                            f"{newer['run_id']}"))
        else:
            out.append(f'<p class="note">{_esc(label)}: no metric '
                       f'changes between the last two runs.</p>')
    return "".join(out)


# -- document assembly ------------------------------------------------------------

def _report_section(label, report):
    out = [f'<h2 data-fold="1">{_esc(label)}</h2>']
    meta = report.get("meta", {})
    if meta:
        out.append(_table(("meta", "value"),
                          sorted(meta.items()), title="session"))
    out.append(_metric_sections(report.get("metrics", {})))
    trace = report.get("trace")
    if trace:
        out.append("<h3>span timeline</h3>")
        out.append(_timeline_svg(trace))
    flight = report.get("flight")
    if flight:
        series = flight.get("series", {})
        if series:
            out.append("<h3>in-flight telemetry</h3>")
            out.append(_series_charts(series))
        out.append("<h3>event log tail</h3>")
        out.append(_event_tail(flight))
    profile = report.get("profile")
    if profile:
        out.append("<h3>flamegraph</h3>")
        out.append(_flamegraph_svg(profile))
    return "".join(out)


def render(reports, runstore=None, title="repro session dashboard"):
    """Assemble the full HTML document from ``[(label, report dict),
    ...]`` (+ an optional run-store path) and return it as a string."""
    body = [f"<h1>{_esc(title)}</h1>",
            '<p class="note">Self-contained artifact: inline SVG/CSS, '
            'no network access. Click a section heading to fold it.</p>']
    for label, report in reports:
        body.append(_report_section(label, report))
    if runstore is not None:
        body.append('<h2 data-fold="1">run-over-run deltas</h2>')
        body.append(_delta_section(runstore))
    return ("<!DOCTYPE html><html><head><meta charset='utf-8'>"
            f"<title>{_esc(title)}</title><style>{_CSS}</style></head>"
            "<body>" + "".join(body)
            + f"<script>{_JS}</script></body></html>")


def main(argv=None):
    import argparse
    import os
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.dashboard",
        description="render repro.obs/1 report artifacts (+ optional "
                    "run-store history) into one self-contained HTML "
                    "dashboard")
    parser.add_argument("reports", nargs="+", metavar="REPORT.json",
                        help="repro.obs/1 report files")
    parser.add_argument("-o", "--out", default="dashboard.html",
                        help="output HTML path (default dashboard.html)")
    parser.add_argument("--runstore", default=None, metavar="PATH",
                        help="repro.runs/1 JSONL store for run-over-run "
                             "deltas")
    parser.add_argument("--title", default="repro session dashboard")
    args = parser.parse_args(
        list(sys.argv[1:]) if argv is None else list(argv))

    from .report import validate

    loaded = []
    for path in args.reports:
        try:
            with open(path, encoding="utf-8") as handle:
                data = validate(json.load(handle))
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: {path}: {exc}")
            return 2
        loaded.append((os.path.basename(path), data))
    text = render(loaded, runstore=args.runstore, title=args.title)
    tmp = f"{args.out}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, args.out)
    print(f"wrote {args.out} ({len(text) / 1024:.0f} KiB, "
          f"{len(loaded)} report(s))")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
