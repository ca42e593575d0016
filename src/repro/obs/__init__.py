"""Unified observability: metrics, tracing, progress, reports.

One layer across every analysis engine (``mc``, ``smc``, ``pta``,
``bip``, ``tiga``, ``cora``, ``modest``, ``runtime``).  Engines and the
parallel runtime reach it through one surface: :func:`checkpoint` at
coarse progress points, :func:`span` / :func:`incr` / :func:`log` at
phase boundaries, and :func:`capture_spec` / :func:`capturing` /
:func:`merge` to ship worker observations home
(:mod:`repro.obs.surface`).  Behind it:

* :mod:`repro.obs.metrics` — counters / gauges / histograms / timers in
  a context-installed :class:`Collector`;
* :mod:`repro.obs.trace` — hierarchical spans, exportable as JSON and
  Chrome trace-event format;
* :mod:`repro.obs.progress` — opt-in heartbeats (runs completed, states
  explored, ETA) for long analyses;
* :mod:`repro.obs.profiler` — a zero-dependency statistical sampling
  profiler producing mergeable collapsed-stack profiles (flamegraph /
  top-N-hotspot export), shipped home per worker by the parallel
  runtime exactly like collector snapshots;
* :mod:`repro.obs.resources` — peak-RSS / heap / GC readings recorded
  as max-merge gauges;
* :mod:`repro.obs.flight` — the flight recorder: a bounded structured
  event log, in-flight telemetry time series sampled at the engines'
  heartbeat checkpoints, and a stall watchdog (``repro.flight/1``,
  crash-preserved JSONL tail), shipped home per worker like collector
  snapshots;
* :mod:`repro.obs.dashboard` — ``python -m repro.obs.dashboard``: a
  report + flight recording (+ optional run history) rendered into one
  self-contained HTML file (tables, span timeline, time-series charts,
  flamegraph, event tail);
* :mod:`repro.obs.runstore` — the persistent, append-only
  ``repro.runs/1`` JSONL run history (fingerprint-keyed, git SHA +
  timestamp per record);
* :mod:`repro.obs.diff` — run-to-run comparison with hot-function
  regression attribution (``python -m repro.obs.report diff A B``);
* :mod:`repro.obs.report` — summary tables plus the schema-versioned
  JSON CI artifact (imported on demand: it pulls engine modules for its
  demo session).

Everything is **off by default** and costs one context-variable lookup
per engine-boundary event when off; see ``docs/OBSERVABILITY.md`` and
``docs/PROFILING.md``.
"""

from .flight import (
    FlightRecorder,
    StallWatchdog,
    active_recorder,
    log,
    recording,
)
from .metrics import (
    Collector,
    Counter,
    Gauge,
    Histogram,
    MaxGauge,
    active,
    collecting,
    incr,
    observe,
    set_gauge,
    set_max,
    timed,
)
from .profiler import (
    Profile,
    Profiler,
    active_profiler,
    profile_record,
    profiling,
)
from .progress import ProgressEvent, heartbeat, progress
from .runstore import RunStore
from .surface import capture_spec, capturing, checkpoint, merge
from .trace import NULL_SPAN, Span, Tracer, active_tracer, span, tracing

__all__ = [
    "FlightRecorder", "StallWatchdog", "active_recorder", "log",
    "recording",
    "Collector", "Counter", "Gauge", "Histogram", "MaxGauge",
    "active", "collecting", "incr", "observe", "set_gauge", "set_max",
    "timed",
    "Profile", "Profiler", "active_profiler", "profile_record",
    "profiling",
    "ProgressEvent", "heartbeat", "progress",
    "RunStore",
    "capture_spec", "capturing", "checkpoint", "merge",
    "NULL_SPAN", "Span", "Tracer", "active_tracer", "span", "tracing",
]
