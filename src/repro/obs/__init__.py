"""Unified observability: metrics, tracing, flight recording, profiles.

One layer across every analysis engine (``mc``, ``smc``, ``pta``,
``bip``, ``tiga``, ``cora``, ``modest``, ``runtime``).  This package
exports the engine surface and the session scopes behind it, and
nothing else, so importing an engine loads no run-store or report
tooling:

* the engine surface (:mod:`repro.obs.surface` plus the module-level
  helpers of the observers): :func:`checkpoint` at coarse checkpoints,
  :func:`span` / :func:`incr` / :func:`observe` / :func:`set_gauge` /
  :func:`set_max` / :func:`log` at phase boundaries, :func:`active`,
  and :func:`capture_spec` / :func:`capturing` / :func:`merge` to ship
  worker observations home;
* the session scopes: :func:`collecting` (a :class:`Collector` of
  counters, gauges, histograms and timers, :mod:`repro.obs.metrics`),
  :func:`tracing` (a :class:`Tracer` of hierarchical spans, exportable
  as JSON and Chrome trace-event format, :mod:`repro.obs.trace`),
  :func:`recording` (a :class:`FlightRecorder`: bounded event log and
  time series sampled at the engines' checkpoints,
  :mod:`repro.obs.flight`) and
  :func:`profiling` (a :class:`Profiler` of mergeable collapsed-stack
  samples, :mod:`repro.obs.profiler`).

Tool modules are imported by name where they are used:

* :mod:`repro.obs.resources` — peak-RSS / heap / GC readings recorded
  as max-merge gauges;
* :mod:`repro.obs.report` — summary tables plus the schema-versioned
  JSON CI artifact (``python -m repro.obs.report --check`` gates it);
* :mod:`repro.obs.runstore` — the persistent, append-only
  ``repro.runs/1`` JSONL run history (fingerprint-keyed, git SHA +
  timestamp per record);
* :mod:`repro.obs.diff` — run-to-run comparison with hot-function
  regression attribution (``python -m repro.obs.report diff A B``);
* :mod:`repro.obs.dashboard` — ``python -m repro.obs.dashboard``: a
  report + flight recording (+ optional run history) rendered into one
  self-contained HTML file.

Everything is **off by default** and costs one context-variable lookup
per engine-boundary event when off; see ``docs/OBSERVABILITY.md`` and
``docs/PROFILING.md``.
"""

from .flight import FlightRecorder, log, recording
from .metrics import (
    Collector,
    active,
    collecting,
    incr,
    observe,
    set_gauge,
    set_max,
)
from .profiler import Profiler, profiling
from .surface import capture_spec, capturing, checkpoint, merge
from .trace import Tracer, span, tracing

__all__ = [
    "checkpoint", "span", "incr", "observe", "set_gauge", "set_max",
    "log", "active", "capture_spec", "capturing", "merge",
    "Collector", "collecting", "Tracer", "tracing",
    "FlightRecorder", "recording", "Profiler", "profiling",
]
