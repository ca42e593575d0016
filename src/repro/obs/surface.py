"""The one instrumentation surface engines and the runtime call.

Which ambient observers are active — collector, profiler, flight
recorder — and how each is fed, snapshotted and merged is decided
here, so engine and executor code never asks:

* :func:`checkpoint` — one call per coarse engine checkpoint: it
  records the checkpoint's time-series points on the flight recorder;
* :func:`capture_spec` / :func:`capturing` / :func:`merge` — shipping
  observations home from worker processes: the coordinator reads a
  picklable spec of its active scopes, each worker task runs under
  :func:`capturing` and returns one snapshot dict with its result, and
  the coordinator folds the snapshots back **in task order**.

Counters, spans and boundary events keep their own module-level
helpers (``incr``, ``span``, ``log``), all re-exported by
:mod:`repro.obs`.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager

from .flight import FlightRecorder, active_recorder, recording
from .metrics import Collector, active, collecting
from .profiler import active_profiler, profiling


def checkpoint(kind, series):
    """Record the time-series points of a coarse checkpoint of ``kind``
    (e.g. ``"mc.explore"``).

    ``series`` is called only while a flight recorder is on and returns
    a list of dicts, each recorded as one sample of every
    ``{kind}.{key}`` series (a batched walk that passed several
    sampling positions since its last checkpoint returns them all).
    With no recorder installed the call costs one context-variable
    lookup.
    """
    recorder = active_recorder()
    if recorder is not None:
        for point in series():
            recorder.sample(kind, **point)


def capture_spec():
    """What a worker task must capture for the active scopes: a
    picklable ``(metrics, profile_hz, flight)`` tuple, or ``None`` when
    no collector, profiler or flight recorder is installed."""
    collector = active()
    prof = active_profiler()
    recorder = active_recorder()
    if collector is None and prof is None and recorder is None:
        return None
    return (collector is not None,
            prof.hz if prof is not None else None,
            recorder is not None)


@contextmanager
def capturing(spec):
    """Run the body under fresh observers per ``spec`` (a
    :func:`capture_spec` tuple) and yield the snapshot dict, filled on
    a clean exit with the captured parts: ``metrics`` (the collector
    snapshot, resource high-water marks included as max gauges),
    ``profile`` and ``flight``.

    A failed attempt's snapshot dies with it, which is what keeps
    merged logical totals identical under fault recovery.
    """
    collect, profile_hz, record = spec
    snapshot = {}
    with ExitStack() as stack:
        collector = stack.enter_context(
            collecting(Collector("worker"))) if collect else None
        prof = stack.enter_context(profiling(hz=profile_hz)) \
            if profile_hz is not None else None
        recorder = stack.enter_context(
            recording(FlightRecorder())) if record else None
        yield snapshot
    if collector is not None:
        from .resources import sample  # worker-side only: keep it lazy

        sample(collector)
        snapshot["metrics"] = collector.snapshot()
    if prof is not None:
        snapshot["profile"] = prof.profile.to_dict()
    if recorder is not None:
        snapshot["flight"] = recorder.to_dict()


def merge(snapshot, worker=None):
    """Fold one :func:`capturing` snapshot into the active observers.

    Call in task order: counters then add up, profiles and event
    sequences concatenate, exactly as a serial run records them.
    ``worker`` is the physical worker id merged flight events carry.
    """
    collector = active()
    if collector is not None and "metrics" in snapshot:
        collector.merge(snapshot["metrics"])
    prof = active_profiler()
    if prof is not None and "profile" in snapshot:
        prof.profile.merge(snapshot["profile"])
    recorder = active_recorder()
    if recorder is not None and "flight" in snapshot:
        recorder.merge(snapshot["flight"], worker=worker)
