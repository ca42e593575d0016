"""The flight recorder: structured events and in-flight time series.

The rest of :mod:`repro.obs` records what a session *did* — counters,
spans, profiles, run history are all end-of-run totals.  UPPAAL-SMC and
the Modest Toolset additionally expose how an analysis *evolved* (live
probability-estimate and LLR trajectories, in-flight convergence), which
is what makes a diverging campaign diagnosable while it runs.  This
module is that trajectory view:

* **Structured event log** — a bounded ring buffer of key-value events
  (:meth:`FlightRecorder.log`), each carrying a level string and
  correlated with the active trace span and the recording's run id.
  The ring keeps the *tail*: the last ``capacity`` events.
* **Telemetry time series** — bounded per-name ``(t, value)`` traces
  (:meth:`FlightRecorder.sample`) fed by the engines'
  :func:`repro.obs.checkpoint` calls: waiting/passed/zone-store sizes
  during exploration, Bellman residuals during value iteration, the
  SPRT LLR walk, estimate±CI evolution, and opportunistic RSS readings.

Like every other ambient observer, the recorder is **off by default**:
without a :func:`recording` scope the module helpers are single
context-variable lookups.  Engines reach it only through
:func:`repro.obs.checkpoint` (series points) and :func:`repro.obs.log`.

Determinism contract (asserted by ``tests/test_flight.py``): event
*timestamps* are physical (per-process monotonic seconds since the
recorder's epoch) and events merged from workers carry their physical
worker id — but event *sequences* and time-series *sample counts* for
everything not named ``obs.*`` / ``runtime.*`` are logical: fixed-budget
serial, parallel, and fault-recovered campaigns produce identical
merged sequences, because workers record under a fresh per-task
recorder whose snapshot ships home with the result and merges **in
task order** (a failed attempt's recording dies with its worker), and
the coordinator samples at seed-deterministic run positions.
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections import deque
from contextlib import contextmanager

from .trace import current_span_name, epoch_relative

#: Bump the suffix on breaking changes to the recording layout.
SCHEMA_VERSION = "repro.flight/2"


class FlightRecorder:
    """One session's (or one worker task's) flight recording.

    All methods are thread-safe.  ``run_id`` labels the recording in
    exports.  The bounds are class attributes: the ring keeps the last
    ``capacity`` events, each series its last ``series_capacity``
    points, and :meth:`sample` reads the physical ``obs.rss_kb`` series
    at most once per ``rss_interval`` seconds (worker-side recorders
    read it too; the readings max-merge through ``obs.*`` series).
    """

    capacity = 2048
    series_capacity = 1024
    rss_interval = 1.0

    def __init__(self, run_id=None):
        self.run_id = run_id
        self.epoch = time.perf_counter()
        self.events_logged = 0
        self._events = deque(maxlen=self.capacity)
        self._series = {}
        self._seq = 0
        self._last_rss = -float("inf")
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------------

    def log(self, name, level="info", **fields):
        """Append one structured event and return it.  ``fields`` must
        be JSON-serialisable."""
        event = {"seq": 0,
                 "t": round(epoch_relative(time.perf_counter(),
                                           self.epoch), 6),
                 "level": level, "name": name,
                 "span": current_span_name(), "worker": None,
                 "fields": fields}
        with self._lock:
            event["seq"] = self._seq
            self._seq += 1
            self.events_logged += 1
            self._events.append(event)
        return event

    def sample(self, prefix, **values):
        """Record one point per ``{prefix}.{key}`` time series, all at
        the same timestamp; also — rate limited by ``rss_interval`` —
        one point of the physical ``obs.rss_kb`` series."""
        now = time.perf_counter()
        t = round(epoch_relative(now, self.epoch), 6)
        rss = None
        if now - self._last_rss >= self.rss_interval:
            from .resources import rss_kb

            self._last_rss = now
            rss = rss_kb()
        with self._lock:
            for key, value in values.items():
                self._point(f"{prefix}.{key}", t, value)
            if rss is not None:
                self._point("obs.rss_kb", t, rss)

    def _point(self, name, t, value):
        series = self._series_named(name)
        series["count"] += 1
        series["points"].append((t, value))

    def _series_named(self, name):
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = {
                "count": 0,
                "points": deque(maxlen=self.series_capacity)}
        return series

    # -- merging (executor hook) -----------------------------------------------

    def merge(self, snapshot, worker=None):
        """Fold a worker recording's :meth:`to_dict` snapshot in, in
        task order: events are re-sequenced after the coordinator's own
        and tagged with the physical ``worker`` id (like the
        ``runtime.worker.*`` counters), series points concatenate and
        their totals add.  Worker timestamps stay physical — relative
        to *that* recorder's epoch."""
        with self._lock:
            for event in snapshot.get("events", ()):
                event = dict(event)
                if worker is not None and event.get("worker") is None:
                    event["worker"] = worker
                event["seq"] = self._seq
                self._seq += 1
                self._events.append(event)
            self.events_logged += snapshot.get("events_logged", 0)
            for name, data in snapshot.get("series", {}).items():
                series = self._series_named(name)
                series["count"] += data.get("count", 0)
                series["points"].extend(
                    tuple(point) for point in data.get("points", ()))
        return self

    # -- exports ---------------------------------------------------------------

    @property
    def dropped(self):
        """Events lost to the ring (logged or merged minus retained)."""
        return self.events_logged - len(self._events)

    def to_dict(self):
        """A plain (picklable, JSON-ready) snapshot of the recording."""
        with self._lock:
            return {
                "schema": SCHEMA_VERSION,
                "run_id": self.run_id,
                "capacity": self.capacity,
                "series_capacity": self.series_capacity,
                "events_logged": self.events_logged,
                "dropped": self.events_logged - len(self._events),
                "events": [dict(event) for event in self._events],
                "series": {
                    name: {"count": series["count"],
                           "points": [list(point)
                                      for point in series["points"]]}
                    for name, series in sorted(self._series.items())},
            }

    def __repr__(self):
        return (f"FlightRecorder({len(self._events)} events "
                f"({self.dropped} dropped), {len(self._series)} series)")


# -- validation ------------------------------------------------------------------

def validate_flight(data):
    """Raise :class:`ValueError` unless ``data`` is a flight recording
    with the current schema; returns ``data`` for chaining (the
    ``--check`` gate calls this on embedded ``flight`` sections)."""
    if not isinstance(data, dict):
        raise ValueError(f"not a flight recording: {type(data).__name__}")
    schema = data.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(f"unsupported flight schema {schema!r} "
                         f"(expected {SCHEMA_VERSION!r})")
    if not isinstance(data.get("events"), list):
        raise ValueError("flight recording has no 'events' list")
    if not isinstance(data.get("series"), dict):
        raise ValueError("flight recording has no 'series' mapping")
    for event in data["events"]:
        if not isinstance(event, dict) or "name" not in event:
            raise ValueError(f"malformed flight event: {event!r}")
    return data


def logical_events(events):
    """The determinism view of an event list: ``(name, level, fields)``
    tuples with the physical ``obs.*`` / ``runtime.*`` events (RSS,
    retries) filtered out — this sequence is identical for serial,
    parallel, and fault-recovered fixed-budget runs."""
    out = []
    for event in events:
        name = event["name"] if isinstance(event, dict) else event.name
        if name.startswith(("obs.", "runtime.")):
            continue
        out.append((name, event["level"], dict(event["fields"])))
    return out


def logical_series(series):
    """``name -> sample count`` over the logical time series (the
    physical ``obs.*`` / ``runtime.*`` traces excluded)."""
    return {name: body["count"] for name, body in series.items()
            if not name.startswith(("obs.", "runtime."))}


# -- the ambient recorder --------------------------------------------------------

_ACTIVE = contextvars.ContextVar("repro_obs_flight", default=None)


def active_recorder():
    """The recorder installed by the innermost :func:`recording` scope,
    or ``None`` — flight recording is off by default."""
    return _ACTIVE.get()


def log(name, level="info", **fields):
    """Log an event on the active recorder (no-op when off)."""
    recorder = _ACTIVE.get()
    if recorder is not None:
        return recorder.log(name, level=level, **fields)
    return None


def sample(prefix, **values):
    """Record time-series points on the active recorder (no-op when
    off)."""
    recorder = _ACTIVE.get()
    if recorder is not None:
        recorder.sample(prefix, **values)


@contextmanager
def recording(recorder=None):
    """Install ``recorder`` (a fresh :class:`FlightRecorder` when
    omitted) as the ambient flight recorder for the ``with`` body and
    yield it."""
    rec = recorder if recorder is not None else FlightRecorder()
    token = _ACTIVE.set(rec)
    try:
        yield rec
    finally:
        _ACTIVE.reset(token)
