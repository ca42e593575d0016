"""The flight recorder: structured events, in-flight time series, and
a stall watchdog.

The rest of :mod:`repro.obs` records what a session *did* — counters,
spans, profiles, run history are all end-of-run totals.  UPPAAL-SMC and
the Modest Toolset additionally expose how an analysis *evolved* (live
probability-estimate and LLR trajectories, in-flight convergence), which
is what makes a diverging campaign diagnosable while it runs.  This
module is that trajectory view:

* **Structured event log** — a bounded ring buffer of leveled,
  key-value events (:meth:`FlightRecorder.log`), each correlated with
  the active trace span and the recording's run id.  The ring keeps the
  *tail*: when a session crashes, the last ``capacity`` events survive,
  and :func:`recording` can dump them as JSONL through an exception /
  ``atexit`` hook.
* **Telemetry time series** — bounded per-name ``(t, value)`` traces
  (:meth:`FlightRecorder.sample`) fed by the engines'
  :func:`repro.obs.checkpoint` calls: waiting/passed/zone-store sizes
  during exploration, Bellman residuals during value iteration, the
  SPRT LLR walk, estimate±CI evolution, and opportunistic RSS readings.
* **Stall watchdog** — a daemon thread (:class:`StallWatchdog`) that
  flags a recording whose beat (any checkpoint, log, sample or merge)
  has been silent past a configurable window: it logs one
  ``obs.stall`` warning event per silence episode carrying the live
  stacks of every thread (the same ``sys._current_frames`` unwinding
  the sampling profiler uses) and counts ``obs.stalls`` on the session
  collector.

Like every other ambient observer, the recorder is **off by default**:
without a :func:`recording` scope the module helpers are single
context-variable lookups.  Engines reach it only through
:func:`repro.obs.checkpoint` (beat plus series points) and
:func:`repro.obs.log`.

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
import json
import sys
import threading
import time
from collections import deque
from contextlib import contextmanager

from .trace import current_span_name, epoch_relative

#: Bump the suffix on breaking changes to the recording layout.
SCHEMA_VERSION = "repro.flight/1"

#: Ring-buffer capacity: how many events the tail keeps.
DEFAULT_CAPACITY = 2048

#: Bounded points kept per time series (the *count* still totals every
#: sample ever taken, so a truncated series is detectable).
DEFAULT_SERIES_CAPACITY = 1024

#: Event severity order; events below the recorder's level are dropped
#: before they cost anything.
LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}


def live_stacks(limit=16):
    """Collapsed live stacks of every thread except the caller's own —
    the watchdog's stall evidence, unwound with the sampling profiler's
    :func:`~repro.obs.profiler.unwind` machinery."""
    from .profiler import unwind

    own = threading.get_ident()
    stacks = []
    for thread_id, frame in sys._current_frames().items():
        if thread_id == own:
            continue
        stacks.append(";".join(unwind(frame)))
        if len(stacks) >= limit:
            break
    return sorted(stacks)


class FlightRecorder:
    """One session's (or one worker task's) flight recording.

    All methods are thread-safe.  ``run_id`` labels the recording in
    exports; ``level`` filters events below it out at the source;
    ``rss_interval`` rate-limits the opportunistic ``obs.rss_kb``
    series :meth:`sample` maintains (``None`` disables it — worker-side
    recorders keep it on, the readings max-merge through ``obs.*``
    physical series).
    """

    def __init__(self, capacity=DEFAULT_CAPACITY,
                 series_capacity=DEFAULT_SERIES_CAPACITY,
                 level="debug", run_id=None, rss_interval=1.0):
        if level not in LEVELS:
            raise ValueError(f"unknown event level {level!r}")
        self.run_id = run_id
        self.capacity = capacity
        self.series_capacity = series_capacity
        self.level = level
        self._level_no = LEVELS[level]
        self.rss_interval = rss_interval
        self.epoch = time.perf_counter()
        self.events_logged = 0
        self.stalls = 0
        self._events = deque(maxlen=capacity)
        self._series = {}
        self._seq = 0
        self._last_rss = -float("inf")
        self._flagged = False
        self.last_beat = self.epoch
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------------

    def _append(self, name, level, fields, worker=None, touch=True):
        now = time.perf_counter()
        event = {"seq": 0,
                 "t": round(epoch_relative(now, self.epoch), 6),
                 "level": level, "name": name,
                 "span": current_span_name(), "worker": worker,
                 "fields": fields}
        with self._lock:
            event["seq"] = self._seq
            self._seq += 1
            self.events_logged += 1
            self._events.append(event)
            if touch:
                self.last_beat = now
                self._flagged = False
        return event

    def log(self, name, level="info", worker=None, **fields):
        """Append one structured event; returns it, or ``None`` when
        filtered by the recorder's level.  ``fields`` must be
        JSON-serialisable."""
        if LEVELS.get(level, LEVELS["info"]) < self._level_no:
            return None
        return self._append(name, level, fields, worker=worker)

    def sample(self, prefix, **values):
        """Record one point per ``{prefix}.{key}`` time series, all at
        the same timestamp; also feeds the watchdog beat and — rate
        limited by ``rss_interval`` — the physical ``obs.rss_kb``
        series."""
        now = time.perf_counter()
        t = round(epoch_relative(now, self.epoch), 6)
        rss = None
        if self.rss_interval is not None and \
                now - self._last_rss >= self.rss_interval:
            from .resources import rss_kb

            self._last_rss = now
            rss = rss_kb()
        with self._lock:
            self.last_beat = now
            self._flagged = False
            for key, value in values.items():
                self._point(f"{prefix}.{key}", t, value)
            if rss is not None:
                self._point("obs.rss_kb", t, rss)

    def _point(self, name, t, value):
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = {
                "count": 0,
                "points": deque(maxlen=self.series_capacity)}
        series["count"] += 1
        series["points"].append((t, value))

    def touch(self):
        """Register activity without logging anything (watchdog beat)."""
        with self._lock:
            self.last_beat = time.perf_counter()
            self._flagged = False

    # -- the stall check (driven by StallWatchdog) -----------------------------

    def check_stall(self, window, collector=None):
        """Log one ``obs.stall`` warning (with live stacks) when the
        beat has been silent longer than ``window`` seconds; at most one
        event per silence episode.  Returns the event or ``None``."""
        now = time.perf_counter()
        with self._lock:
            silent = now - self.last_beat
            if silent < window or self._flagged:
                return None
            self._flagged = True
            self.stalls += 1
        event = self._append(
            "obs.stall", "warning",
            {"silent_seconds": round(silent, 3),
             "window": window, "stacks": live_stacks()},
            touch=False)
        if collector is not None:
            collector.incr("obs.stalls")
        return event

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
            self.stalls += snapshot.get("stalls", 0)
            for name, data in snapshot.get("series", {}).items():
                series = self._series.get(name)
                if series is None:
                    series = self._series[name] = {
                        "count": 0,
                        "points": deque(maxlen=self.series_capacity)}
                series["count"] += data.get("count", 0)
                series["points"].extend(
                    tuple(point) for point in data.get("points", ()))
            self.last_beat = time.perf_counter()
            self._flagged = False
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
                "stalls": self.stalls,
                "events": [dict(event) for event in self._events],
                "series": {
                    name: {"count": series["count"],
                           "points": [list(point)
                                      for point in series["points"]]}
                    for name, series in sorted(self._series.items())},
            }

    def to_jsonl(self):
        """The recording as JSONL text: one header line, one line per
        retained event, one line per series — the crash-dump format."""
        data = self.to_dict()
        events = data.pop("events")
        series = data.pop("series")
        lines = [json.dumps(data, separators=(",", ":"))]
        lines.extend(json.dumps(event, separators=(",", ":"), default=repr)
                     for event in events)
        lines.extend(json.dumps({"series": name, **body},
                                separators=(",", ":"), default=repr)
                     for name, body in series.items())
        return "\n".join(lines) + "\n"

    def dump(self, path, reason=None):
        """Write the JSONL export to ``path`` (best effort — this runs
        from crash hooks); ``reason`` lands in the header line."""
        text = self.to_jsonl()
        if reason is not None:
            header = json.loads(text.split("\n", 1)[0])
            header["reason"] = reason
            text = json.dumps(header, separators=(",", ":")) + "\n" \
                + text.split("\n", 1)[1]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def __repr__(self):
        return (f"FlightRecorder({len(self._events)} events "
                f"({self.dropped} dropped), {len(self._series)} series, "
                f"{self.stalls} stalls)")


class StallWatchdog(threading.Thread):
    """Daemon thread flagging a silent recording.

    Polls the recorder's beat every ``window / 4`` seconds (bounded
    below at 10 ms) and calls :meth:`FlightRecorder.check_stall`, which
    logs at most one warning per silence episode.  ``collector``
    receives the ``obs.stalls`` counter — passed explicitly because
    context variables do not cross threads.
    """

    def __init__(self, recorder, window, collector=None, poll=None):
        super().__init__(name="repro-flight-watchdog", daemon=True)
        self.recorder = recorder
        self.window = window
        self.collector = collector
        self.poll = poll if poll is not None else max(window / 4.0, 0.01)
        self._stop_event = threading.Event()

    def stop(self):
        self._stop_event.set()
        self.join()

    def run(self):
        while not self._stop_event.wait(self.poll):
            self.recorder.check_stall(self.window, self.collector)


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
    tuples with the physical ``obs.*`` / ``runtime.*`` events (stalls,
    RSS, retries) filtered out — this sequence is identical for serial,
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
def recording(recorder=None, capacity=DEFAULT_CAPACITY, level="debug",
              run_id=None, stall_after=None, crash_dump=None):
    """Install ``recorder`` (a fresh one when omitted) as the ambient
    flight recorder for the ``with`` body and yield it.

    ``stall_after`` (seconds) starts a :class:`StallWatchdog` for the
    scope.  ``crash_dump`` (a path) arms the tail-preservation hooks:
    the recording is dumped as JSONL when the body raises, and an
    ``atexit`` hook covers an interpreter exiting from inside the scope
    (both hooks are disarmed on a clean exit, so a successful session
    leaves no dump behind).
    """
    import atexit

    from .metrics import active

    rec = recorder if recorder is not None else FlightRecorder(
        capacity=capacity, level=level, run_id=run_id)
    if run_id is not None and rec.run_id is None:
        rec.run_id = run_id
    token = _ACTIVE.set(rec)
    watchdog = None
    if stall_after is not None:
        watchdog = StallWatchdog(rec, stall_after, collector=active())
        watchdog.start()

    def _atexit_dump():
        try:
            rec.dump(crash_dump, reason="atexit")
        except OSError:
            pass

    if crash_dump is not None:
        atexit.register(_atexit_dump)
    try:
        yield rec
    except BaseException:
        if crash_dump is not None:
            try:
                rec.dump(crash_dump, reason="exception")
            except OSError:
                pass
        raise
    finally:
        if crash_dump is not None:
            atexit.unregister(_atexit_dump)
        if watchdog is not None:
            watchdog.stop()
        _ACTIVE.reset(token)
