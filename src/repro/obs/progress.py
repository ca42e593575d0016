"""Opt-in progress heartbeats for long-running analyses.

Zone-graph explorations and SMC campaigns can run for minutes; with a
progress scope installed, the engines emit periodic heartbeats — runs
completed, states explored, estimated time to completion — without any
cost when nobody is listening:

    def show(event):
        print(f"{event.kind}: {event.done}/{event.total} "
              f"({event.rate:.0f}/s, eta {event.eta:.0f}s)")

    with progress(show, min_interval=1.0):
        probability_estimate(network, predicate, horizon=100, runs=10**6)

Engines reach :func:`heartbeat` through :func:`repro.obs.checkpoint` at
coarse checkpoints (every N states or once per batch); the scope
rate-limits delivery to ``min_interval`` seconds so callbacks stay cheap
even when checkpoints are frequent.  Without a scope, :func:`heartbeat`
is a single context-variable lookup.

``rate`` (and therefore ``eta``) is an exponentially weighted moving
average of the *recent* throughput, not the whole-run mean: zone graphs
get denser late in an exploration, so the cumulative ``done / elapsed``
average — kept as ``avg_rate`` — systematically overestimates the
finishing speed and makes the ETA collapse only at the very end.
"""

from __future__ import annotations

import contextvars
import time
from contextlib import contextmanager

#: Smoothing factor of the per-kind EWMA rate: each delivered heartbeat
#: contributes 30% of the new instantaneous rate, so the estimate
#: follows a slowdown within a few events without jittering per event.
EWMA_ALPHA = 0.3


class ProgressEvent:
    """One heartbeat: how far along, how fast, how much longer.

    ``rate`` is the EWMA instantaneous throughput (units of ``done``
    per second) and drives ``eta``; ``avg_rate`` is the cumulative
    whole-run average (``done / elapsed``).  The two diverge exactly
    when the workload speeds up or slows down.
    """

    __slots__ = ("kind", "done", "total", "elapsed", "rate", "avg_rate",
                 "eta", "info")

    def __init__(self, kind, done, total, elapsed, info, rate=None):
        self.kind = kind
        self.done = done
        self.total = total            # None when open-ended (SPRT, BFS)
        self.elapsed = elapsed
        self.avg_rate = done / elapsed if elapsed > 0 else 0.0
        self.rate = rate if rate is not None else self.avg_rate
        if total is not None and self.rate > 0:
            self.eta = max(total - done, 0) / self.rate
        else:
            self.eta = None
        self.info = info

    def __repr__(self):
        total = f"/{self.total}" if self.total is not None else ""
        eta = f", eta {self.eta:.1f}s" if self.eta is not None else ""
        return (f"ProgressEvent({self.kind}: {self.done}{total}, "
                f"{self.rate:.1f}/s{eta})")


class _Sink:
    __slots__ = ("callback", "min_interval", "clock", "started",
                 "last_emit", "_kinds")

    def __init__(self, callback, min_interval, clock=time.perf_counter):
        self.callback = callback
        self.min_interval = min_interval
        self.clock = clock
        self.started = clock()
        self.last_emit = -float("inf")
        # kind -> (done, time, ewma rate) of the last delivered event.
        self._kinds = {}

    def ewma_rate(self, kind, done, now, elapsed):
        """Fold one delivered heartbeat into the per-kind EWMA rate."""
        previous = self._kinds.get(kind)
        if previous is None or done < previous[0]:
            # First heartbeat of this kind (or a restarted count, e.g.
            # a second analysis reusing the scope): seed from the
            # cumulative average — there is no interval to measure yet.
            rate = done / elapsed if elapsed > 0 else 0.0
        else:
            last_done, last_time, last_rate = previous
            interval = now - last_time
            if interval <= 0:
                rate = last_rate
            else:
                instant = (done - last_done) / interval
                rate = last_rate + EWMA_ALPHA * (instant - last_rate)
        self._kinds[kind] = (done, now, rate)
        return rate


_ACTIVE = contextvars.ContextVar("repro_obs_progress", default=None)


@contextmanager
def progress(callback, min_interval=0.5, clock=time.perf_counter):
    """Install ``callback(event)`` as the progress sink for the ``with``
    body; heartbeats closer together than ``min_interval`` seconds are
    dropped (except forced ones).  ``clock`` is injectable so rate/ETA
    behaviour is testable without sleeping."""
    sink = _Sink(callback, min_interval, clock)
    token = _ACTIVE.set(sink)
    try:
        yield sink
    finally:
        _ACTIVE.reset(token)


def heartbeat(kind, done, total=None, force=False, **info):
    """Report progress of ``kind`` (e.g. ``"smc.estimate"``).

    Returns the delivered :class:`ProgressEvent`, or ``None`` when no
    sink is installed or the heartbeat was rate-limited away.  ``force``
    bypasses rate limiting (use for final / terminal heartbeats).
    """
    sink = _ACTIVE.get()
    if sink is None:
        return None
    now = sink.clock()
    if not force and now - sink.last_emit < sink.min_interval:
        return None
    sink.last_emit = now
    elapsed = now - sink.started
    rate = sink.ewma_rate(kind, done, now, elapsed)
    event = ProgressEvent(kind, done, total, elapsed, info, rate=rate)
    sink.callback(event)
    return event
