"""Fault tolerance for the parallel runtime.

Long statistical campaigns must survive partial failure to be usable
at scale (the modes/Modest overview stresses exactly this): a crashed
worker, a flaky task, or a hung process must not kill a million-run
estimation.  This module provides the three pieces the executors use:

* :class:`FaultPolicy` — an executor's recovery rule: a task that
  raises, kills its worker or hangs past the optional ``timeout`` is
  replayed from its seeds at once, up to ``max_retries`` times; after
  that the campaign raises :class:`~repro.core.errors.TaskError`.
* :class:`FaultInjector` — a deterministic test/bench hook that makes a
  chosen task kill its worker, raise, or hang on its **first attempt
  only**, so recovery paths are exercised reproducibly.
* :func:`task_seed` — the spawn-keyed seed identifying a task, carried
  by :class:`~repro.core.errors.TaskError` as its replay context.

The replay guarantee: a recovered run is **bit-identical** to a
fault-free run.  Every task the SMC layer submits is a pure function of
its spawn-keyed per-run seeds, so the executor recovers from any fault
by resubmitting the *exact same task tuple* — same seeds, same model
spec — and aggregating its result at the same position in task order.
Retries and pool rebuilds therefore change wall-clock time and the
physical ``runtime.*`` counters, never an estimate, a verdict, or a
logical metric total (asserted by ``tests/test_faults.py``).  A
campaign either yields every task's result or raises: no run is ever
dropped from an estimate.
"""

from __future__ import annotations

import math
import numbers
import os
import time

from ..core.errors import AnalysisError

#: How long a ``hang`` injection sleeps — far past any test timeout.
HANG_SECONDS = 30.0

#: The exit status of a worker a ``kill`` injection ends.
EXIT_CODE = 86


class InjectedFault(RuntimeError):
    """Raised inside a task by :class:`FaultInjector` (``raises``/serial
    ``kill`` injections) — an ordinary task failure to the executor."""


class FaultPolicy:
    """How an executor treats a faulting task.

    ``timeout``
        Per-task wall-clock budget in seconds (``None`` = unbounded),
        honoured by :class:`~repro.runtime.ParallelExecutor` only.  A
        task that exceeds it is presumed hung; the pool is torn down
        (terminating the stuck worker), rebuilt, and the in-flight
        tasks are replayed by their seeds.
    ``max_retries``
        How many times a single task may fault and be replayed before
        the campaign raises :class:`~repro.core.errors.TaskError` (with
        the task index and seed, so the run is reproducible from the
        message).
    ``injector``
        An optional :class:`FaultInjector` shipped to the workers (the
        test/bench hook).  ``None`` in production.
    """

    __slots__ = ("timeout", "max_retries", "injector")

    def __init__(self, timeout=None, max_retries=2, injector=None):
        # ``0 < t < inf`` also rejects NaN, which would declare every
        # task hung, and ``inf``, which overflows ``future.result``.
        if timeout is not None and not (isinstance(timeout, numbers.Real)
                                        and 0 < timeout < math.inf):
            raise AnalysisError(
                f"timeout must be None or a finite number > 0, "
                f"got {timeout!r}")
        if not (isinstance(max_retries, numbers.Integral)
                and max_retries >= 0):
            raise AnalysisError(
                f"max_retries must be an int >= 0, got {max_retries!r}")
        self.timeout = timeout
        self.max_retries = max_retries
        self.injector = injector

    def __repr__(self):
        return (f"FaultPolicy(timeout={self.timeout}, "
                f"max_retries={self.max_retries})")


class FaultInjector:
    """Deterministic fault injection at chosen task indices.

    Picklable and shipped worker-side via :class:`FaultPolicy`; fires
    at the *start* of a task (before any simulation work, so no partial
    metrics can leak) and **only on the task's first attempt** — the
    replayed attempt runs clean, which is what lets the recovery tests
    assert bit-identical results.

    ``kill``
        Task indices whose worker process dies hard (``os._exit`` with
        :data:`EXIT_CODE`) — the :class:`BrokenProcessPool` path.  In a
        serial executor (no worker to kill) the injection raises
        :class:`InjectedFault` instead.
    ``raises``
        Task indices that raise :class:`InjectedFault`.
    ``hang``
        Task indices that sleep :data:`HANG_SECONDS` before continuing —
        combined with :attr:`FaultPolicy.timeout` this exercises the
        hung-worker teardown path.
    """

    __slots__ = ("kill", "raises", "hang")

    def __init__(self, kill=(), raises=(), hang=()):
        self.kill = frozenset(kill)
        self.raises = frozenset(raises)
        self.hang = frozenset(hang)

    def __call__(self, index, attempt, in_worker=True):
        if attempt != 0:
            return
        if index in self.kill:
            if in_worker:
                os._exit(EXIT_CODE)
            raise InjectedFault(
                f"injected worker kill in task {index} (serial executor)")
        if index in self.hang:
            time.sleep(HANG_SECONDS)
        if index in self.raises:
            raise InjectedFault(f"injected failure in task {index}")

    def __repr__(self):
        parts = []
        for name in ("kill", "raises", "hang"):
            value = getattr(self, name)
            if value:
                parts.append(f"{name}={sorted(value)}")
        return f"FaultInjector({', '.join(parts)})"


def task_seed(task):
    """The spawn-keyed seed identifying a task, or ``None``.

    Every batch task the SMC layer submits carries its chunk of the
    master source's spawn stream as a list of integer seeds; the chunk's
    first seed pins the task to a position in that stream.  Scans the
    task tuple for the first non-empty all-int sequence (scalar ints —
    horizons, budgets — don't qualify) so the executor can report a
    failed task by seed without knowing each entry point's argument
    layout.
    """
    for arg in task:
        if (isinstance(arg, (list, tuple)) and arg
                and all(type(x) is int for x in arg)):
            return arg[0]
    return None
