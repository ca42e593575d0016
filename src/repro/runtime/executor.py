"""Pluggable execution layer for batched simulation runs.

SMC throughput is bounded only by independent-run generation (the
UPPAAL-SMC and modes papers both stress this), so the statistical
engines fan batches of runs out through an *executor*:

* :class:`SerialExecutor` — runs batches inline, in order.  The default
  everywhere (``executor=None`` means ``SerialExecutor()``); zero
  overhead, no pickling requirements.
* :class:`ParallelExecutor` — a :class:`concurrent.futures.ProcessPoolExecutor`
  behind the same interface.  Batch functions and their arguments must
  be picklable (module-level functions, :class:`~repro.runtime.Spec`
  model references).

Both yield results **in task order**, and all randomness comes from the
per-run seeds inside the tasks, so the executor choice can never change
an estimate: any ``(seed, n_runs)`` pair gives bit-identical results
for any worker count.  How many runs a task carries is the executor's
one decision (:meth:`Executor.batch_size_for`); the entry points cut
their seed streams through :func:`repro.runtime.seeded_batches`.

:meth:`Executor.imap` is lazy with a bounded in-flight window, which is
what the sequential tests (SPRT) use for chunked early stopping: the
coordinator stops pulling tasks — and the window stops being refilled —
as soon as the decision boundary is crossed.

Fault tolerance (:mod:`repro.runtime.faults`): each executor takes an
optional :class:`~repro.runtime.FaultPolicy` when it is built.  A task
that raises is replayed at once; a worker that dies
(:class:`~concurrent.futures.process.BrokenProcessPool`) or hangs past
the policy timeout causes the pool to be torn down, rebuilt, and every
in-flight task **replayed by its spawn-keyed seeds** — tasks are pure
functions of their seed chunks, so a recovered run is bit-identical to
a fault-free run.  A task that faults more than ``max_retries`` times
raises :class:`~repro.core.errors.TaskError` (carrying its index and
seed for reproduction).  Both executors take this one decision;
without a policy a task that raises fails at once with
:class:`~repro.core.errors.TaskError`, serial or pooled.

Observability (:mod:`repro.obs`): when a metrics collector is active in
the coordinator, both executors record per-task wall times and counts
under ``runtime.*``.  When any observer is active (collector, profiler,
flight recorder), :class:`ParallelExecutor` runs every task under
:func:`repro.obs.capturing` and ships one snapshot home with its
result, merged with :func:`repro.obs.merge` **in task order** — so
fixed-budget workloads report bit-identical logical totals, merged
profiles and logical event sequences for any worker count.  (Sequential
tests that stop early are the one caveat: a parallel run may execute —
and account — a few speculative runs past the stopping point inside
already-dispatched chunks.)  Fault recovery keeps the guarantee: a
failed attempt's snapshot dies with its worker, so exactly one clean
attempt per task is merged.  The recovery machinery itself counts under
``runtime.retries`` / ``runtime.replayed`` / ``runtime.pool_rebuilds``
/ ``runtime.timeouts``.
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from collections import deque

from ..core.errors import AnalysisError, TaskError
from ..obs import active, capture_spec, capturing, incr, merge
from .faults import task_seed


class _WorkerTask:
    """Worker-side wrapper: optional fault injection, then observation
    capture.

    Called as ``(index, attempt, *args)`` so the injector can key on the
    task's position and fire only on first attempts.  With a capture
    ``spec`` (:func:`repro.obs.capture_spec`) the task runs under
    :func:`repro.obs.capturing` and returns ``(result, snapshot, worker
    pid, seconds)``; otherwise the bare result.  Picklable as long as
    the wrapped function (and injector) are.
    """

    __slots__ = ("fn", "injector", "spec")

    def __init__(self, fn, injector, spec):
        self.fn = fn
        self.injector = injector
        self.spec = spec

    def __call__(self, index, attempt, *args):
        if self.injector is not None:
            self.injector(index, attempt)
        if self.spec is None:
            return self.fn(*args)
        start = time.perf_counter()
        with capturing(self.spec) as snapshot:
            result = self.fn(*args)
        return result, snapshot, os.getpid(), time.perf_counter() - start


class _PendingTask:
    """An in-flight task: its submission index, the (replayable) task
    tuple, the attempt count, the current future, and the pool
    generation the future was submitted under."""

    __slots__ = ("index", "task", "attempts", "future", "generation")

    def __init__(self, index, task):
        self.index = index
        self.task = tuple(task)
        self.attempts = 0
        self.future = None
        self.generation = -1


#: Largest serial batch — the checkpoint cadence of a serial campaign.
SERIAL_BATCH_RUNS = 64


def _task_error(record, exc):
    seed = task_seed(record.task)
    where = f"task {record.index}"
    if seed is not None:
        where += f" (seed {seed})"
    return TaskError(
        f"{where} failed after {record.attempts} attempt(s): "
        f"{exc!r}; the same master seed replays it deterministically",
        index=record.index, seed=seed)


def _failure_decision(record, exc, policy):
    """The failure decision both executors share, for a task whose
    latest attempt raised ``exc``: charge the attempt and return, so
    the caller replays the task, while the policy allows a retry; raise
    :class:`~repro.core.errors.TaskError` when the policy is spent or
    there is none.  There is no third outcome."""
    record.attempts += 1
    if policy is None or record.attempts > policy.max_retries:
        raise _task_error(record, exc) from exc
    incr("runtime.retries")


class Executor:
    """Interface: ordered (optionally lazy) map over picklable tasks."""

    #: Degree of parallelism; used to pick batch sizes.
    workers = 1

    def map(self, fn, tasks):
        """Run ``fn(*task)`` for every task; results in task order."""
        return list(self.imap(fn, tasks))

    def imap(self, fn, tasks):
        """Lazy :meth:`map`: a generator yielding results in task order.
        Closing the generator stops further task consumption."""
        raise NotImplementedError

    def batch_size_for(self, runs):
        """A batch size giving each worker a few batches (load balance)
        without drowning in per-task overhead."""
        waves = 4 * self.workers
        return max(1, -(-runs // waves))

    def close(self):
        """Release any pooled resources (idempotent)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


class SerialExecutor(Executor):
    """In-process execution — the degenerate, dependency-free executor.

    Exists so callers can write one aggregation loop: serial and
    parallel runs share the seed-stream protocol and therefore agree
    bit for bit.  Failures take the same decision as in the pool: a
    task that raises ends in :class:`~repro.core.errors.TaskError`
    unless ``policy`` (a :class:`~repro.runtime.FaultPolicy`) replays
    it (``kill`` injections have no worker to kill and surface as
    ordinary faults); per-task timeouts require a process pool and are
    ignored here.
    """

    workers = 1

    def __init__(self, policy=None):
        self.policy = policy

    def batch_size_for(self, runs):
        """At most :data:`SERIAL_BATCH_RUNS` runs per batch: each batch
        ends in a checkpoint, so a serial campaign of any size samples
        its time series (and can save a resume checkpoint) every 64
        runs."""
        return max(1, min(runs, SERIAL_BATCH_RUNS))

    def imap(self, fn, tasks):
        collector = active()
        policy = self.policy
        injector = policy.injector if policy is not None else None
        if collector is not None:
            collector.set_gauge("runtime.workers", self.workers)
        for index, task in enumerate(tasks):
            record = _PendingTask(index, task)
            start = time.perf_counter()
            while True:
                try:
                    if injector is not None:
                        injector(index, record.attempts, in_worker=False)
                    result = fn(*record.task)
                    break
                except Exception as exc:
                    _failure_decision(record, exc, policy)
            if collector is not None:
                collector.incr("runtime.tasks")
                collector.observe("runtime.task_seconds",
                                  time.perf_counter() - start)
            yield result

    def __repr__(self):
        policy = "" if self.policy is None else f"policy={self.policy!r}"
        return f"SerialExecutor({policy})"


class ParallelExecutor(Executor):
    """Process-pool execution of simulation batches.

    ``workers`` defaults to the machine's CPU count.  The pool is
    created lazily on first use and reused across calls (worker
    processes keep their per-process model caches warm), so hold one
    executor for a whole experiment and :meth:`close` it at the end —
    or use it as a context manager.  ``policy`` (a
    :class:`~repro.runtime.FaultPolicy`) makes the pool replay the
    tasks that raise, kill their worker or hang.

    :meth:`imap` queues at most :attr:`inflight` (``2 * workers``)
    batches ahead of the consumer: enough to keep every worker busy,
    small enough that early stopping does not waste a long tail of
    speculative runs.
    """

    #: How long :meth:`imap` cleanup waits for still-running futures
    #: when no policy timeout is set, before presuming them hung and
    #: abandoning the pool (so :meth:`close` can never deadlock).
    drain_timeout = 60.0

    def __init__(self, workers=None, mp_context=None, policy=None):
        self.workers = (os.cpu_count() or 1) if workers is None else workers
        if self.workers < 1:
            raise AnalysisError(f"need at least one worker, "
                                f"got {self.workers}")
        self.inflight = 2 * self.workers
        self.policy = policy
        self._mp_context = mp_context
        self._pool = None
        #: Bumped every time a pool is abandoned; futures remember the
        #: generation they were submitted under, so recovery can tell a
        #: *newly* broken pool from stale futures of an already-replaced
        #: one (and rebuild/charge only for the former).
        self._generation = 0

    def _ensure_pool(self):
        if self._pool is None:
            import multiprocessing

            context = self._mp_context
            if isinstance(context, str):
                context = multiprocessing.get_context(context)
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers, mp_context=context)
        return self._pool

    def _abandon_pool(self, terminate=False):
        """Drop the current pool (broken or presumed hung); the next
        submission rebuilds one.  With ``terminate``, hard-kill the
        worker processes first — a hung worker never returns, so a
        graceful shutdown would never finish."""
        pool, self._pool = self._pool, None
        self._generation += 1
        if pool is None:
            return
        if terminate:
            processes = getattr(pool, "_processes", None) or {}
            for process in list(processes.values()):
                process.terminate()
        pool.shutdown(wait=False, cancel_futures=True)

    def imap(self, fn, tasks):
        collector = active()
        spec = capture_spec()
        policy = self.policy
        injector = policy.injector if policy is not None else None
        timeout = policy.timeout if policy is not None else None
        wrap = spec is not None or injector is not None
        call = _WorkerTask(fn, injector, spec) if wrap else fn
        worker_ids = {}
        if collector is not None:
            collector.set_gauge("runtime.workers", self.workers)
        task_iter = iter(tasks)
        pending = deque()
        next_index = 0

        def submit(record):
            # A killed worker can break the pool between the head
            # result and the next submission, making pool.submit itself
            # raise — rebuild and resubmit until a healthy pool takes
            # the task (each worker spawn either succeeds or breaks the
            # fresh pool immediately, so this cannot spin hot).
            while True:
                pool = self._ensure_pool()
                try:
                    if wrap:
                        record.future = pool.submit(
                            call, record.index, record.attempts,
                            *record.task)
                    else:
                        record.future = pool.submit(fn, *record.task)
                    record.generation = self._generation
                    return
                except concurrent.futures.BrokenExecutor:
                    incr("runtime.pool_rebuilds")
                    self._abandon_pool()

        def submit_next():
            nonlocal next_index
            for task in task_iter:
                record = _PendingTask(next_index, task)
                next_index += 1
                submit(record)
                pending.append(record)
                return True
            return False

        def replay_pending(head):
            # The pool died under every in-flight future.  Resubmitting
            # the identical task tuples — same spawn-keyed seeds — to a
            # fresh pool makes the recovered run bit-identical to a
            # fault-free one.  The culprit of a pool-level fault is
            # unknowable, so the whole in-flight window is charged one
            # attempt: a poison task that keeps killing its worker
            # exhausts its policy instead of replaying forever (and
            # kill injections, which fire on attempt 0 only, fire once).
            for record in pending:
                if record is not head:
                    record.attempts += 1
                    submit(record)
                    incr("runtime.replayed")

        def replay_stale(head):
            # The pool was already replaced (by a submission-time
            # rebuild); futures from the dead pool just need
            # resubmitting — nothing newly broke, so no charge.
            for record in pending:
                if record.generation != self._generation:
                    submit(record)
                    incr("runtime.replayed")

        def recover(head, exc):
            _failure_decision(head, exc, policy)
            submit(head)

        def absorb(outcome):
            # Only the one clean attempt's snapshot ever arrives here —
            # a failed attempt's snapshot dies with it.
            result, snapshot, pid, seconds = outcome
            index = worker_ids.setdefault(pid, len(worker_ids))
            merge(snapshot, worker=index)
            if collector is not None:
                collector.incr("runtime.tasks")
                collector.incr(f"runtime.worker.{index}.tasks")
                collector.observe("runtime.task_seconds", seconds)
                collector.set_gauge("runtime.workers_seen",
                                    len(worker_ids))
            return result

        try:
            for _ in range(self.inflight):
                if not submit_next():
                    break
            while pending:
                head = pending[0]
                while True:
                    try:
                        outcome = head.future.result(timeout=timeout)
                        break
                    except concurrent.futures.TimeoutError as exc:
                        if head.future.done():
                            # The task itself raised a TimeoutError
                            # worker-side; the pool is healthy.
                            recover(head, exc)
                        else:
                            # Exceeded the policy budget: presume a hung
                            # worker, tear the pool down, replay.
                            incr("runtime.timeouts")
                            incr("runtime.pool_rebuilds")
                            self._abandon_pool(terminate=True)
                            replay_pending(head)
                            recover(head, AnalysisError(
                                f"no result within the {timeout}s "
                                f"fault-policy timeout"))
                    except (concurrent.futures.BrokenExecutor,
                            concurrent.futures.CancelledError) as exc:
                        # A worker died (segfault, os._exit, OOM kill):
                        # every in-flight future is void.
                        if head.generation != self._generation:
                            # ... but the pool was already rebuilt; this
                            # is a stale future, not a fresh fault.
                            replay_stale(head)
                        else:
                            incr("runtime.pool_rebuilds")
                            self._abandon_pool()
                            replay_pending(head)
                            recover(head, exc)
                    except Exception as exc:
                        # The task raised worker-side; pool is healthy.
                        recover(head, exc)
                pending.popleft()
                submit_next()
                if spec is not None:
                    outcome = absorb(outcome)
                yield outcome
        finally:
            if pending:
                for record in pending:
                    record.future.cancel()
                live = [record.future for record in pending
                        if not record.future.cancelled()]
                if live:
                    # Drain: wait (bounded) for already-running futures
                    # and consume their outcomes, so no zombie futures
                    # or unraised worker exceptions outlive the
                    # generator and close() can never deadlock.
                    done, not_done = concurrent.futures.wait(
                        live, timeout=timeout if timeout is not None
                        else self.drain_timeout)
                    for future in done:
                        if not future.cancelled():
                            future.exception()
                    if not_done:
                        self._abandon_pool(terminate=True)

    def close(self):
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __repr__(self):
        policy = "" if self.policy is None else f", policy={self.policy!r}"
        return f"ParallelExecutor(workers={self.workers}{policy})"
