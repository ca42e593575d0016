"""Test doubles shared by test modules: an executor that pins batch
boundaries, and the first-passage recorder both simulators'
``first_passage`` walks are held to."""

import math

from repro.runtime import Executor, SerialExecutor


class FixedBatches(Executor):
    """Runs every task on ``inner`` (a fresh :class:`SerialExecutor` by
    default) but cuts each campaign into ``size``-run batches.

    Batch size is the executor's decision, so this is how a test pins
    the task boundaries its fault injections and checkpoints count on.
    """

    def __init__(self, size, inner=None):
        self.size = size
        self.inner = SerialExecutor() if inner is None else inner
        self.workers = self.inner.workers

    def batch_size_for(self, runs):
        return self.size

    def imap(self, fn, tasks):
        return self.inner.imap(fn, tasks)


class FirstPassageRecorder:
    """Observer recording when each watched predicate first becomes true.

    The oracle of ``first_passage``: a simulator's ``run`` with a
    recorder as ``observer`` and its :meth:`all_seen` as ``stop`` takes
    the same moves and draws and must record the same hit times.  Use
    one recorder per run; ``times[key]`` is the first time predicate
    ``key`` held (``inf`` if never).  Only the predicates still pending
    are evaluated, and ``pending`` is rebuilt only on a hit.
    """

    def __init__(self, predicates):
        self.times = {key: math.inf for key in predicates}
        self.pending = list(predicates.items())

    def __call__(self, time, names, valuation, clocks):
        hit = False
        for key, predicate in self.pending:
            if predicate(names, valuation, clocks):
                self.times[key] = time
                hit = True
        if hit:
            self.pending = [entry for entry in self.pending
                            if self.times[entry[0]] == math.inf]

    def all_seen(self, *_state):
        """Whether every predicate has held; ignores its arguments, so
        it serves as either simulator's ``stop``."""
        return not self.pending
