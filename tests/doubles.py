"""Executor test doubles shared by the runtime test modules."""

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

    def imap(self, fn, tasks, policy=None):
        return self.inner.imap(fn, tasks, policy=policy)
