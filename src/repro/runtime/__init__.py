"""Parallel simulation runtime: executors, seed streams, model specs,
fault tolerance, and campaign checkpoints.

The execution layer behind the statistical engines (:mod:`repro.smc`,
``modes`` in :mod:`repro.modest.toolset`): batched runs with
deterministic per-run seed streams (:func:`seeded_batches`, the one
loop every entry point runs), fanned out serially or across a process
pool with bit-identical results either way.  A
:class:`FaultPolicy`, given to the executor, makes it survive crashed,
raising, or hung workers by replaying the affected tasks from their
spawn-keyed seeds (still bit-identical) until a task exhausts its
retries and the campaign raises :class:`~repro.core.errors.TaskError`;
a :class:`Checkpoint` makes fixed-budget campaigns resumable
mid-flight.
"""

from .checkpoint import Checkpoint
from .executor import Executor, ParallelExecutor, SerialExecutor
from .faults import FaultInjector, FaultPolicy, InjectedFault, task_seed
from .seeds import (
    run_batch,
    runs_per_task,
    sample_batch,
    seed_stream,
    seeded_batches,
)
from .spec import Spec, build_cached

__all__ = [
    "Executor", "ParallelExecutor", "SerialExecutor",
    "FaultInjector", "FaultPolicy", "InjectedFault", "task_seed",
    "Checkpoint",
    "run_batch", "runs_per_task", "sample_batch", "seed_stream",
    "seeded_batches",
    "Spec", "build_cached",
]
