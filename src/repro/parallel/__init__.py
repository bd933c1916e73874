"""Process-pool execution layer for experiment sweeps.

The subsystem has four small parts, composed by the experiment runner and the
per-model grids inside individual experiments (plus
:mod:`~repro.parallel.supervisor`, the one supervisor for the long-lived
worker fleets of the pool engine and the data-parallel trainer):

* :mod:`~repro.parallel.executor` — :func:`run_tasks` maps a list of
  :class:`Task` descriptions over a ``ProcessPoolExecutor`` (or inline when
  ``jobs <= 1``), retrying crashed tasks once and reporting per-task failures
  instead of aborting the batch.
* :mod:`~repro.parallel.worker` — the picklable worker entry point.  Tasks
  carry a dotted ``"module:function"`` reference plus primitive kwargs, so
  nothing stateful (specs, models, closures) ever crosses the process
  boundary; the worker re-imports and re-resolves everything by name.
* :mod:`~repro.parallel.locks` — ``fcntl``-based advisory file locks (with a
  portable ``O_EXCL`` fallback) so concurrent workers coordinate through the
  artifact cache without double-training or torn writes.
* :mod:`~repro.parallel.seeding` — deterministic per-task seed derivation, so
  results are byte-identical whatever the process placement or completion
  order.
"""

from .events import TaskEvent
from .executor import (
    ParallelTaskError,
    Task,
    TaskResult,
    effective_jobs,
    parallel_depth,
    run_tasks,
)
from .locks import FileLock, LockTimeout
from .seeding import derive_seed, spawn_rng
from .worker import execute_task, resolve_callable

__all__ = [
    "Task",
    "TaskResult",
    "TaskEvent",
    "ParallelTaskError",
    "run_tasks",
    "effective_jobs",
    "parallel_depth",
    "FileLock",
    "LockTimeout",
    "derive_seed",
    "spawn_rng",
    "execute_task",
    "resolve_callable",
]
