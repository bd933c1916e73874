"""Multi-process serving: a warm worker pool behind the batching scheduler.

:class:`~repro.serve.batching.BatchedEngine` coalesces concurrent requests
into fused forwards, but every fused forward still runs on *one* GIL-bound
interpreter — PR 5/6's wins (dynamic batching, compiled replay) cannot scale
past a single core.  :class:`ProcessPoolEngine` breaks that ceiling the same
way :mod:`repro.parallel` scales experiment sweeps: N warm worker processes,
each holding its own loaded bundle and plan cache, with the parent sharding
work across them.

The composition is deliberate — **batching and multiprocessing compose
instead of competing**:

* The engine *is* a :class:`~repro.serve.batching.QueuedEngine`: the exact
  bounded-queue / ``max_batch``-rows-or-``max_wait_ms`` coalescing policy of
  the batched engine assembles batches in the parent.
* Instead of running a batch inline, the scheduler hands it to the next idle
  worker over a request/response :class:`~multiprocessing.Pipe` and
  immediately goes back to coalescing — so up to ``workers`` fused batches
  execute concurrently, one per process.

Worker lifecycle — handshake, depth and seed, isolate-and-retry on worker
death, shutdown — is the shared
:class:`~repro.parallel.supervisor.WorkerSupervisor` (see "Worker
supervisor" in ARCHITECTURE.md).  Each worker loads the bundle **by path**
(bundles are self-describing ``.npz`` files, so nothing unpicklable crosses
the process boundary) into its own :class:`~repro.serve.InferenceSession`,
whose plan cache warms per worker.  Inference draws no randomness, so pool
output is byte-identical to :class:`~repro.serve.engine.DirectEngine` for
aligned batches.  A batch whose worker died twice fails its futures with
:class:`~repro.serve.engine.EngineError`; ``close()`` fails still-queued
futures with :class:`~repro.serve.engine.EngineClosed`.

Cost model versus the single-process engines: each worker holds a full copy
of the bundle (memory is N × bundle) and spawn adds ~1 s of startup per
worker, in exchange for throughput that scales with cores.  See the
"choosing an engine" table in ARCHITECTURE.md.
"""

from __future__ import annotations

import os
import queue
import threading

from ..parallel.executor import parallel_depth
from ..parallel.supervisor import WorkerSupervisor, run_worker
from .batching import QueuedEngine, _demux, _fuse, _request_groups
from .engine import EngineClosed, EngineError

__all__ = ["ProcessPoolEngine", "worker_main"]

#: Shard-queue sentinel telling a dispatcher thread to exit.
_STOP = object()

#: Counters a worker reports with every reply and the parent aggregates.
_PLAN_COUNTER_KEYS = ("plans", "fallback_keys", "hits", "misses", "fallbacks",
                      "replays", "fused_chains", "fused_ops", "arena_bytes")


def worker_main(worker_id: int, conn, config: dict) -> None:
    """Entry point of one pool worker: serve ``config["bundle_path"]``.

    Seeded with ``derive_seed(seed, "serve-pool", worker_id)``.  Commands
    ``("predict", array)`` and ``("warm", input_shape_or_None)`` reply
    ``(outputs_or_None, stats)``; ``ready`` adds ``effective_jobs``.
    """
    def setup():
        from ..parallel.executor import effective_jobs
        from .session import InferenceSession

        session = InferenceSession(config["bundle_path"],
                                   max_batch=config.get("max_batch", 64),
                                   compile=config.get("compile", True))

        def worker_stats() -> dict:
            return {
                "pid": os.getpid(),
                "batches": session.batches_served,
                "samples": session.samples_served,
                "plan_cache": session.plan_stats(),
            }

        def predict(inputs):
            return session.predict(inputs), worker_stats()

        def warm(input_shape):
            session.warm(input_shape)
            return None, worker_stats()

        return ({"predict": predict, "warm": warm},
                {"effective_jobs": effective_jobs()})

    run_worker(worker_id, conn, config, "serve-pool", setup)


class ProcessPoolEngine(QueuedEngine):
    """Shard coalesced batches across N warm worker processes.

    Parameters
    ----------
    session:
        Parent-side :class:`~repro.serve.InferenceSession` **loaded from a
        bundle on disk** — workers re-load the same bundle by path, so an
        in-memory model cannot be pool-served (there is no path to send).
        The parent session itself never runs forwards; it only supplies the
        bundle path, ``max_batch`` default, compile flag and pipeline
        metadata.
    workers:
        Number of worker processes (the concurrency of the pool).
    max_batch / max_wait_ms / queue_size:
        The shared coalescing policy — identical meaning to
        :class:`~repro.serve.batching.BatchedEngine`.
    seed:
        Root seed for deterministic worker identity: worker *i* is seeded
        with ``derive_seed(seed, "serve-pool", i)``.
    """

    name = "pool"

    def __init__(self, session, workers: int = 2, max_batch: int | None = None,
                 max_wait_ms: float = 2.0, queue_size: int = 256,
                 seed: int = 0, autostart: bool = True):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if parallel_depth() > 0:
            raise EngineError(
                "refusing to start a process-pool engine inside a parallel "
                "worker (REPRO_PARALLEL_DEPTH is set); nested pools would "
                "oversubscribe the machine — serve with engine='direct' or "
                "'batched' here instead")
        if getattr(session, "bundle", None) is None or session.bundle.path is None:
            raise EngineError(
                "the pool engine serves bundles loaded from disk (workers "
                "re-load the model by path); construct the session from a "
                "bundle file, or use engine='direct'/'batched' for "
                "in-memory models")
        self.workers = int(workers)
        self.seed = int(seed)
        self.bundle_path = str(session.bundle.path)
        # Unbounded hand-off queue between the scheduler and the dispatcher
        # threads; _slots_free bounds it to at most `workers` in-flight
        # shards, so backpressure lands on the main bounded request queue.
        self._shard_queue: queue.Queue = queue.Queue()
        self._slots_free = threading.Semaphore(self.workers)
        self._last_stats: list[dict] = [{} for _ in range(self.workers)]
        self._dispatchers: list[threading.Thread] = []
        # The scheduler thread must not start before the workers exist.
        super().__init__(session, max_batch=max_batch, max_wait_ms=max_wait_ms,
                         queue_size=queue_size, autostart=False)
        self._supervisor = WorkerSupervisor(
            worker_main, self.workers,
            {"bundle_path": self.bundle_path, "max_batch": self.max_batch,
             "compile": self.session.compile_enabled, "seed": self.seed},
            label="pool worker", process_name="repro-pool",
            closed=lambda: self._closed, error=EngineError,
            closed_error=EngineClosed, command_error=RuntimeError)
        try:
            self._supervisor.start()
        except BaseException:
            self._closed = True
            raise
        for worker in self._workers:
            thread = threading.Thread(target=self._dispatch_loop, args=(worker,),
                                      name=f"repro-pool-worker-{worker.index}",
                                      daemon=True)
            self._dispatchers.append(thread)
            thread.start()
        if autostart:
            self.start()

    @property
    def _workers(self) -> list:
        """The supervisor's worker handles (``process``, ``alive``, ...)."""
        return self._supervisor.workers

    @property
    def restarts(self) -> int:
        """Worker deaths survived by respawning."""
        return self._supervisor.restarts

    # -- scheduling ------------------------------------------------------------

    def _handle_batch(self, batch) -> None:
        """Hand one coalesced batch to the next idle worker.

        Blocks while every worker is busy (that is the backpressure that
        keeps the bounded request queue meaningful), but keeps checking the
        closed flag so ``close()`` during a saturated pool fails the batch
        with :class:`EngineClosed` instead of deadlocking the scheduler.
        """
        while not self._slots_free.acquire(timeout=0.05):
            if self._closed:
                self._fail_batch(batch, EngineClosed(
                    "serving engine closed while the request was still "
                    "queued; the server is shutting down — retry against "
                    "a live server"))
                return
        if self._closed:
            self._slots_free.release()
            self._fail_batch(batch, EngineClosed(
                "serving engine closed while the request was still queued; "
                "the server is shutting down — retry against a live server"))
            return
        self._shard_queue.put(batch)

    def _dispatch_loop(self, worker) -> None:
        """One thread per worker: pull shards and run them on that worker."""
        while True:
            shard = self._shard_queue.get()
            if shard is _STOP:
                return
            try:
                self._run_shard(worker, shard)
            finally:
                self._slots_free.release()

    def _run_shard(self, worker, shard) -> None:
        """Execute one coalesced batch remotely; every future must resolve.

        A worker death is retried once on a respawned worker by the
        supervisor; a *model* error is re-raised as-is for these futures.
        """
        live = [request for request in shard
                if request.future.set_running_or_notify_cancel()]
        for group in _request_groups(live):
            try:
                fused = _fuse(group)
                outputs, stats = self._supervisor.call(worker,
                                                       ("predict", fused))
                self._last_stats[worker.index] = stats
                _demux(group, outputs)
            except BaseException as error:  # noqa: BLE001 — delivered per future
                self._fail_batch(group, error)
                continue
            with self._stats_lock:
                self.batches += 1
                self.samples += len(fused)

    # -- warmup ----------------------------------------------------------------

    def warm(self, input_shape: tuple | None = None) -> None:
        """Broadcast a plan-cache warmup to every worker (each has its own).

        A dead worker is skipped; it is respawned on its next shard instead.
        """
        replies = self._supervisor.broadcast(
            ("warm", tuple(input_shape) if input_shape is not None else None))
        for index, (_, stats) in replies.items():
            self._last_stats[index] = stats

    # -- shutdown --------------------------------------------------------------

    def _shutdown_backend(self, timeout: float | None) -> None:
        """Stop dispatcher threads and worker processes after the drain.

        Runs after the scheduler has stopped and every still-queued request
        has been failed; only shards already handed to workers may be in
        flight.  Dispatchers finish those, then exit on their stop
        sentinels.  If a forward is wedged, stopping the workers makes its
        blocked receive raise, which — with the closed flag up — fails the
        futures with :class:`EngineClosed`.
        """
        for _ in self._dispatchers:
            self._shard_queue.put(_STOP)
        deadline = timeout if timeout is not None else 5.0
        for thread in self._dispatchers:
            thread.join(deadline)
        self._supervisor.close()
        for thread in self._dispatchers:
            thread.join(deadline)

    # -- introspection ---------------------------------------------------------

    def stats(self) -> dict:
        """Pool stats: the common queued-engine schema plus per-worker detail.

        ``plan_cache`` aggregates every worker's own cache counters (each
        process warms independently); ``per_worker`` carries the identity
        facts the determinism and depth tests pin (pid, derived seed, depth,
        ``effective_jobs`` as observed inside the worker) next to each
        worker's serving counters.
        """
        stats = super().stats()
        stats["restarts"] = self.restarts
        stats["workers"] = self.workers
        plan_cache = dict.fromkeys(_PLAN_COUNTER_KEYS, 0)
        plan_cache["compile"] = self.session.compile_enabled
        per_worker = []
        for worker in self._workers:
            last_stats = self._last_stats[worker.index]
            worker_plan = last_stats.get("plan_cache", {})
            for key in _PLAN_COUNTER_KEYS:
                plan_cache[key] += int(worker_plan.get(key, 0))
            per_worker.append({
                "worker": worker.index,
                "pid": worker.info.get("pid"),
                "alive": worker.alive,
                "restarts": worker.restarts,
                "seed": worker.info.get("seed"),
                "depth": worker.info.get("depth"),
                "effective_jobs": worker.info.get("effective_jobs"),
                "batches": last_stats.get("batches", 0),
                "samples": last_stats.get("samples", 0),
                "plan_cache": worker_plan,
            })
        stats["plan_cache"] = plan_cache
        stats["per_worker"] = per_worker
        return stats
