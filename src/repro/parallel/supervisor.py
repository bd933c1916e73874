"""One supervisor for long-lived command workers, used by every worker fleet.

The pool engine (:mod:`repro.serve.pool`) and the data-parallel trainer
(:mod:`repro.training.distributed`) each keep warm, spawned workers that
answer commands over a :class:`~multiprocessing.Pipe`.  Keeping such a
fleet alive lives here, once: :class:`WorkerSupervisor` spawns with a
ready/fatal handshake, respawns a dead worker and retries its command once,
and stops the fleet; :func:`run_worker` is the matching worker-side loop.
Callers keep only their own policy (batching, sharding, reduction, stats).
See "Worker supervisor" in ARCHITECTURE.md.
"""

from __future__ import annotations

import os
import threading
import traceback
from multiprocessing import get_context

from .executor import START_METHOD_ENV, parallel_depth
from .seeding import derive_seed, seed_task_globals
from .worker import DEPTH_ENV

__all__ = ["WorkerHandle", "WorkerSupervisor", "run_worker"]

#: What talking to a dead worker raises (``BrokenPipeError`` and
#: ``ConnectionError`` are ``OSError`` subclasses).
_DEATH_ERRORS = (EOFError, OSError)


def run_worker(index: int, conn, config: dict, namespace: str, setup) -> None:
    """The command loop every supervised worker runs.

    ``setup()`` runs once the depth and seed are set and returns
    ``(handlers, extras)``: ``handlers`` maps a command name to a function
    of the command's arguments whose result is the reply value; ``extras``
    joins ``pid``, ``seed`` and ``depth`` in the ``ready`` info.
    """
    os.environ[DEPTH_ENV] = str(config.get("depth", 1))
    seed = derive_seed(config.get("seed", 0), namespace, index)
    seed_task_globals(seed)
    try:
        handlers, extras = setup()
    except BaseException as error:  # noqa: BLE001 — reported, not raised
        try:
            conn.send(("fatal", f"{type(error).__name__}: {error}",
                       traceback.format_exc()))
        finally:
            conn.close()
        return
    conn.send(("ready", {"pid": os.getpid(), "seed": seed,
                         "depth": int(os.environ[DEPTH_ENV]), **extras}))
    try:
        while True:
            command = conn.recv()
            if command[0] == "stop":
                break
            try:
                handler = handlers.get(command[0])
                if handler is None:
                    raise ValueError(f"unknown command {command[0]!r}")
                conn.send(("ok", handler(*command[1:])))
            except Exception as error:  # noqa: BLE001 — the worker survives
                conn.send(("error", f"{type(error).__name__}: {error}",
                           traceback.format_exc()))
    except (EOFError, BrokenPipeError, ConnectionError, KeyboardInterrupt):
        pass  # the parent went away (or ^C): nothing left to do
    finally:
        conn.close()


class WorkerHandle:
    """Parent-side handle for one worker process: pipe, liveness, counters."""

    __slots__ = ("index", "process", "conn", "info", "restarts", "lock")

    def __init__(self, index: int):
        self.index = index
        self.process = None
        self.conn = None
        self.info: dict = {}
        self.restarts = 0
        # Serializes pipe access between the thread that drives this worker
        # and out-of-band callers (broadcasts).
        self.lock = threading.Lock()

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class WorkerSupervisor:
    """Spawn, call, respawn and stop ``count`` workers running ``target``.

    ``target(index, conn, config)`` is the worker entry point (it hands off
    to :func:`run_worker`); ``config`` is sent to every worker with
    ``depth`` added.  ``label`` names a worker in errors (``"pool worker
    0 died twice ..."``) and ``process_name`` prefixes process names.
    ``closed()`` tells whether the owner is shutting down: a death seen then
    raises ``closed_error`` instead of respawning.  ``error`` is raised for
    lifecycle failures and ``command_error`` for errors a worker reports;
    both optional types default to ``error``.
    """

    def __init__(self, target, count: int, config: dict, *, label: str,
                 process_name: str, closed, error=RuntimeError,
                 closed_error=None, command_error=None):
        self.target = target
        self.count = int(count)
        self.config = config
        self.label = label
        self.process_name = process_name
        self.error = error
        self.closed_error = closed_error or error
        self.command_error = command_error or error
        self.workers: list[WorkerHandle] = []
        self.restarts = 0
        self._closed = closed
        self._lock = threading.Lock()
        self._context = get_context(os.environ.get(START_METHOD_ENV, "spawn"))

    def start(self) -> None:
        """Spawn the fleet unless it is already up; all or nothing."""
        if self.workers:
            return
        handles = [WorkerHandle(index) for index in range(self.count)]
        try:
            for handle in handles:
                self._spawn(handle)
        except BaseException:
            for handle in handles:
                self._discard(handle)
            raise
        self.workers = handles

    def _spawn(self, handle: WorkerHandle) -> None:
        """Start one worker process and wait for its ready ack."""
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=self.target,
            args=(handle.index, child_conn,
                  {**self.config, "depth": parallel_depth() + 1}),
            name=f"{self.process_name}-{handle.index}", daemon=True)
        process.start()
        child_conn.close()  # the child holds its own copy
        try:
            reply = parent_conn.recv()
        except _DEATH_ERRORS:
            reply = None
        if reply is None or reply[0] != "ready":
            process.join(1.0)
            parent_conn.close()
            raise self.error(
                f"{self.label} {handle.index} " + (
                    f"died before answering ready (exitcode {process.exitcode})"
                    if reply is None else
                    f"failed to start: {reply[1]}\n{reply[2]}"))
        handle.process = process
        handle.conn = parent_conn
        handle.info = reply[1]

    @staticmethod
    def _discard(handle: WorkerHandle) -> None:
        """Reap a worker's process, then close its pipe.

        The process goes first, so a thread blocked reading the pipe sees
        EOF rather than a descriptor closed under it.
        """
        process, conn = handle.process, handle.conn
        if process is not None:
            if process.is_alive():
                process.terminate()
            process.join(2.0)
            if process.is_alive():
                process.kill()
                process.join(2.0)
            handle.process = None
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
            handle.conn = None

    def close(self) -> None:
        """Stop every worker; idempotent, and the handles stay readable.

        Takes no worker lock, so it also unblocks a thread wedged in
        :meth:`call`.
        """
        for handle in self.workers:
            if handle.conn is not None:
                try:
                    handle.conn.send(("stop",))
                except OSError:
                    pass
            self._discard(handle)

    def call(self, handle: WorkerHandle, message: tuple):
        """Send ``message`` to ``handle``'s worker and return its reply value,
        respawning the worker and retrying once if it dies."""
        for attempt in (1, 2):
            try:
                reply = self._exchange(handle, message)
            except _DEATH_ERRORS as error:
                if self._closed():
                    raise self.closed_error(
                        f"{self.label} {handle.index} stopped with a "
                        f"{message[0]!r} in flight: shutting down") from error
                if attempt == 2:
                    raise self.error(
                        f"{self.label} {handle.index} died twice running the "
                        f"same {message[0]!r} (retried once on a respawned "
                        f"worker)") from error
                try:
                    with handle.lock:
                        self._discard(handle)
                        self._spawn(handle)
                except self.error as spawn_error:
                    raise self.error(
                        f"{self.label} {handle.index} died and could not be "
                        f"respawned: {spawn_error}") from spawn_error
                with self._lock:
                    handle.restarts += 1
                    self.restarts += 1
                continue
            if reply[0] == "ok":
                return reply[1]
            raise self.command_error(
                f"{self.label} {handle.index} {message[0]!r} failed: "
                f"{reply[1]}\n--- worker traceback ---\n{reply[2]}")
        raise AssertionError("unreachable")  # pragma: no cover

    def broadcast(self, message: tuple) -> dict:
        """Send ``message`` to every live worker, with no retry or respawn;
        return ``{index: value}`` for the workers that answered ``ok``."""
        values = {}
        for handle in self.workers:
            try:
                reply = self._exchange(handle, message)
            except _DEATH_ERRORS:
                continue
            if reply[0] == "ok":
                values[handle.index] = reply[1]
        return values

    @staticmethod
    def _exchange(handle: WorkerHandle, message: tuple) -> tuple:
        """One blocking send and receive on the calling thread."""
        with handle.lock:
            if not handle.alive:  # found dead before sending
                raise EOFError("worker process is dead")
            handle.conn.send(message)
            return handle.conn.recv()
