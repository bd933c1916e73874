"""WorkerSupervisor and run_worker, driven directly with a tiny command worker.

The pool engine and the data-parallel trainer both run on this supervisor;
these tests pin its lifecycle paths without a model in the way: the ready/
fatal handshake, command errors (never retried), one death (respawn and
retry), two deaths (give up), a failed respawn, shutdown, and the worker
loop's exits when the parent goes away.
"""

import os
import random
import signal
import threading
import time
from multiprocessing import Pipe

import numpy as np
import pytest

from repro.parallel.seeding import derive_seed
from repro.parallel.supervisor import WorkerSupervisor, run_worker
from repro.parallel.worker import DEPTH_ENV


class SupervisorError(RuntimeError):
    """Lifecycle failures raised by the supervisor under test."""


class ClosedError(SupervisorError):
    """A worker death seen while the owner is closing."""


class CommandError(RuntimeError):
    """An error the worker reported for one command."""


def _handlers() -> dict:
    def echo(value):
        return value

    def fail(message):
        raise ValueError(message)

    def die(marker=None):
        """Exit hard; with ``marker``, only the first time (then survive)."""
        if marker is not None and os.path.exists(marker):
            return "survived"
        if marker is not None:
            open(marker, "w").close()
        os._exit(3)

    def interrupt():
        raise KeyboardInterrupt

    return {"echo": echo, "raise": fail, "die": die, "interrupt": interrupt}


def echo_worker(index: int, conn, config: dict) -> None:
    """Module-level so spawned children can import it by name."""
    def setup():
        broken = config.get("broken_marker")
        if config.get("fail_setup") or (broken and os.path.exists(broken)):
            raise ValueError("setup refused")
        return _handlers(), {"index": index}

    run_worker(index, conn, config, "supervisor-test", setup)


def _supervisor(count=1, closed=lambda: False, **config) -> WorkerSupervisor:
    return WorkerSupervisor(echo_worker, count, {"seed": 7, **config},
                            label="test worker", process_name="repro-test",
                            closed=closed, error=SupervisorError,
                            closed_error=ClosedError,
                            command_error=CommandError)


@pytest.fixture
def supervisor():
    fleet = _supervisor()
    fleet.start()
    yield fleet
    fleet.close()


def _kill(handle) -> None:
    os.kill(handle.process.pid, signal.SIGKILL)
    deadline = time.time() + 10.0
    while handle.process.is_alive():
        if time.time() > deadline:  # pragma: no cover
            pytest.fail("killed worker still alive")
        time.sleep(0.01)


class TestHandshake:
    def test_ready_info_carries_identity_and_extras(self, supervisor):
        info = supervisor.workers[0].info
        assert info["pid"] == supervisor.workers[0].process.pid
        assert info["seed"] == derive_seed(7, "supervisor-test", 0)
        assert info["depth"] == 1
        assert info["index"] == 0

    def test_fatal_handshake_surfaces_the_worker_traceback(self):
        fleet = _supervisor(count=2, fail_setup=True)
        with pytest.raises(SupervisorError, match="failed to start") as caught:
            fleet.start()
        message = str(caught.value)
        assert "ValueError: setup refused" in message
        assert "Traceback" in message
        assert fleet.workers == []  # all or nothing


class TestCommands:
    def test_echo_round_trips(self, supervisor):
        assert supervisor.call(supervisor.workers[0], ("echo", [1, 2])) == [1, 2]

    def test_command_error_is_not_retried_and_adds_no_restart(self, supervisor):
        handle = supervisor.workers[0]
        pid = handle.process.pid
        with pytest.raises(CommandError, match="worker traceback") as caught:
            supervisor.call(handle, ("raise", "boom"))
        assert "ValueError: boom" in str(caught.value)
        assert supervisor.restarts == 0 and handle.restarts == 0
        assert handle.alive and handle.process.pid == pid
        assert supervisor.call(handle, ("echo", 5)) == 5  # still serving

    def test_unknown_command_is_a_command_error(self, supervisor):
        with pytest.raises(CommandError, match="unknown command 'nope'"):
            supervisor.call(supervisor.workers[0], ("nope",))


class TestWorkerDeath:
    def test_worker_found_dead_is_respawned_and_the_call_retried(self,
                                                                 supervisor):
        handle = supervisor.workers[0]
        victim = handle.process.pid
        _kill(handle)
        assert supervisor.call(handle, ("echo", "again")) == "again"
        assert supervisor.restarts == 1 and handle.restarts == 1
        assert handle.alive and handle.process.pid != victim

    def test_death_mid_call_is_retried_once(self, supervisor, tmp_path):
        handle = supervisor.workers[0]
        marker = str(tmp_path / "died-once")
        assert supervisor.call(handle, ("die", marker)) == "survived"
        assert supervisor.restarts == 1

    def test_dying_on_both_attempts_gives_up(self, supervisor):
        with pytest.raises(SupervisorError, match="died twice"):
            supervisor.call(supervisor.workers[0], ("die",))
        assert supervisor.restarts == 1

    def test_unrespawnable_worker_raises_could_not_be_respawned(self, tmp_path):
        marker = tmp_path / "broken"
        fleet = _supervisor(broken_marker=str(marker))
        try:
            fleet.start()
            marker.touch()  # the respawned worker's setup now fails
            with pytest.raises(SupervisorError,
                               match="could not be respawned") as caught:
                fleet.call(fleet.workers[0], ("die",))
            assert "setup refused" in str(caught.value)
            assert fleet.restarts == 0
        finally:
            fleet.close()

    def test_death_while_closing_raises_the_closed_error(self):
        closing = threading.Event()
        fleet = _supervisor(closed=closing.is_set)
        try:
            fleet.start()
            closing.set()
            _kill(fleet.workers[0])
            with pytest.raises(ClosedError, match="shutting down"):
                fleet.call(fleet.workers[0], ("echo", 1))
            assert fleet.restarts == 0
        finally:
            fleet.close()

    def test_broadcast_skips_dead_workers_without_respawning(self):
        fleet = _supervisor(count=2)
        try:
            fleet.start()
            _kill(fleet.workers[1])
            assert fleet.broadcast(("echo", "hi")) == {0: "hi"}
            assert fleet.restarts == 0 and not fleet.workers[1].alive
        finally:
            fleet.close()


class TestShutdown:
    def test_close_is_idempotent_and_leaves_no_live_process(self):
        fleet = _supervisor(count=2)
        fleet.start()
        processes = [handle.process for handle in fleet.workers]
        fleet.close()
        fleet.close()
        assert all(not process.is_alive() for process in processes)
        assert all(handle.process is None and handle.conn is None
                   for handle in fleet.workers)
        assert all(not handle.alive for handle in fleet.workers)


class TestWorkerLoop:
    """``run_worker`` in a thread of this process, with the parent's pipe end
    in the test's hands."""

    @pytest.fixture
    def loop(self, monkeypatch):
        monkeypatch.setenv(DEPTH_ENV, "0")  # run_worker exports the depth
        python_state, numpy_state = random.getstate(), np.random.get_state()
        parent, child = Pipe()
        escaped = []

        def worker():
            try:
                echo_worker(0, child, {"seed": 1})
            except BaseException as error:  # noqa: BLE001 — asserted below
                escaped.append(error)

        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        assert parent.recv()[0] == "ready"
        yield parent, thread
        thread.join(10.0)
        parent.close()
        random.setstate(python_state)
        np.random.set_state(numpy_state)
        assert escaped == []

    def test_stop_exits_the_loop(self, loop):
        parent, thread = loop
        parent.send(("stop",))
        thread.join(10.0)
        assert not thread.is_alive()

    def test_parent_vanishing_mid_reply_exits_quietly(self, loop):
        parent, thread = loop
        parent.send(("echo", b"x" * (1 << 20)))  # too big for one pipe buffer
        parent.close()  # the reply now hits a broken pipe
        thread.join(10.0)
        assert not thread.is_alive()

    def test_keyboard_interrupt_exits_instead_of_replying(self, loop):
        parent, thread = loop
        parent.send(("interrupt",))
        thread.join(10.0)
        assert not thread.is_alive()
        with pytest.raises(EOFError):
            parent.recv()
