"""A ``repro serve`` subprocess and keep-alive HTTP clients for it."""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .common import (ROOT, SETUP_REPEATS, Outcome, die_with_parent, median,
                     percentile)
from .spans import Tracer, load_spans

#: Seconds a server gets to print its address and answer ``/v1/models``.
START_TIMEOUT = 120.0
#: Seconds one request may take before the client gives up on it.
REQUEST_TIMEOUT = 30.0
#: Keep-alive connections, one load-generator thread each (the machine's
#: core count, so the generator never needs more threads than cores).
CONNECTIONS = 2

_ADDRESS = re.compile(r"on http://([0-9.]+):(\d+)")


class ServerProcess:
    """One ``repro serve`` process on an ephemeral port.

    Untraced, it is ``python -m repro serve ...``; with ``trace_out`` set it
    runs ``serve_main.py``, which records spans around the server's layers
    and writes them to ``trace_out`` when the server shuts down.
    """

    def __init__(self, serve_args: list[str], log_path: Path,
                 trace_out: Path | None = None):
        self.serve_args = list(serve_args)
        self.log_path = Path(log_path)
        self.trace_out = trace_out
        self.process: subprocess.Popen | None = None
        self.host = None
        self.port = None

    def start(self) -> float:
        """Launch the server; returns seconds from launch to the first 200."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)] +
            ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["PYTHONUNBUFFERED"] = "1"
        args = ["serve", *self.serve_args, "--port", "0", "--quiet"]
        if self.trace_out is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable, str(ROOT / "perfbench" / "serve_main.py"),
                       "--trace-out", str(self.trace_out), "--", *args]
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        log = self.log_path.open("w")
        started = time.perf_counter()
        try:
            self.process = subprocess.Popen(command, stdout=log,
                                            stderr=subprocess.STDOUT,
                                            cwd=str(ROOT), env=env,
                                            preexec_fn=die_with_parent)
        finally:
            log.close()
        deadline = started + START_TIMEOUT
        while self.port is None:
            match = _ADDRESS.search(self.log_path.read_text())
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                break
            self._check_alive(deadline)
            time.sleep(0.005)
        while True:
            try:
                status, _ = self.request("GET", "/v1/models", timeout=5.0)
                if status == 200:
                    return time.perf_counter() - started
            except OSError:
                pass
            self._check_alive(deadline)
            time.sleep(0.005)

    def _check_alive(self, deadline: float) -> None:
        if self.process.poll() is not None:
            raise RuntimeError(f"server exited with {self.process.returncode} "
                               f"before it was ready; log:\n"
                               f"{self.log_path.read_text()[-2000:]}")
        if time.perf_counter() > deadline:
            raise RuntimeError(f"server not ready after {START_TIMEOUT:.0f} s")

    def request(self, method: str, path: str, body: bytes | None = None,
                timeout: float = REQUEST_TIMEOUT):
        """One request on a fresh connection (control traffic, not load)."""
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=timeout)
        try:
            connection.request(method, path, body=body)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def stats(self) -> dict:
        status, payload = self.request("GET", "/v1/stats")
        if status != 200:
            raise RuntimeError(f"GET /v1/stats answered {status}")
        return json.loads(payload)

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM (graceful drain), escalating to SIGKILL; always reaps."""
        if self.process is None:
            return
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
                try:
                    self.process.wait(timeout)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
        finally:
            self.process = None


class KeepAliveClient:
    """One persistent HTTP/1.1 connection, as a real client would hold."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.connection = None

    def post(self, path: str, body: bytes, request_id: int):
        """``(status, payload)``; ``(None, error text)`` when the connection
        fails (the connection is reopened on the next call)."""
        if self.connection is None:
            self.connection = http.client.HTTPConnection(
                self.host, self.port, timeout=REQUEST_TIMEOUT)
        try:
            self.connection.request("POST", path, body=body, headers={
                "Content-Type": "application/json",
                "X-Request-Id": str(request_id)})
            response = self.connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException) as error:
            self.close()
            return None, f"{type(error).__name__}: {error}".encode()

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None


def launch_repeatedly(make_server, repeats: int):
    """Start ``repeats`` servers one after another, keeping the last.

    Returns ``(server, setup_seconds)`` with one set-up time per launch;
    every server but the last is stopped again.
    """
    setups = []
    for index in range(repeats):
        server = make_server(index)
        try:
            setups.append(server.start())
        except BaseException:
            server.stop()
            raise
        if index < repeats - 1:
            server.stop()
    return server, setups


def record_client_spans(records, path: Path) -> None:
    """Write one ``loadgen.request`` span per request, carrying the request
    id the server's spans carry too."""
    tracer = Tracer()
    for record in records:
        tracer.record("loadgen.request", record["sent"], record["done"],
                      rid=str(record["id"]), status=record["status"])
    tracer.dump(path)


def closed_loop(server: ServerProcess, path: str, bodies: list[bytes],
                body_for, seconds: float, first_id: int) -> list[dict]:
    """Drive ``server`` from :data:`CONNECTIONS` keep-alive connections.

    Each connection sends its next request as soon as the previous one is
    answered.  Request ``i`` (in sending order, across connections) carries
    the request id ``first_id + i`` and ``bodies[body_for(first_id + i)]``.
    Runs for ``seconds``.  Returns one record per request, in request order.
    """
    records = []
    lock = threading.Lock()
    cursor = [first_id]
    deadline = time.perf_counter() + seconds

    def connection_loop():
        client = KeepAliveClient(server.host, server.port)
        try:
            while True:
                with lock:
                    if time.perf_counter() >= deadline:
                        return
                    request_id = cursor[0]
                    cursor[0] += 1
                body = body_for(request_id)
                sent = time.perf_counter()
                status, payload = client.post(path, bodies[body], request_id)
                done = time.perf_counter()
                with lock:
                    records.append({"id": request_id, "body": body,
                                    "sent": sent, "done": done,
                                    "status": status, "payload": payload})
        finally:
            client.close()

    threads = [threading.Thread(target=connection_loop, name=f"loadgen-{n}")
               for n in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(records, key=lambda record: record["id"])


@dataclass
class Window:
    """One measured window of HTTP traffic: the workload's
    :class:`~perfbench.common.Outcome` with its end-to-end metrics, the
    per-request records and, in a traced run, the server's spans and its
    ``/v1/stats`` before and after the window."""

    outcome: Outcome
    records: list
    spans: list | None = None
    before: dict | None = None
    after: dict | None = None


def measure(serve_args: list[str], workdir: Path, trace: bool, path: str,
            bodies: list[bytes], body_for, seconds: float,
            warmup_seconds: float, check) -> Window:
    """Serve, warm up, measure one closed-loop window and stop the server.

    Set-up is timed over :data:`~perfbench.common.SETUP_REPEATS` launches
    (one when traced).  Warm-up requests carry ids from ``10**6``, measured
    ones from 0, both with bodies chosen by ``body_for(request_id)``.
    ``check(record)`` returns ``(ok, units)`` for an answered request: whether
    its output is correct and how many rows or tokens it carried.  A request
    that failed or was refused counts as failed, with a latency of
    :data:`REQUEST_TIMEOUT`.  The metrics are ``setup_s``, ``p50_ms``,
    ``p90_ms`` and ``throughput_per_s`` (units per second).
    """
    trace_path = workdir / "server-spans.jsonl" if trace else None
    server, setups = launch_repeatedly(
        lambda index: ServerProcess(serve_args, workdir / f"server-{index}.log",
                                    trace_out=trace_path),
        1 if trace else SETUP_REPEATS)
    try:
        closed_loop(server, path, bodies, body_for, warmup_seconds,
                    first_id=10 ** 6)
        before = server.stats() if trace else None
        start = time.perf_counter()
        records = closed_loop(server, path, bodies, body_for, seconds,
                              first_id=0)
        end = max(record["done"] for record in records)
        after = server.stats() if trace else None
    finally:
        server.stop()

    outcome = Outcome()
    latencies, units = [], 0
    for record in records:
        ok = record["status"] == 200
        if ok:
            ok, carried = check(record)
            outcome.check(ok)
            if ok:
                units += carried
        outcome.count(ok)
        latencies.append(record["done"] - record["sent"] if ok
                         else REQUEST_TIMEOUT)
    outcome.metrics = {
        "setup_s": median(setups),
        "p50_ms": 1e3 * percentile(latencies, 50),
        "p90_ms": 1e3 * percentile(latencies, 90),
        "throughput_per_s": units / (end - start),
    }
    window = Window(outcome, records)
    if trace:
        record_client_spans(records, workdir / "client-spans.jsonl")
        window.spans = load_spans(trace_path)
        window.before, window.after = before, after
    return window
