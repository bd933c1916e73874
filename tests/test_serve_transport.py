"""HTTP transport: one write per response with Nagle off, and delivery of
every response on a keep-alive connection, error and shutdown paths included.

Unbuffered headers-then-body is two TCP segments; Nagle's algorithm holds
the second until the client's delayed ACK, about 40 ms per keep-alive
response.  These tests pin the fix (``wbufsize = -1`` with
``TCP_NODELAY``) by latency, and pin that buffering never strands a
response in an unflushed buffer: a stranded response is a client hang,
which the client socket timeout turns into a failure here.
"""

import http.client
import json
import socket
import statistics
import threading
import time

import numpy as np
import pytest

import repro
from repro.io import save_bundle
from repro.models import SimpleCNN
from repro.serve import InferenceSession, Predictor, make_server
from repro.serve.batching import BatchedEngine
from repro.serve.router import ModelRouter

PREDICT = "/v1/models/default/predict"
#: Client socket timeout: a response left in a server-side buffer fails the
#: test after this long instead of hanging it.
CLIENT_TIMEOUT = 10.0
#: Median keep-alive round trip that rules out the ~40 ms delayed-ACK stall
#: with room for a loaded test machine (a 1-row forward takes ~2 ms).
STALL_FREE_MEDIAN_S = 0.020


def _tiny_model(seed: int = 3) -> SimpleCNN:
    return SimpleCNN(num_classes=4, neuron_type="proposed", rank=2, base_width=4,
                     image_size=8, seed=seed)


def _body(rows: int, top_k: int = 1, seed: int = 0) -> bytes:
    inputs = np.random.default_rng(seed).standard_normal((rows, 3, 8, 8))
    return json.dumps({"inputs": inputs.round(4).tolist(),
                       "top_k": top_k}).encode()


@pytest.fixture
def bundle_path(tmp_path):
    return save_bundle(tmp_path / "model.npz", _tiny_model(),
                       info={"normalization": {"mean": 0.25, "std": 2.0},
                             "classes": ["cat", "dog", "ship", "truck"],
                             "input_shape": [3, 8, 8]})


def _start(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server.server_address[:2]


@pytest.fixture
def serving(bundle_path):
    """A live server over the batched engine ``repro serve`` uses."""
    predictor = repro.load(bundle_path, engine="batched")
    server = make_server(predictor, port=0, quiet=True)
    host, port = _start(server)
    yield host, port
    server.shutdown()
    predictor.engine.close()
    server.server_close()


def _exchange(connection, method, path, body=None):
    """One request on ``connection``: (status, headers, body bytes)."""
    connection.request(method, path, body=body,
                       headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    return response.status, response.headers, response.read()


def _raw_exchange(sock, request: bytes):
    """Write raw bytes on a socket and parse one full response from it."""
    sock.sendall(request)
    response = http.client.HTTPResponse(sock)
    response.begin()
    body = response.read()
    assert len(body) == int(response.headers["Content-Length"])
    return response.status, response.headers, body


def _raw_request(path: str, body: bytes, method: str = "POST") -> bytes:
    return (f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


class TestOneWritePerResponse:
    def test_keep_alive_predicts_do_not_stall(self, serving):
        host, port = serving
        connection = http.client.HTTPConnection(host, port,
                                                timeout=CLIENT_TIMEOUT)
        small = _body(1)
        try:
            status, _, _ = _exchange(connection, "POST", PREDICT, small)
            assert status == 200
            round_trips = []
            for _ in range(25):
                start = time.perf_counter()
                status, _, payload = _exchange(connection, "POST", PREDICT,
                                               small)
                round_trips.append(time.perf_counter() - start)
                assert status == 200 and json.loads(payload)["count"] == 1
            # Larger than the 8 KiB write buffer, so the body leaves in a
            # send of its own: only TCP_NODELAY keeps it from stalling.
            large = _body(32, top_k=4)
            large_trips = []
            for _ in range(5):
                start = time.perf_counter()
                status, _, payload = _exchange(connection, "POST", PREDICT,
                                               large)
                large_trips.append(time.perf_counter() - start)
                assert status == 200 and len(payload) > 8192
                assert json.loads(payload)["count"] == 32
        finally:
            connection.close()
        assert statistics.median(round_trips) < STALL_FREE_MEDIAN_S, round_trips
        assert statistics.median(large_trips) < STALL_FREE_MEDIAN_S, large_trips


class TestDeliveryOnEveryExitPath:
    """Each response reaches a keep-alive client in full, however the
    handler exits."""

    @pytest.fixture
    def raw_socket(self, serving):
        sock = socket.create_connection(serving, timeout=CLIENT_TIMEOUT)
        # Make it a kept-alive connection with one answered request first.
        status, headers, _ = _raw_exchange(sock, _raw_request(PREDICT, _body(1)))
        assert status == 200 and headers.get("Connection") != "close"
        yield sock
        sock.close()

    @pytest.mark.parametrize("request_bytes,status,fragment", [
        (_raw_request(PREDICT, b"{}", method="PUT"), 501, b"Unsupported method"),
        (b"GET /a b HTTP/1.1\r\nHost: test\r\n\r\n", 400,
         b"Bad request syntax"),
        (b"POST " + PREDICT.encode() + b" HTTP/1.1\r\nHost: test\r\n"
         b"Content-Length: 999999999999\r\n\r\n", 400, b"exceeds"),
    ], ids=["unsupported-method-501", "malformed-request-line-400",
            "oversized-content-length-400"])
    def test_closing_errors_arrive_in_full(self, raw_socket, request_bytes,
                                           status, fragment):
        got, headers, body = _raw_exchange(raw_socket, request_bytes)
        assert got == status
        assert fragment in body
        # Each of these closes the connection after its response.
        assert headers["Connection"] == "close"
        assert raw_socket.recv(1) == b""

    def test_admission_shed_429_keeps_the_connection(self, bundle_path):
        router = ModelRouter()
        router.add("default", repro.load(bundle_path, engine="direct",
                                         warm=False), max_inflight=1)
        server = make_server(router, port=0, quiet=True)
        connection = http.client.HTTPConnection(*_start(server),
                                                timeout=CLIENT_TIMEOUT)
        model = router.get("default")
        try:
            assert _exchange(connection, "POST", PREDICT, _body(1))[0] == 200
            with model._lock:
                model._primary.inflight = 1  # the one admission slot is held
            status, headers, body = _exchange(connection, "POST", PREDICT,
                                              _body(1))
            assert status == 429 and headers["Retry-After"] == "1"
            assert "admission" in json.loads(body)["error"]
            with model._lock:
                model._primary.inflight = 0
            assert _exchange(connection, "POST", PREDICT, _body(1))[0] == 200
        finally:
            connection.close()
            server.shutdown()
            router.close()
            server.server_close()

    @pytest.mark.parametrize("drain,status", [("start", 200), ("close", 503)])
    def test_in_flight_request_answered_after_shutdown(self, drain, status):
        """``server.shutdown()`` stops accepting; a request already in the
        engine still gets its whole answer: served if the engine runs it,
        503 if the engine drains it."""
        engine = BatchedEngine(InferenceSession(_tiny_model(), max_batch=8),
                               autostart=False)
        predictor = Predictor(_tiny_model(), input_shape=(3, 8, 8),
                              engine=engine)
        server = make_server(predictor, port=0, quiet=True)
        connection = http.client.HTTPConnection(*_start(server),
                                                timeout=CLIENT_TIMEOUT)
        try:
            assert _exchange(connection, "GET", "/v1/models")[0] == 200
            connection.request("POST", PREDICT, body=_body(2))
            deadline = time.monotonic() + CLIENT_TIMEOUT
            while engine.stats()["queue_depth"] < 1:
                assert time.monotonic() < deadline, "request never queued"
                time.sleep(0.005)
            server.shutdown()
            getattr(engine, drain)()
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == status
            if status == 200:
                assert payload["count"] == 2
            else:
                assert "shutting down" in payload["error"]
        finally:
            connection.close()
            engine.close()
            server.server_close()
