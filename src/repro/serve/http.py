"""Stdlib HTTP transport over a :class:`~repro.serve.router.ModelRouter`.

The transport is deliberately thin: handler threads parse JSON and pre/post-
process (pure functions, unlocked), then *submit* the forward to the target
model's serving engine and wait on a future.  All scheduling policy — direct
lock-and-forward vs cross-request dynamic batching — lives behind the
:class:`~repro.serve.engine.ServingEngine` boundary, so the same transport
serves either engine and any number of named models.

Versioned API
-------------
``GET /v1/models``
    Every mounted model (name, spec, parameter count, engine) and which one
    is the default.
``GET /v1/models/<name>``
    One model's description.
``POST /v1/models/<name>/predict``
    Body ``{"inputs": <nested array>, "top_k": <int, optional>,
    "normalize": <bool, optional>}``; response ``{"model": <name>,
    "predictions": [...], "count": N}`` with one top-k record per sample.
``POST /v1/models/<name>/generate``
    Generation bundles only.  Body ``{"inputs": <token-id sequences or
    text>, "max_new_tokens": <int>, "strategy": "greedy"|"sample",
    "temperature": <float>, "top_k": <int>, "seed": <int>}`` (all but
    ``inputs`` optional); response ``{"model": <name>, "outputs":
    [{"tokens": [...], "logprobs": [...], "finish_reason": ...,
    "steps": N, "text": ...}], "count": N}``.
``GET /v1/stats``
    Stats schema v2: ``{"schema_version": 2, "server": {uptime_seconds,
    version, pid}, "models": {<name>: <entry>}}`` where each model entry
    carries the structured ``scheduler``/``plan_cache``/``latency``/
    ``admission``/``bundle``/``canary`` sections (plus the engine's flat
    counters as deprecated aliases for one release).
``GET /v1/models/<name>/stats``
    One model's stats entry (same shape as its ``models.<name>`` section).

Admin API (the control plane; disable with ``serve(admin=False)``)
------------------------------------------------------------------
``POST /v1/admin/models/<name>/reload``
    Body ``{"bundle": <path, optional>, "options": <dict, optional>}`` —
    hot-swap the model's bundle with zero dropped requests (omit ``bundle``
    to re-load the currently mounted path).
``POST /v1/admin/models/<name>/canary``
    Body ``{"bundle": <path>, "percent": <float, default 10>,
    "shadow": <bool, default false>, "options": <dict, optional>}`` — stage
    a candidate: route ``percent``% of traffic to it, or mirror (shadow).
``POST /v1/admin/models/<name>/promote``
    Swap the staged canary in as the primary (drains the old primary).
``DELETE /v1/admin/models/<name>/canary``
    Retire the staged canary without touching the primary.

Legacy shims (PR 4 surface; deprecated — they answer with a ``Deprecation``
header naming the v1 successor route)
---------------------------------------------------------------------------
``GET /healthz``
    Liveness + the *default* model's summary (successor: ``GET /v1/models``).
``POST /predict``
    Routes to the default model (successor: ``POST /v1/models/<name>/predict``).

Status mapping: malformed payloads → 400, unknown paths/models → 404, admin
API disabled → 403, full request queue *or a model past its admission cap*
→ 429 (backpressure), engine shut down → 503, request timeout → 504,
anything unexpected → 500.  SIGINT/SIGTERM drain gracefully: the server
stops accepting, engines fail queued futures with a clear error, and
in-flight responses flush before the process exits.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeout
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import unquote

from .engine import ENGINE_NAMES, EngineClosed, QueueFull, ServingEngine
from .router import ModelRouter

__all__ = ["make_server", "serve", "PredictionHandler", "PredictionServer"]

#: Largest accepted request body (64 MiB) — a backstop against a single
#: request buffering unbounded memory, not a tuning knob.
MAX_REQUEST_BYTES = 64 * 1024 * 1024

_ENDPOINTS = ("GET /healthz, GET /v1/models, GET /v1/models/<name>, "
              "GET /v1/models/<name>/stats, GET /v1/stats, POST /predict, "
              "POST /v1/models/<name>/predict, "
              "POST /v1/models/<name>/generate, "
              "POST /v1/admin/models/<name>/{reload,canary,promote}, "
              "DELETE /v1/admin/models/<name>/canary")

#: Value of the ``Deprecation`` header on legacy-shim responses (the header's
#: draft-RFC form is a boolean; the successor route goes in ``Link``).
_DEPRECATION = "true"


def _deprecation_headers(successor: str) -> dict:
    return {"Deprecation": _DEPRECATION,
            "Link": f"<{successor}>; rel=\"successor-version\""}


class PredictionHandler(BaseHTTPRequestHandler):
    """Routes the v1 multi-model API (plus legacy shims) onto the router."""

    server_version = "repro-serve/2.1"
    protocol_version = "HTTP/1.1"
    # Each response leaves in one buffered write (the stdlib flushes wfile
    # after every request and on every early exit) on a TCP_NODELAY socket.
    # Unbuffered headers-then-body is two segments, and Nagle holds the body
    # until the client's delayed ACK: ~40 ms per keep-alive response.
    wbufsize = -1
    disable_nagle_algorithm = True

    # -- plumbing --------------------------------------------------------------

    def _send_json(self, status: int, payload: dict,
                   headers: dict | None = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
        if not getattr(self.server, "quiet", False):
            super().log_message(format, *args)

    def _not_found(self, message: str | None = None) -> None:
        detail = message or f"unknown path {self.path!r}"
        self._send_json(404, {"error": f"{detail}; endpoints: {_ENDPOINTS}"})

    def _resolve_model(self, name: str | None):
        """Router lookup → (name, model), or None after replying 404."""
        try:
            model = self.server.router.get(name)
        except KeyError as error:
            self._not_found(str(error).strip('"'))
            return None
        return (name or self.server.router.default_name), model

    def _read_body(self) -> bytes | None:
        """Read (and thereby drain) the declared body; None after replying.

        Replying while unread body bytes sit on a keep-alive connection would
        make the next request parse as garbage, so every body is drained up
        front.  Oversized/undeclared bodies are the one case we refuse to
        drain — close the connection instead, and say so in the response.
        """
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
        except ValueError:
            length = -1
        if length < 0 or length > MAX_REQUEST_BYTES:
            # The header also sets close_connection: the body stays unread.
            self._send_json(400, {"error": f"Content-Length {self.headers.get('Content-Length')!r} "
                                           f"is invalid or exceeds the "
                                           f"{MAX_REQUEST_BYTES}-byte limit"},
                            headers={"Connection": "close"})
            return None
        return self.rfile.read(length) if length else b""

    def _stats_payload(self) -> dict:
        """The v2 ``/v1/stats`` document: server identity + per-model entries."""
        from repro import __version__

        return {
            "schema_version": 2,
            "server": {
                "uptime_seconds": round(
                    time.monotonic() - self.server.start_monotonic, 3),
                "version": __version__,
                "pid": os.getpid(),
            },
            "models": self.server.router.stats(),
        }

    # -- endpoints -------------------------------------------------------------

    def do_GET(self):
        path = self.path.partition("?")[0].rstrip("/")
        if path in ("", "/healthz"):
            resolved = self._resolve_model(None)
            if resolved:
                self._send_json(200, {"status": "ok", "model_name": resolved[0],
                                      **resolved[1].describe()},
                                headers=_deprecation_headers("/v1/models"))
        elif path == "/v1/models":
            self._send_json(200, self.server.router.describe())
        elif path == "/v1/stats":
            self._send_json(200, self._stats_payload())
        elif path.startswith("/v1/models/") and path.endswith("/stats"):
            name = unquote(path[len("/v1/models/"):-len("/stats")])
            resolved = self._resolve_model(name)
            if resolved:
                self._send_json(200, {"name": resolved[0],
                                      **resolved[1].stats()})
        elif path.startswith("/v1/models/"):
            resolved = self._resolve_model(unquote(path[len("/v1/models/"):]))
            if resolved:
                self._send_json(200, {"name": resolved[0], **resolved[1].describe()})
        else:
            self._not_found()

    def do_POST(self):
        body = self._read_body()
        if body is None:
            return
        path = self.path.partition("?")[0].rstrip("/")
        if path.startswith("/v1/admin/"):
            self._handle_admin("POST", path, body)
            return
        if path == "/predict":
            model_name = None  # legacy shim → default model
            extra_headers = _deprecation_headers(
                f"/v1/models/{self.server.router.default_name}/predict")
        elif path.startswith("/v1/models/") and path.endswith("/generate"):
            self._handle_generate(
                unquote(path[len("/v1/models/"):-len("/generate")]), body)
            return
        elif path.startswith("/v1/models/") and path.endswith("/predict"):
            model_name = unquote(path[len("/v1/models/"):-len("/predict")])
            extra_headers = None
        else:
            self._not_found()
            return
        resolved = self._resolve_model(model_name)
        if not resolved:
            return
        name, model = resolved

        try:
            if not body:
                raise ValueError("request body is empty")
            request = json.loads(body.decode("utf-8"))
            if not isinstance(request, dict) or "inputs" not in request:
                raise ValueError('request must be a JSON object with an "inputs" key')
            k = int(request.get("top_k", 1))
            normalize = bool(request.get("normalize", True))
        except (ValueError, json.JSONDecodeError, UnicodeDecodeError) as error:
            self._send_json(400, {"error": str(error)}, headers=extra_headers)
            return

        try:
            predictions = model.predict_topk(
                request["inputs"], k=k, normalize=normalize,
                timeout=self.server.request_timeout)
        except QueueFull as error:  # backpressure (engine queue or admission cap)
            self._send_json(429, {"error": str(error)},
                            headers={"Retry-After": "1", **(extra_headers or {})})
            return
        except EngineClosed as error:  # draining for shutdown
            self._send_json(503, {"error": str(error)}, headers=extra_headers)
            return
        except (TimeoutError, FutureTimeout) as error:
            self._send_json(504, {"error": str(error)}, headers=extra_headers)
            return
        except ValueError as error:  # shape/validation problems are the client's
            self._send_json(400, {"error": str(error)}, headers=extra_headers)
            return
        except Exception as error:  # noqa: BLE001 — a serving loop must not die
            self._send_json(500, {"error": f"{type(error).__name__}: {error}"},
                            headers=extra_headers)
            return
        self._send_json(200, {"model": name, "predictions": predictions,
                              "count": len(predictions)}, headers=extra_headers)

    def _handle_generate(self, model_name: str, body: bytes) -> None:
        """``POST /v1/models/<name>/generate`` — token ids in, tokens +
        per-step logprobs out, same status taxonomy as predict."""
        resolved = self._resolve_model(model_name)
        if not resolved:
            return
        name, model = resolved
        try:
            if not body:
                raise ValueError("request body is empty")
            request = json.loads(body.decode("utf-8"))
            if not isinstance(request, dict) or "inputs" not in request:
                raise ValueError('request must be a JSON object with an '
                                 '"inputs" key (token-id sequences or text)')
            options = {}
            for key, cast in (("max_new_tokens", int), ("strategy", str),
                              ("temperature", float), ("top_k", int),
                              ("seed", int)):
                if request.get(key) is not None:
                    options[key] = cast(request[key])
        except (ValueError, TypeError, json.JSONDecodeError,
                UnicodeDecodeError) as error:
            self._send_json(400, {"error": str(error)})
            return

        try:
            outputs = model.generate(request["inputs"],
                                     timeout=self.server.request_timeout,
                                     **options)
        except QueueFull as error:  # backpressure → 429
            self._send_json(429, {"error": str(error)},
                            headers={"Retry-After": "1"})
            return
        except EngineClosed as error:  # draining for shutdown
            self._send_json(503, {"error": str(error)})
            return
        except (TimeoutError, FutureTimeout) as error:
            self._send_json(504, {"error": str(error)})
            return
        except ValueError as error:  # bad tokens / not a generation model
            self._send_json(400, {"error": str(error)})
            return
        except Exception as error:  # noqa: BLE001 — a serving loop must not die
            self._send_json(500, {"error": f"{type(error).__name__}: {error}"})
            return
        self._send_json(200, {"model": name, "outputs": outputs,
                              "count": len(outputs)})

    def do_DELETE(self):
        body = self._read_body()
        if body is None:
            return
        path = self.path.partition("?")[0].rstrip("/")
        if path.startswith("/v1/admin/"):
            self._handle_admin("DELETE", path, body)
        else:
            self._not_found()

    # -- the control plane over HTTP -------------------------------------------

    def _handle_admin(self, method: str, path: str, body: bytes) -> None:
        """Dispatch ``/v1/admin/models/<name>/{reload,canary,promote}``."""
        if not getattr(self.server, "admin_enabled", True):
            self._send_json(403, {"error": "the admin API is disabled on this "
                                           "server (started with admin=False / "
                                           "--no-admin)"})
            return
        prefix = "/v1/admin/models/"
        if not path.startswith(prefix):
            self._not_found()
            return
        name, _, verb = unquote(path[len(prefix):]).rpartition("/")
        verbs = {"POST": ("reload", "canary", "promote"), "DELETE": ("canary",)}
        if not name or verb not in verbs.get(method, ()):
            self._not_found(
                f"unknown admin operation {method} {path!r}; valid: "
                f"POST {prefix}<name>/{{reload,canary,promote}}, "
                f"DELETE {prefix}<name>/canary")
            return
        resolved = self._resolve_model(name)
        if not resolved:
            return
        name, model = resolved

        try:
            request = json.loads(body.decode("utf-8")) if body else {}
            if not isinstance(request, dict):
                raise ValueError("admin request body must be a JSON object")
        except (ValueError, json.JSONDecodeError, UnicodeDecodeError) as error:
            self._send_json(400, {"error": str(error)})
            return

        try:
            if method == "DELETE":
                result = model.clear_canary()
            elif verb == "reload":
                result = model.reload(bundle=request.get("bundle"),
                                      options=request.get("options"))
            elif verb == "canary":
                if "bundle" not in request:
                    raise ValueError('staging a canary requires a "bundle" '
                                     'key (the candidate bundle path)')
                result = model.set_canary(
                    request["bundle"],
                    percent=float(request.get("percent", 10.0)),
                    shadow=bool(request.get("shadow", False)),
                    options=request.get("options"))
            else:  # promote
                result = model.promote()
        except (ValueError, KeyError, FileNotFoundError, OSError) as error:
            self._send_json(400, {"error": str(error)})
            return
        except EngineClosed as error:
            self._send_json(503, {"error": str(error)})
            return
        except Exception as error:  # noqa: BLE001 — admin must not kill serving
            self._send_json(500, {"error": f"{type(error).__name__}: {error}"})
            return
        self._send_json(200, {"model": name, **result})


class PredictionServer(ThreadingHTTPServer):
    """Threading HTTP server owning one router and the request-timeout knob."""

    daemon_threads = True

    def __init__(self, address, router: ModelRouter, quiet: bool = False,
                 request_timeout: float | None = 30.0, admin: bool = True):
        super().__init__(address, PredictionHandler)
        self.router = router
        self.quiet = quiet
        self.request_timeout = request_timeout
        self.admin_enabled = bool(admin)
        self.start_monotonic = time.monotonic()

    @property
    def predictor(self):
        """The default model's predictor (back-compat with the PR 4 server)."""
        return self.router.default


def make_server(models, host: str = "127.0.0.1", port: int = 8000,
                quiet: bool = False, request_timeout: float | None = 30.0,
                admin: bool = True) -> PredictionServer:
    """Build (but do not start) the HTTP server around one or many models.

    ``models`` is a :class:`ModelRouter`, a ``{name: Predictor}`` mapping, or
    — the PR 4 signature, still supported — a single ``Predictor`` (mounted
    as the default model).  ``port=0`` binds an ephemeral port (read it back
    from ``server.server_address``), which is what the tests use.
    ``admin=False`` turns the ``/v1/admin`` control-plane routes off (403).
    """
    if isinstance(models, ModelRouter):
        router = models
    elif isinstance(models, dict):
        router = ModelRouter(models)
    else:  # a single predictor
        router = ModelRouter({"default": models})
    return PredictionServer((host, port), router, quiet=quiet,
                            request_timeout=request_timeout, admin=admin)


def _install_signal_handlers(server: PredictionServer):
    """SIGINT/SIGTERM → graceful ``server.shutdown()``; returns a restore fn.

    ``shutdown()`` must run off the serving thread, hence the helper thread.
    When not on the main thread (embedded/test use) signals cannot be
    installed; that's fine — the caller still drains via ``finally``.
    """
    def _handle(signum, frame):
        threading.Thread(target=server.shutdown, name="repro-serve-shutdown",
                         daemon=True).start()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _handle)
        except ValueError:  # not the main thread
            pass

    def restore():
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    return restore


def _check_engine_name(value, context: str) -> None:
    """Fail fast on a typoed engine name, enumerating the valid choices."""
    if value is None or isinstance(value, ServingEngine) or value in ENGINE_NAMES:
        return
    valid = ", ".join(repr(name) for name in ENGINE_NAMES)
    raise ValueError(f"unknown serving engine {value!r} for {context}; "
                     f"valid engines: {valid}")


def serve(bundle_path=None, host: str = "127.0.0.1", port: int = 8000,
          max_batch: int = 64, quiet: bool = False, models: dict | None = None,
          engine: str = "batched", max_wait_ms: float = 2.0,
          queue_size: int = 256, request_timeout: float | None = 30.0,
          default_model: str | None = None, ready=None,
          compile: bool = True, workers: int = 2,
          max_inflight: int | None = None, admin: bool = True) -> None:
    """Load bundles and serve them until interrupted (the CLI entry point).

    ``bundle_path`` (legacy single-model form) is mounted as ``default``;
    ``models`` maps additional names to bundle paths — or to dict specs
    (``{"path": ..., "engine": ..., "workers": ..., "max_batch": ...,
    "max_wait_ms": ..., "queue_size": ..., "max_inflight": ...}``)
    overriding the shared knobs per model, which is how one server mounts,
    say, a hot model on its own 4-worker pool next to a long-tail model on a
    direct engine.  Each model gets its own session and serving engine
    (``engine="batched"`` by default; ``"direct"`` for inline
    lock-and-forward; ``"pool"`` for the multi-process pool with ``workers``
    processes per model).  ``compile=True`` (default) turns on
    trace-and-replay compilation per session; loading warms each model,
    which traces and compiles its steady-state plan before the first
    request.  ``max_inflight`` caps concurrent requests *per model*
    (admission control: a saturated model sheds with 429 while the others
    keep serving); ``admin=False`` disables the ``/v1/admin`` control-plane
    routes.  SIGINT/SIGTERM shut down gracefully: the queue drains, queued
    futures fail with a clear error instead of hanging their clients, then
    the process exits.  ``ready``, if given, is called with the bound server
    before the serve loop starts (embedding/test hook).
    """
    from . import load

    specs: dict[str, object] = {}
    if bundle_path is not None:
        specs["default"] = bundle_path
    for name, spec in (models or {}).items():
        if name in specs:
            raise ValueError(
                f"model name {name!r} collides with the positional bundle "
                f"(mounted as 'default'); pick another --model name or drop "
                f"the positional argument")
        specs[name] = spec
    if not specs:
        raise ValueError("serve needs a bundle path or at least one "
                         "name=bundle model mapping")
    _check_engine_name(engine, "--engine")
    shared = {"max_batch": max_batch, "engine": engine, "workers": workers,
              "max_wait_ms": max_wait_ms, "queue_size": queue_size,
              "compile": compile}
    router = ModelRouter()
    engines = set()
    for name, spec in specs.items():
        options = dict(shared)
        model_max_inflight = max_inflight
        if isinstance(spec, dict):
            path = spec.get("path")
            if path is None:
                raise ValueError(f"model spec for {name!r} needs a 'path' key")
            unknown = set(spec) - {"path", "max_inflight", *shared}
            if unknown:
                raise ValueError(f"model spec for {name!r} has unknown "
                                 f"option(s) {sorted(unknown)}; valid: "
                                 f"{sorted([*shared, 'max_inflight'])}")
            options.update({key: value for key, value in spec.items()
                            if key not in ("path", "max_inflight")})
            model_max_inflight = spec.get("max_inflight", max_inflight)
        else:
            path = spec
        _check_engine_name(options["engine"], f"model {name!r}")
        engines.add(options["engine"])
        router.add(name, load(path, **options), source=str(path),
                   load_options=options, max_inflight=model_max_inflight)
    if default_model is not None:
        router.set_default(default_model)

    server = make_server(router, host=host, port=port, quiet=quiet,
                         request_timeout=request_timeout, admin=admin)
    restore_signals = _install_signal_handlers(server)
    bound_host, bound_port = server.server_address[:2]
    engine_label = "/".join(sorted(str(e) for e in engines))
    print(f"serving {len(router)} model(s) [{', '.join(router.names())}; "
          f"default: {router.default_name}] with the {engine_label} engine on "
          f"http://{bound_host}:{bound_port}")
    if not quiet:
        print(f"endpoints: {_ENDPOINTS}")
    if ready is not None:
        ready(server)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        restore_signals()
        print("draining: closing engines and failing queued requests...")
        router.close()
        server.server_close()
        print("serve shut down cleanly")
