"""ProcessPoolEngine: multi-process serving, worker death, determinism."""

import json
import os
import signal
import threading
import urllib.request

import numpy as np
import pytest

import repro
from repro import cli
from repro.io import save_bundle
from repro.models import SimpleCNN
from repro.parallel.worker import DEPTH_ENV
from repro.serve import (
    DirectEngine,
    EngineClosed,
    EngineError,
    InferenceSession,
    ProcessPoolEngine,
    make_engine,
    make_server,
)

INFO = {"normalization": {"mean": 0.0, "std": 1.0},
        "classes": ["cat", "dog", "ship", "truck"],
        "input_shape": [3, 8, 8]}


def _tiny_model(seed: int = 3) -> SimpleCNN:
    return SimpleCNN(num_classes=4, neuron_type="proposed", rank=2, base_width=4,
                     image_size=8, seed=seed)


def _inputs(count: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((count, 3, 8, 8)) \
        .astype(np.float32)


@pytest.fixture(scope="module")
def bundle_path(tmp_path_factory):
    return save_bundle(tmp_path_factory.mktemp("pool-bundle") / "model.npz",
                       _tiny_model(), info=INFO)


@pytest.fixture(scope="module")
def pool(bundle_path):
    """One shared 2-worker pool — spawning costs ~1 s, so tests share it.

    Tests may kill its workers (the engine respawns them) but must leave it
    serving; anything that closes an engine builds its own.
    """
    engine = ProcessPoolEngine(InferenceSession(bundle_path, max_batch=8),
                               workers=2, max_wait_ms=1.0)
    yield engine
    engine.close()


class TestPoolPredictions:
    def test_byte_identical_to_direct_engine(self, pool, bundle_path):
        direct = DirectEngine(InferenceSession(bundle_path, max_batch=8))
        for seed in range(3):
            inputs = _inputs(6, seed=seed)
            np.testing.assert_array_equal(pool.predict(inputs, timeout=60),
                                          direct.predict(inputs))

    def test_coalesces_concurrent_single_row_requests(self, pool):
        before = pool.stats()
        futures = [pool.submit(_inputs(1, seed=index)) for index in range(16)]
        for future in futures:
            assert future.result(timeout=60).shape == (1, 4)
        after = pool.stats()
        assert after["samples"] - before["samples"] == 16
        # The scheduler fused at least some of the burst (max_batch=8 rows).
        assert after["batches"] - before["batches"] < 16

    def test_oversized_request_is_chunked_by_the_worker_session(self, pool,
                                                                bundle_path):
        inputs = _inputs(19, seed=7)  # > max_batch=8: worker micro-batches
        direct = DirectEngine(InferenceSession(bundle_path, max_batch=8))
        np.testing.assert_array_equal(pool.predict(inputs, timeout=60),
                                      direct.predict(inputs))

    def test_parent_validates_batch_dimension(self, pool):
        with pytest.raises(ValueError, match="batched array"):
            pool.submit(np.zeros(3, dtype=np.float32))

    def test_remote_model_error_reports_worker_traceback(self, pool):
        bad = np.zeros((2, 5, 8, 8), dtype=np.float32)  # wrong channel count
        before = pool.stats()["restarts"]
        with pytest.raises(RuntimeError, match="worker traceback"):
            pool.predict(bad, timeout=60)
        # A model error is the request's fault: the worker survives, no retry.
        assert pool.stats()["restarts"] == before
        assert pool.predict(_inputs(2), timeout=60).shape == (2, 4)


class TestWorkerIdentity:
    def test_workers_record_depth_and_clamped_jobs(self, pool):
        stats = pool.stats()
        assert stats["engine"] == "pool"
        assert stats["workers"] == 2
        assert len(stats["per_worker"]) == 2
        for worker in stats["per_worker"]:
            assert worker["depth"] == 1  # REPRO_PARALLEL_DEPTH was exported
            assert worker["effective_jobs"] == 1  # nested fan-out is clamped
        pids = {worker["pid"] for worker in stats["per_worker"]}
        assert len(pids) == 2 and os.getpid() not in pids

    def test_workers_seeded_distinctly_and_deterministically(self, pool):
        from repro.parallel.seeding import derive_seed

        seeds = [worker["seed"] for worker in pool.stats()["per_worker"]]
        assert seeds == [derive_seed(0, "serve-pool", 0),
                         derive_seed(0, "serve-pool", 1)]

    def test_nested_pool_refused_inside_parallel_worker(self, bundle_path,
                                                        monkeypatch):
        monkeypatch.setenv(DEPTH_ENV, "1")
        with pytest.raises(EngineError, match="nested pools"):
            ProcessPoolEngine(InferenceSession(bundle_path, max_batch=8))

    def test_pool_requires_a_bundle_backed_session(self):
        with pytest.raises(EngineError, match="bundles loaded from disk"):
            ProcessPoolEngine(InferenceSession(_tiny_model(), max_batch=8))


class TestWorkerDeath:
    def test_sigkill_retries_once_on_a_respawned_worker(self, pool, bundle_path):
        direct = DirectEngine(InferenceSession(bundle_path, max_batch=8))
        before = pool.stats()["restarts"]
        victims = {worker.process.pid for worker in pool._workers}
        for worker in pool._workers:
            os.kill(worker.process.pid, signal.SIGKILL)
        # Every worker is dead; each shard hits the isolate-and-retry path:
        # broken pipe -> respawn -> the batch retried once on the fresh
        # worker succeeds, so clients never observe the crash.
        for seed in (11, 12, 13):
            result = pool.predict(_inputs(4, seed=seed), timeout=60)
            np.testing.assert_allclose(result,
                                       direct.predict(_inputs(4, seed=seed)),
                                       rtol=1e-5, atol=1e-6)
        stats = pool.stats()
        assert stats["restarts"] > before
        live = {worker.process.pid for worker in pool._workers if worker.alive}
        assert live and live.isdisjoint(victims)

    def test_unrespawnable_worker_fails_futures_with_engine_error(self, tmp_path):
        bundle = save_bundle(tmp_path / "doomed.npz", _tiny_model(), info=INFO)
        engine = ProcessPoolEngine(InferenceSession(bundle, max_batch=8),
                                   workers=1, max_wait_ms=0.0)
        try:
            os.kill(engine._workers[0].process.pid, signal.SIGKILL)
            os.unlink(bundle)  # the respawn attempt cannot reload the model
            with pytest.raises(EngineError, match="could not be respawned"):
                engine.predict(_inputs(2), timeout=60)
        finally:
            engine.close()
        with pytest.raises(EngineClosed):
            engine.submit(_inputs(1))


class TestPoolShutdown:
    def test_close_fails_queued_futures_with_engine_closed(self, bundle_path):
        engine = ProcessPoolEngine(InferenceSession(bundle_path, max_batch=8),
                                   workers=1, max_wait_ms=0.0, autostart=False)
        futures = [engine.submit(_inputs(2, seed=index)) for index in range(5)]
        engine.close(timeout=10)
        for future in futures:  # failed loudly, never stranded
            with pytest.raises(EngineClosed, match="shutting down"):
                future.result(timeout=10)

    def test_close_during_in_flight_batches_resolves_every_future(self,
                                                                  bundle_path):
        engine = ProcessPoolEngine(InferenceSession(bundle_path, max_batch=4),
                                   workers=1, max_wait_ms=0.0, autostart=False)
        futures = [engine.submit(_inputs(4, seed=index)) for index in range(8)]
        engine.start()  # the scheduler races close() over the backlog
        engine.close(timeout=10)
        outcomes = {"ok": 0, "closed": 0}
        for future in futures:
            try:
                assert future.result(timeout=10).shape == (4, 4)
                outcomes["ok"] += 1
            except EngineClosed:
                outcomes["closed"] += 1
        assert sum(outcomes.values()) == len(futures)
        assert engine.stats()["closed"] is True
        with pytest.raises(EngineClosed):
            engine.submit(_inputs(1))

    def test_close_is_idempotent_and_terminates_workers(self, bundle_path):
        engine = ProcessPoolEngine(InferenceSession(bundle_path, max_batch=8),
                                   workers=1)
        process = engine._workers[0].process
        engine.close()
        engine.close()
        assert process is None or not process.is_alive()
        assert all(not worker.alive for worker in engine._workers)


class TestPoolWiring:
    def test_make_engine_builds_a_pool(self, bundle_path):
        engine = make_engine("pool", InferenceSession(bundle_path, max_batch=8),
                             workers=1, max_wait_ms=1.0)
        try:
            assert isinstance(engine, ProcessPoolEngine)
            assert engine.workers == 1
            assert engine.predict(_inputs(2), timeout=60).shape == (2, 4)
        finally:
            engine.close()

    def test_repro_load_pool_roundtrip_with_warm_workers(self, bundle_path):
        with repro.load(bundle_path, engine="pool", workers=1, max_batch=8,
                        warm=True) as predictor:
            direct = repro.load(bundle_path, engine="direct", max_batch=8,
                                warm=False)
            inputs = _inputs(5, seed=2)
            np.testing.assert_array_equal(predictor.predict(inputs),
                                          direct.predict(inputs))
            stats = predictor.stats()
            assert stats["engine"] == "pool"
            # warm=True warmed every worker's own plan cache, and the
            # aggregated counters (not the parent's idle session) surface.
            assert stats["plan_cache"]["plans"] >= 1
            assert stats["per_worker"][0]["plan_cache"]["plans"] >= 1

    def test_http_server_over_a_pool_predictor(self, bundle_path):
        predictor = repro.load(bundle_path, engine="pool", workers=1,
                               max_batch=8, warm=False)
        direct = repro.load(bundle_path, engine="direct", max_batch=8,
                            warm=False)
        server = make_server({"pooled": predictor}, port=0, quiet=True)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            inputs = _inputs(3, seed=4)
            request = urllib.request.Request(
                f"http://{host}:{port}/v1/models/pooled/predict",
                data=json.dumps({"inputs": inputs.tolist()}).encode(),
                headers={"Content-Type": "application/json"})
            response = json.load(urllib.request.urlopen(request, timeout=60))
            assert [record["class_index"] for record in response["predictions"]] \
                == direct.predict(inputs).tolist()
            stats = json.load(urllib.request.urlopen(
                f"http://{host}:{port}/v1/stats", timeout=60))["models"]["pooled"]
            assert stats["engine"] == "pool"
            assert stats["restarts"] == 0
            assert stats["requests"] >= 1
        finally:
            server.shutdown()
            thread.join(10)
            server.server_close()
            predictor.close()

    def test_serve_mounts_models_on_separate_pools(self, bundle_path):
        """ModelRouter placement: one model on a pool, one on batched."""
        from repro.serve.http import serve

        captured = {}
        done = threading.Event()

        def run():
            serve(models={"hot": {"path": bundle_path, "engine": "pool",
                                  "workers": 1},
                          "cold": bundle_path},
                  port=0, quiet=True, engine="batched", max_wait_ms=1.0,
                  ready=lambda server: captured.update(server=server))
            done.set()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        for _ in range(200):
            if "server" in captured:
                break
            done.wait(0.05)
        server = captured["server"]
        host, port = server.server_address[:2]
        payload = json.load(urllib.request.urlopen(
            f"http://{host}:{port}/v1/models", timeout=60))
        engines = {model["name"]: model["engine"] for model in payload["models"]}
        assert engines == {"hot": "pool", "cold": "batched"}
        server.shutdown()
        assert done.wait(15)

    def test_serve_rejects_unknown_model_spec_options(self):
        from repro.serve.http import serve

        with pytest.raises(ValueError, match="unknown"):
            serve(models={"m": {"path": "x.npz", "turbo": True}})

    def test_serve_model_spec_requires_a_path(self):
        from repro.serve.http import serve

        with pytest.raises(ValueError, match="'path'"):
            serve(models={"m": {"engine": "pool"}})


class TestCLIPoolParsing:
    def _capture_serve(self, monkeypatch):
        import repro.serve.http as http

        captured = {}

        def fake_serve(bundle_path=None, **kwargs):
            captured.update(kwargs, bundle_path=bundle_path)

        monkeypatch.setattr(http, "serve", fake_serve)
        return captured

    def test_engine_pool_and_workers_flags(self, monkeypatch):
        captured = self._capture_serve(monkeypatch)
        assert cli.main(["serve", "model.npz", "--engine", "pool",
                         "--workers", "3"]) == 0
        assert captured["engine"] == "pool"
        assert captured["workers"] == 3
        assert captured["bundle_path"] == "model.npz"

    def test_per_model_engine_and_worker_overrides(self, monkeypatch):
        captured = self._capture_serve(monkeypatch)
        assert cli.main(["serve", "--model", "hot=a.npz",
                         "--model", "cold=b.npz",
                         "--model-engine", "hot=pool",
                         "--model-workers", "hot=4"]) == 0
        assert captured["models"] == {
            "hot": {"path": "a.npz", "engine": "pool", "workers": 4},
            "cold": "b.npz"}

    def test_override_wraps_the_positional_bundle_as_default(self, monkeypatch):
        captured = self._capture_serve(monkeypatch)
        assert cli.main(["serve", "model.npz",
                         "--model-engine", "default=pool"]) == 0
        assert captured["bundle_path"] is None
        assert captured["models"] == {"default": {"path": "model.npz",
                                                  "engine": "pool"}}
        assert captured["default_model"] == "default"

    def test_override_naming_unmounted_model_rejected(self, capsys):
        assert cli.main(["serve", "--model", "a=x.npz",
                         "--model-engine", "b=pool"]) == 1
        assert "unmounted" in capsys.readouterr().err


class TestBenchPool:
    def test_pool_benchmark_shape_and_gate(self):
        from repro import bench

        result = bench.pool_benchmarks(rounds=1, warmup=0, clients=2,
                                       requests_per_client=2,
                                       rows_per_request=4, worker_counts=(1,))
        assert result["worker_counts"] == [1]
        assert result["batched"]["rows_per_second"] > 0
        assert result["workers"]["1"]["rows_per_second"] > 0
        assert "speedup" in result
        summary = {"serving": {"pool": result}}
        assert bench.check_gates(summary, {"pool": 0.0001}) == []
        assert bench.check_gates(summary, {"pool": 10_000.0})
        assert bench.check_gates({"serving": {}}, {"pool": 1.0}) == \
            ["pool benchmark missing from the summary"]

    def test_pool_scaling_curve_lands_under_serving(self):
        from repro.bench import build_summary

        summary = build_summary({}, {"serving": {"speedup": 4.0},
                                     "pool": {"speedup": 1.5,
                                              "worker_counts": [1]}},
                                scale="smoke", started=0.0)
        assert summary["serving"]["pool"]["speedup"] == 1.5
        assert summary["serving"]["speedup"] == 4.0
