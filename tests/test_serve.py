"""Serving stack: inference sessions, the pipeline, the HTTP server, CLI verbs."""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro
from repro import cli
from repro.io import save_bundle
from repro.models import SimpleCNN
from repro.serve import InferenceSession, Pipeline, Predictor, make_server, softmax, top_k
from repro.tensor import Tensor, graph_nodes_created


def _tiny_model(seed: int = 3) -> SimpleCNN:
    return SimpleCNN(num_classes=4, neuron_type="proposed", rank=2, base_width=4,
                     image_size=8, seed=seed)


def _inputs(count: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((count, 3, 8, 8)) \
        .astype(np.float32)


@pytest.fixture
def bundle_path(tmp_path):
    return save_bundle(tmp_path / "model.npz", _tiny_model(),
                       info={"normalization": {"mean": 0.25, "std": 2.0},
                             "classes": ["cat", "dog", "ship", "truck"],
                             "input_shape": [3, 8, 8]})


class TestInferenceSession:
    def test_matches_direct_eval_forward(self):
        model = _tiny_model()
        x = _inputs(5)
        expected = model.eval()(Tensor(x)).data
        session = InferenceSession(model, max_batch=16)
        np.testing.assert_array_equal(session.predict(x), expected)

    def test_micro_batching_covers_all_samples(self):
        model = _tiny_model()
        x = _inputs(7)
        full = InferenceSession(model, max_batch=64).predict(x)
        chunked = InferenceSession(model, max_batch=3).predict(x)
        assert chunked.shape == full.shape == (7, 4)
        # Chunk boundaries may shift BLAS blocking; results agree to float
        # tolerance and classifications agree exactly.
        np.testing.assert_allclose(chunked, full, atol=1e-5)
        np.testing.assert_array_equal(chunked.argmax(-1), full.argmax(-1))

    def test_zero_graph_construction(self):
        session = InferenceSession(_tiny_model(), max_batch=4)
        x = _inputs(6)
        session.predict(x)  # first call may warm caches
        before = graph_nodes_created()
        session.predict(x)
        assert graph_nodes_created() == before

    def test_strict_mode_catches_graph_building_models(self):
        import repro.tensor.engine as engine

        class Sneaky(SimpleCNN):
            """Re-enables gradients inside forward, as a buggy model might."""

            def forward(self, x):
                engine._state.grad_enabled = True
                return super().forward(x)

        model = Sneaky(num_classes=4, neuron_type="linear", base_width=4,
                       image_size=8, seed=0)
        session = InferenceSession(model, max_batch=4)
        try:
            with pytest.raises(RuntimeError, match="graph"):
                session.predict(_inputs(2))
        finally:
            engine._state.grad_enabled = True  # restore for the rest of the suite

    def test_loads_bundle_path_directly(self, bundle_path):
        session = InferenceSession(bundle_path)
        assert session.bundle is not None
        assert session.predict(_inputs(2)).shape == (2, 4)

    def test_warm_populates_caches_and_reports(self, bundle_path):
        session = InferenceSession(bundle_path, max_batch=8)
        assert session.warm() is True
        assert InferenceSession(_tiny_model()).warm() is False  # no shape known

    def test_batched_input_required(self):
        session = InferenceSession(_tiny_model())
        with pytest.raises(ValueError, match="batched"):
            session.predict(np.zeros(8, dtype=np.float32))

    def test_serving_stats_accumulate(self):
        session = InferenceSession(_tiny_model(), max_batch=2)
        session.predict(_inputs(5))
        assert session.samples_served == 5
        assert session.batches_served == 3  # ceil(5 / 2)


class TestPipeline:
    def test_softmax_rows_sum_to_one(self):
        logits = np.array([[1.0, 2.0, 3.0], [1000.0, 1000.0, -1000.0]])
        probabilities = softmax(logits)
        np.testing.assert_allclose(probabilities.sum(-1), [1.0, 1.0])
        assert np.isfinite(probabilities).all()

    def test_top_k_sorted_and_deterministic_on_ties(self):
        indices, values = top_k(np.array([[0.2, 0.5, 0.2, 0.1]]), 3)
        assert indices[0].tolist() == [1, 0, 2]  # tie 0.2/0.2 → ascending index
        np.testing.assert_allclose(values[0], [0.5, 0.2, 0.2])

    def test_top_k_clamped_to_num_classes(self):
        indices, _ = top_k(np.array([[0.6, 0.4]]), 99)
        assert indices.shape == (1, 2)

    def test_normalization_applied_from_bundle(self, bundle_path):
        bundle = repro.load_bundle(bundle_path)
        predictor = Predictor.from_bundle(bundle)
        raw = _inputs(3)
        normalized = (raw - np.float32(0.25)) / np.float32(2.0)
        np.testing.assert_array_equal(
            predictor.predict_logits(raw),
            predictor.predict_logits(normalized, normalize=False))

    def test_single_sample_promoted_to_batch(self, bundle_path):
        predictor = repro.load(bundle_path, warm=False)
        records = predictor.predict_topk(_inputs(1)[0], k=2)
        assert len(records) == 1
        assert records[0]["label"] in ("cat", "dog", "ship", "truck")
        assert len(records[0]["top_k"]) == 2

    def test_wrong_shape_rejected(self, bundle_path):
        predictor = repro.load(bundle_path, warm=False)
        with pytest.raises(ValueError, match="does not match"):
            predictor.predict(np.zeros((2, 3, 5, 5), dtype=np.float32))

    def test_pipeline_without_metadata_passes_through(self):
        session = InferenceSession(_tiny_model())
        pipeline = Pipeline(session)
        records = pipeline.predict(_inputs(2), k=1)
        assert [r["label"].startswith("class_") for r in records] == [True, True]


class TestTopLevelAPI:
    def test_repro_load_predict(self, bundle_path):
        predictor = repro.load(bundle_path)
        classes = predictor.predict(_inputs(4))
        assert classes.shape == (4,)
        assert set(classes) <= {0, 1, 2, 3}
        probabilities = predictor.predict_proba(_inputs(4))
        np.testing.assert_allclose(probabilities.sum(-1), np.ones(4))

    def test_describe_reports_model_and_shape(self, bundle_path):
        info = repro.load(bundle_path, warm=False).describe()
        assert info["model"] == "simple_cnn"
        assert info["input_shape"] == [3, 8, 8]
        assert info["num_classes"] == 4
        assert info["parameters"] > 0


@pytest.fixture
def http_server(bundle_path):
    predictor = repro.load(bundle_path, warm=False)
    server = make_server(predictor, port=0, quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", predictor
    server.shutdown()
    server.server_close()


def _post_json(url: str, payload: dict) -> dict:
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, data=body,
                                     headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.load(response)


class TestHTTP:
    def test_healthz(self, http_server):
        base, _ = http_server
        with urllib.request.urlopen(f"{base}/healthz", timeout=30) as response:
            payload = json.load(response)
        assert payload["status"] == "ok"
        assert payload["model"] == "simple_cnn"
        assert payload["input_shape"] == [3, 8, 8]

    def test_predict_matches_in_process_answer(self, http_server):
        base, predictor = http_server
        inputs = _inputs(3)
        response = _post_json(f"{base}/predict",
                              {"inputs": inputs.tolist(), "top_k": 2})
        assert response["count"] == 3
        http_classes = [record["class_index"] for record in response["predictions"]]
        assert http_classes == predictor.predict(inputs).tolist()
        assert all(len(record["top_k"]) == 2 for record in response["predictions"])

    def test_concurrent_requests_share_one_session_safely(self, http_server):
        base, predictor = http_server
        inputs = _inputs(2)
        expected = predictor.predict(inputs).tolist()
        results, errors = [], []

        def hit():
            try:
                response = _post_json(f"{base}/predict", {"inputs": inputs.tolist()})
                results.append([r["class_index"] for r in response["predictions"]])
            except Exception as error:  # noqa: BLE001 — collected for assertion
                errors.append(error)

        threads = [threading.Thread(target=hit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert results == [expected] * 8

    @pytest.mark.parametrize("body,fragment", [
        (b"{not json", "Expecting"),
        (b"{}", "inputs"),
        (b"[1, 2, 3]", "inputs"),
    ])
    def test_malformed_requests_get_400(self, http_server, body, fragment):
        base, _ = http_server
        request = urllib.request.Request(f"{base}/predict", data=body)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert fragment in json.load(excinfo.value)["error"]

    def test_wrong_shape_gets_400(self, http_server):
        base, _ = http_server
        request = urllib.request.Request(
            f"{base}/predict",
            data=json.dumps({"inputs": [[1.0, 2.0]]}).encode())
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert "does not match" in json.load(excinfo.value)["error"]

    def test_unknown_path_gets_404(self, http_server):
        base, _ = http_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base}/nope", timeout=30)
        assert excinfo.value.code == 404

    def test_keep_alive_connection_survives_error_responses(self, http_server):
        """Error paths must drain the request body, or the unread bytes
        poison the next request on the same keep-alive connection."""
        import http.client

        base, predictor = http_server
        host, port = base.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            # 404 with a body left behind would corrupt the next request.
            connection.request("POST", "/nope", body=b'{"inputs": [1, 2, 3]}')
            response = connection.getresponse()
            assert response.status == 404 and response.read()
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
            # A 400 (bad JSON) must equally leave the connection clean.
            connection.request("POST", "/predict", body=b"{broken")
            response = connection.getresponse()
            assert response.status == 400 and response.read()
            inputs = _inputs(1)
            connection.request("POST", "/predict",
                               body=json.dumps({"inputs": inputs.tolist()}).encode())
            response = connection.getresponse()
            assert response.status == 200
            payload = json.loads(response.read())
            assert payload["predictions"][0]["class_index"] == \
                predictor.predict(inputs).tolist()[0]
        finally:
            connection.close()


class TestCLI:
    def test_predict_with_random_inputs(self, capsys, bundle_path, tmp_path):
        output = tmp_path / "predictions.json"
        assert cli.main(["predict", str(bundle_path), "--random", "3",
                         "--top-k", "2", "--output", str(output)]) == 0
        document = json.loads(output.read_text())
        assert document["count"] == 3
        assert document["model"] == "simple_cnn"
        assert len(document["predictions"][0]["top_k"]) == 2
        assert json.loads(capsys.readouterr().out) == document

    def test_predict_from_npy_matches_api(self, capsys, bundle_path, tmp_path):
        inputs = _inputs(2, seed=9)
        npy = tmp_path / "inputs.npy"
        np.save(npy, inputs)
        assert cli.main(["predict", str(bundle_path), "--input", str(npy)]) == 0
        document = json.loads(capsys.readouterr().out)
        expected = repro.load(bundle_path, warm=False).predict(inputs).tolist()
        assert [p["class_index"] for p in document["predictions"]] == expected

    def test_predict_seeded_random_is_reproducible(self, capsys, bundle_path):
        assert cli.main(["predict", str(bundle_path), "--random", "2",
                         "--seed", "4"]) == 0
        first = capsys.readouterr().out
        assert cli.main(["predict", str(bundle_path), "--random", "2",
                         "--seed", "4"]) == 0
        assert capsys.readouterr().out == first

    def test_predict_missing_bundle_fails_cleanly(self, capsys, tmp_path):
        assert cli.main(["predict", str(tmp_path / "missing.npz"),
                         "--random", "1"]) == 1
        assert "error" in capsys.readouterr().err
