import json
import os

import numpy as np
import pytest

from qkflow.cli import run_command
from qkflow.datasets import load_csv
from qkflow.model_io import evaluate_gram, kernel_from_json, load_model


def run(*argv):
    return run_command(list(argv))


def read_trace(path):
    rows = [line.split(",") for line in open(path).read().splitlines()]
    assert rows[0] == ["iteration", "loss_eval", "loss_best"]
    return np.array([[float(v) for v in row] for row in rows[1:]])


def test_gen_data_then_train_svc_writes_model(tmp_path, monkeypatch):
    """Default --out for train is model.json in the working directory."""
    monkeypatch.chdir(tmp_path)
    assert run("gen-data", "--kind", "blobs", "--m", "20", "--seed", "1", "--out", "d.csv") == 0
    assert run("train", "--method", "svc", "--kernel", "gaussian", "--data", "d.csv") == 0
    model = load_model("model.json")
    assert model.kind == "svc"
    assert model.pretraining is None


def test_gen_data_is_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("gen-data", "--kind", "circles", "--m", "14", "--seed", "9", "--out", str(a)) == 0
    assert run("gen-data", "--kind", "circles", "--m", "14", "--seed", "9", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_data_rejects_unknown_kind(tmp_path):
    rc = run("gen-data", "--kind", "spirals", "--m", "10", "--out", str(tmp_path / "x.csv"))
    assert rc == 1


def test_gen_data_too_small_is_a_data_error(tmp_path):
    rc = run("gen-data", "--kind", "blobs", "--m", "1", "--out", str(tmp_path / "x.csv"))
    assert rc == 2


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    rc = run("gen-data", "--kind", "blobs", "--m", "10", "--out", str(tmp_path / "x.csv"), "--frobnicate")
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_help_exits_zero():
    assert run("--help") == 0


def test_missing_data_file_is_exit_two(tmp_path, capsys):
    rc = run("train", "--method", "svc", "--kernel", "linear", "--data", str(tmp_path / "nope.csv"))
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_kernel_command_matches_library_gram(tmp_path):
    data = tmp_path / "d.csv"
    out = tmp_path / "K.csv"
    run("gen-data", "--kind", "blobs", "--m", "10", "--seed", "4", "--out", str(data))
    assert run("kernel", "--data", str(data), "--kernel", "gaussian", "--gamma", "0.5", "--out", str(out)) == 0
    K = np.loadtxt(out, delimiter=",")
    ds = load_csv(data)
    from qkflow.classical_kernels import ClassicalKernel, classical_gram

    expected = classical_gram(ClassicalKernel.gaussian_metric(gamma=0.5), ds.features).values
    assert np.array_equal(K, expected)


def test_kernel_cross_gram_shape(tmp_path):
    a, b, out = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "X.csv"
    run("gen-data", "--kind", "blobs", "--m", "8", "--seed", "1", "--out", str(a))
    run("gen-data", "--kind", "blobs", "--m", "6", "--seed", "2", "--out", str(b))
    assert run("kernel", "--data", str(a), "--data2", str(b), "--kernel", "linear", "--out", str(out)) == 0
    X = np.loadtxt(out, delimiter=",")
    assert X.shape == (6, 8)


def test_kernel_beyond_the_qubit_bound_is_exit_two(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run("gen-data", "--kind", "blobs", "--m", "4", "--seed", "1", "--out", str(data))
    rc = run("kernel", "--data", str(data), "--kernel", "quantum", "--qubits", "21",
             "--out", str(tmp_path / "K.csv"))
    assert rc == 2
    assert "1 to 20 qubits" in capsys.readouterr().err
    assert not (tmp_path / "K.csv").exists()


def test_align_writes_embedding_and_monotone_trace(tmp_path):
    data = tmp_path / "hr.csv"
    emb = tmp_path / "emb.json"
    run("gen-data", "--kind", "hidden_rotation", "--m", "16", "--seed", "7", "--out", str(data))
    rc = run("align", "--data", str(data), "--qubits", "1", "--layers", "1",
             "--spsa-iters", "8", "--seed", "7", "--out", str(emb))
    assert rc == 0
    model = load_model(emb)
    assert model.kind == "embedding"
    assert model.pretraining["task"] == "classification"
    trace = read_trace(tmp_path / "emb_trace.csv")
    assert trace.shape == (9, 3)
    best = trace[:, 2]
    assert np.all(np.diff(best) <= 0.0 + 1e-15)
    assert np.all(best <= trace[:, 1] + 1e-15)


def test_align_is_byte_identical_across_runs(tmp_path):
    data = tmp_path / "hr.csv"
    run("gen-data", "--kind", "hidden_rotation", "--m", "12", "--seed", "5", "--out", str(data))
    for name in ("e1.json", "e2.json"):
        rc = run("align", "--data", str(data), "--spsa-iters", "6", "--seed", "11",
                 "--out", str(tmp_path / name), "--trace-out", str(tmp_path / (name + ".csv")))
        assert rc == 0
    e1 = (tmp_path / "e1.json").read_bytes()
    e2 = (tmp_path / "e2.json").read_bytes()
    assert e1 == e2
    assert (tmp_path / "e1.json.csv").read_bytes() == (tmp_path / "e2.json.csv").read_bytes()


def test_two_stage_pipeline_reuses_lambda_verbatim(tmp_path):
    """train --embedding must consume lam_best without re-optimizing."""
    data = tmp_path / "hr.csv"
    emb = tmp_path / "emb.json"
    model_path = tmp_path / "m.json"
    run("gen-data", "--kind", "hidden_rotation", "--m", "14", "--seed", "3", "--out", str(data))
    run("align", "--data", str(data), "--spsa-iters", "6", "--seed", "3", "--out", str(emb))
    rc = run("train", "--method", "svc", "--embedding", str(emb), "--data", str(data),
             "--out", str(model_path))
    assert rc == 0
    emb_file = load_model(emb)
    model_file = load_model(model_path)
    assert model_file.kernel["params"] == emb_file.kernel["params"]
    assert model_file.pretraining == emb_file.pretraining
    ds = load_csv(data)
    K_emb = evaluate_gram(kernel_from_json(emb_file.kernel), ds.features).values
    K_model = evaluate_gram(kernel_from_json(model_file.kernel), ds.features).values
    assert np.max(np.abs(K_emb - K_model)) <= 1e-12


def test_predict_svc_reports_accuracy(tmp_path):
    data = tmp_path / "d.csv"
    model = tmp_path / "m.json"
    preds = tmp_path / "p.csv"
    metrics = tmp_path / "metrics.csv"
    run("gen-data", "--kind", "blobs", "--m", "20", "--seed", "2", "--out", str(data))
    run("train", "--method", "svc", "--kernel", "gaussian", "--data", str(data), "--out", str(model))
    rc = run("predict", "--model", str(model), "--data", str(data),
             "--out", str(preds), "--metrics-out", str(metrics))
    assert rc == 0
    lines = preds.read_text().splitlines()
    assert lines[0] == "prediction"
    assert len(lines) == 21
    header, values = metrics.read_text().splitlines()
    assert header == "accuracy"
    assert 0.0 <= float(values) <= 1.0


def test_predict_regression_reports_rmse_and_mae(tmp_path):
    data = tmp_path / "d.csv"
    model = tmp_path / "m.json"
    metrics = tmp_path / "metrics.csv"
    run("gen-data", "--kind", "blobs", "--m", "16", "--seed", "6", "--out", str(data))
    run("train", "--method", "krr", "--kernel", "gaussian", "--data", str(data),
        "--reg", "1e-8", "--out", str(model))
    rc = run("predict", "--model", str(model), "--data", str(data),
             "--out", str(tmp_path / "p.csv"), "--metrics-out", str(metrics))
    assert rc == 0
    header, values = metrics.read_text().splitlines()
    assert header == "rmse,mae"
    rmse, mae = (float(v) for v in values.split(","))
    assert rmse < 1e-3
    assert mae <= rmse


def test_predict_with_missing_data_is_exit_two(tmp_path):
    data = tmp_path / "d.csv"
    model = tmp_path / "m.json"
    run("gen-data", "--kind", "blobs", "--m", "10", "--seed", "1", "--out", str(data))
    run("train", "--method", "svc", "--kernel", "linear", "--data", str(data), "--out", str(model))
    assert run("predict", "--model", str(model), "--data", str(tmp_path / "missing.csv")) == 2


def test_predict_rejects_embedding_model(tmp_path, capsys):
    data = tmp_path / "hr.csv"
    emb = tmp_path / "emb.json"
    run("gen-data", "--kind", "hidden_rotation", "--m", "10", "--seed", "2", "--out", str(data))
    run("align", "--data", str(data), "--spsa-iters", "3", "--seed", "2", "--out", str(emb))
    rc = run("predict", "--model", str(emb), "--data", str(data), "--out", str(tmp_path / "p.csv"))
    assert rc == 2
    assert "embedding" in capsys.readouterr().err


def test_task_mismatch_warns_but_succeeds(tmp_path, capsys):
    data = tmp_path / "hr.csv"
    emb = tmp_path / "emb.json"
    run("gen-data", "--kind", "hidden_rotation", "--m", "10", "--seed", "4", "--out", str(data))
    run("align", "--data", str(data), "--spsa-iters", "3", "--seed", "4", "--out", str(emb))
    capsys.readouterr()
    rc = run("train", "--method", "krr", "--embedding", str(emb), "--data", str(data),
             "--out", str(tmp_path / "m.json"))
    assert rc == 0
    err = capsys.readouterr().err
    assert "warning" in err
    assert "classification" in err and "regression" in err
    capsys.readouterr()
    rc = run("train", "--method", "svc", "--embedding", str(emb), "--data", str(data),
             "--out", str(tmp_path / "m2.json"))
    assert rc == 0
    assert capsys.readouterr().err == ""
    # a task no method trains for never matches
    doc = json.loads(emb.read_text())
    doc["pretraining"]["task"] = "clustering"
    emb.write_text(json.dumps(doc))
    rc = run("train", "--method", "svc", "--embedding", str(emb), "--data", str(data),
             "--out", str(tmp_path / "m3.json"))
    assert rc == 0
    err = capsys.readouterr().err
    assert "warning" in err and "clustering" in err


def test_train_without_kernel_choice_is_usage_error(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run("gen-data", "--kind", "blobs", "--m", "10", "--seed", "1", "--out", str(data))
    assert run("train", "--method", "svc", "--data", str(data)) == 1
    assert "kernel" in capsys.readouterr().err


def test_train_is_byte_identical_across_runs(tmp_path):
    data = tmp_path / "d.csv"
    run("gen-data", "--kind", "blobs", "--m", "12", "--seed", "8", "--out", str(data))
    for name in ("m1.json", "m2.json"):
        rc = run("train", "--method", "svr", "--kernel", "gaussian", "--data", str(data),
                 "--epsilon", "0.2", "--out", str(tmp_path / name))
        assert rc == 0
    assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()


def test_normalize_is_recorded_and_applied_at_predict_time(tmp_path):
    data = tmp_path / "d.csv"
    model = tmp_path / "m.json"
    run("gen-data", "--kind", "blobs", "--m", "12", "--seed", "3", "--out", str(data))
    run("train", "--method", "svc", "--kernel", "exponential", "--normalize",
        "--data", str(data), "--out", str(model))
    payload = json.loads(model.read_text())["payload"]
    assert payload["normalize"] is True
    rc = run("predict", "--model", str(model), "--data", str(data), "--out", str(tmp_path / "p.csv"))
    assert rc == 0


def test_mlkrr_writes_model_matrix_and_trace(tmp_path):
    data = tmp_path / "d.csv"
    out = tmp_path / "mk.json"
    run("gen-data", "--kind", "blobs", "--m", "12", "--seed", "5", "--out", str(data))
    rc = run("mlkrr", "--data", str(data), "--rounds", "4", "--seed", "5",
             "--out", str(out), "--trace-out", str(tmp_path / "t.csv"))
    assert rc == 0
    model = load_model(out)
    assert model.kind == "krr"
    assert model.kernel["kind"] == "gaussian_metric"
    A = np.loadtxt(tmp_path / "mk_A.csv", delimiter=",")
    assert A.shape == (2, 2)
    trace = read_trace(tmp_path / "t.csv")
    assert trace.shape == (5, 3)
    assert np.all(np.diff(trace[:, 2]) <= 1e-15)
    assert run("predict", "--model", str(out), "--data", str(data),
               "--out", str(tmp_path / "p.csv")) == 0


def test_kpca_projections_shape_and_model_out(tmp_path):
    data = tmp_path / "d.csv"
    run("gen-data", "--kind", "circles", "--m", "14", "--seed", "2", "--out", str(data))
    rc = run("kpca", "--data", str(data), "--kernel", "gaussian", "--components", "3",
             "--out", str(tmp_path / "proj.csv"), "--model-out", str(tmp_path / "kp.json"))
    assert rc == 0
    P = np.loadtxt(tmp_path / "proj.csv", delimiter=",")
    assert P.shape == (14, 3)
    assert load_model(tmp_path / "kp.json").kind == "kpca"


def test_cluster_assignments_and_determinism(tmp_path):
    data = tmp_path / "d.csv"
    run("gen-data", "--kind", "blobs", "--m", "16", "--seed", "6", "--out", str(data))
    for name in ("a1.csv", "a2.csv"):
        rc = run("cluster", "--data", str(data), "--kernel", "gaussian", "--clusters", "2",
                 "--seed", "3", "--out", str(tmp_path / name))
        assert rc == 0
    assert (tmp_path / "a1.csv").read_bytes() == (tmp_path / "a2.csv").read_bytes()
    lines = (tmp_path / "a1.csv").read_text().splitlines()
    assert lines[0] == "cluster"
    labels = {int(v) for v in lines[1:]}
    assert labels == {0, 1}


def test_quantum_kernel_flags_round_trip(tmp_path):
    data = tmp_path / "d.csv"
    out = tmp_path / "K.csv"
    run("gen-data", "--kind", "hidden_rotation", "--m", "6", "--seed", "1", "--out", str(data))
    rc = run("kernel", "--data", str(data), "--kernel", "quantum", "--qubits", "1",
             "--layers", "2", "--params", "0.3,-0.4", "--out", str(out))
    assert rc == 0
    K = np.loadtxt(out, delimiter=",")
    assert np.allclose(np.diag(K), 1.0, atol=1e-12)
    assert K.min() >= -1e-12 and K.max() <= 1.0 + 1e-12


def test_quantum_params_length_mismatch_is_data_error(tmp_path):
    data = tmp_path / "d.csv"
    run("gen-data", "--kind", "hidden_rotation", "--m", "6", "--seed", "1", "--out", str(data))
    rc = run("kernel", "--data", str(data), "--kernel", "quantum", "--qubits", "1",
             "--layers", "2", "--params", "0.3", "--out", str(tmp_path / "K.csv"))
    assert rc == 2
