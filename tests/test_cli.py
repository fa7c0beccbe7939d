import importlib.util
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import qkflow
from oracles import one_layer_gram_oracle
from qkflow.classical_kernels import ClassicalKernel
from qkflow.cli import _kernel_choice, _training_gram, build_parser, run_command
from qkflow.datasets import load_csv, normalize_unit_sphere
from qkflow.featuremap import FeatureMapSpec
from qkflow.kernel_methods import SMO_GAP, SUPPORT_THRESHOLD, svc_fit
from qkflow.model_io import (
    MODEL_KINDS,
    evaluate_cross,
    evaluate_gram,
    kernel_from_json,
    load_model,
    model_from_payload,
)
from qkflow.qkernel import KernelEngineConfig
from qkflow.training import MlkrrConfig, SpsaConfig


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


@pytest.mark.parametrize("kind, flag, value, name", [
    ("hidden_rotation", "--theta-star", "inf", "theta_star"),
    ("hidden_rotation", "--theta-star", "nan", "theta_star"),
    ("blobs", "--spread", "-1", "spread"),
    ("blobs", "--spread", "inf", "spread"),
    ("circles", "--inner-radius", "inf", "inner_radius"),
])
def test_gen_data_refuses_parameters_it_cannot_use(tmp_path, capsys, kind, flag, value, name):
    out = tmp_path / "x.csv"
    assert run("gen-data", "--kind", kind, "--m", "10", "--out", str(out), flag, value) == 2
    assert capsys.readouterr().err.startswith(f"error: {name} must be ")
    assert not out.exists()


def test_a_header_that_names_a_column_twice_is_a_data_error(tmp_path, capsys):
    """Else the second `label` column would be read as a feature."""
    data = tmp_path / "d.csv"
    data.write_text("f0,label,label\n0.5,1,1\n0.2,-1,-1\n0.9,1,1\n", encoding="utf-8")
    assert run("train", "--method", "svc", "--kernel", "linear", "--data", str(data),
               "--out", str(tmp_path / "m.json")) == 2
    assert "column 'label' appears more than once" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


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


def test_kernel_normalizes_data2_like_data(tmp_path):
    a, b, out = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "X.csv"
    run("gen-data", "--kind", "blobs", "--m", "8", "--seed", "1", "--out", str(a))
    run("gen-data", "--kind", "blobs", "--m", "6", "--seed", "2", "--out", str(b))
    assert run("kernel", "--data", str(a), "--data2", str(b), "--kernel", "exponential",
               "--normalize", "--out", str(out)) == 0
    from qkflow.classical_kernels import ClassicalKernel, classical_cross

    expected = classical_cross(ClassicalKernel.exponential(),
                               normalize_unit_sphere(load_csv(b)).features,
                               normalize_unit_sphere(load_csv(a)).features)
    assert np.array_equal(np.loadtxt(out, delimiter=","), expected)


@pytest.mark.parametrize("kernel", [("exponential", "--sigma"), ("gaussian", "--gamma")],
                         ids=["sigma", "gamma"])
def test_kernel_rejects_a_non_finite_width(tmp_path, capsys, kernel):
    data = tmp_path / "d.csv"
    run("gen-data", "--kind", "blobs", "--m", "6", "--seed", "1", "--out", str(data))
    capsys.readouterr()
    rc = run("kernel", "--data", str(data), "--kernel", kernel[0], kernel[1], "inf",
             "--normalize", "--out", str(tmp_path / "K.csv"))
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {kernel[1][2:]} must be positive and finite, got inf\n"
    assert not (tmp_path / "K.csv").exists()


def test_kernel_refuses_an_overflowing_polynomial(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run("gen-data", "--kind", "blobs", "--m", "6", "--seed", "1", "--out", str(data))
    capsys.readouterr()
    rc = run("kernel", "--data", str(data), "--kernel", "polynomial", "--c", "1e200",
             "--degree", "3", "--out", str(tmp_path / "K.csv"))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: polynomial kernel overflows") and err.count("\n") == 1
    assert not (tmp_path / "K.csv").exists()


# Finite but huge features overflow the column sums of the classical kernels.
# pyproject turns a numpy RuntimeWarning into an error in these tests.


def huge_feature_csv(tmp_path):
    data = tmp_path / "huge.csv"
    data.write_text("x0,x1,label\n1e200,1.0,1\n0.5,2.0,-1\n-3.0,1.0,1\n")
    return data


@pytest.mark.parametrize("kernel,message", [
    (("linear",), "linear kernel overflows: x . x' + 0 is not a finite float; "
                  "rescale the features"),
    (("polynomial", "--degree", "2"),
     "polynomial kernel overflows: (x . x' + 0) ** 2 is not a finite float; "
     "rescale the features or lower the offset c or the degree"),
    (("exponential",), "exponential kernel needs x . x' <= 1; "
                       "normalize the data to the unit sphere first"),
], ids=["linear", "polynomial", "exponential"])
def test_kernel_refuses_huge_features_with_one_message(tmp_path, capsys, kernel, message):
    rc = run("kernel", "--data", str(huge_feature_csv(tmp_path)), "--kernel", *kernel,
             "--out", str(tmp_path / "K.csv"))
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "K.csv").exists()


@pytest.mark.parametrize("row", ["1e200,1.0", "1e-200,0"], ids=["overflow", "underflow"])
def test_normalize_a_row_whose_squared_norm_leaves_the_float_range(tmp_path, capsys, row):
    """The squared norm of (1e200, 1) overflows and that of (1e-200, 0)
    underflows to 0; both rows still scale to unit norm."""
    data, out = tmp_path / "d.csv", tmp_path / "K.csv"
    data.write_text(f"x0,x1,label\n{row},1\n0.0,2.0,-1\n-3.0,0.0,1\n")
    rc = run("kernel", "--data", str(data), "--kernel", "exponential", "--normalize",
             "--out", str(out))
    assert rc == 0 and capsys.readouterr().err == ""
    np.testing.assert_array_equal(np.diag(np.loadtxt(out, delimiter=",")), 1.0)


def test_gaussian_kernel_of_huge_features_is_the_rounded_zero(tmp_path, capsys):
    out = tmp_path / "K.csv"
    rc = run("kernel", "--data", str(huge_feature_csv(tmp_path)), "--kernel", "gaussian",
             "--out", str(out))
    assert rc == 0 and capsys.readouterr().err == ""
    K = np.loadtxt(out, delimiter=",")
    near = math.exp(-(3.5**2 + 1.0**2))
    np.testing.assert_array_equal(K, [[1.0, 0.0, 0.0], [0.0, 1.0, near], [0.0, near, 1.0]])


@pytest.mark.parametrize("method", ["svc", "svr"])
def test_train_refuses_an_infinite_C(tmp_path, capsys, method):
    data, model = tmp_path / "d.csv", tmp_path / "m.json"
    run("gen-data", "--kind", "circles", "--m", "20", "--seed", "1", "--out", str(data))
    capsys.readouterr()
    rc = run("train", "--method", method, "--kernel", "linear", "--C", "inf",
             "--data", str(data), "--out", str(model))
    assert rc == 2
    assert capsys.readouterr().err == "error: C must be positive and finite, got inf\n"
    assert not model.exists()


def test_mlkrr_refuses_an_infinite_learning_rate(tmp_path, capsys):
    """mlkrr has no step flag: MLKRR_STEP and the warm start set the step, so
    any --lr, finite or not, is a usage error and nothing is written."""
    data, model = tmp_path / "d.csv", tmp_path / "m.json"
    run("gen-data", "--kind", "circles", "--m", "20", "--seed", "1", "--out", str(data))
    for lr in ("inf", "0.1"):
        capsys.readouterr()
        rc = run("mlkrr", "--data", str(data), "--rounds", "3", "--lr", lr, "--out", str(model))
        assert rc == 1
        assert capsys.readouterr().err.startswith("usage error: unrecognized arguments: --lr ")
        assert not model.exists()


@pytest.mark.parametrize("kernel, message", [
    (("--kernel", "quantum"), "--shots needs --mode shots"),
    # a kernel that reads neither flag is not sent to --mode shots, which it refuses too
    (("--kernel", "linear"), "--kernel linear does not read --shots"),
], ids=["quantum", "linear"])
def test_shots_without_shots_mode_is_usage_error(tmp_path, capsys, kernel, message):
    data, model = tmp_path / "d.csv", tmp_path / "m.json"
    run("gen-data", "--kind", "blobs", "--m", "6", "--seed", "1", "--out", str(data))
    capsys.readouterr()
    assert run("train", "--method", "svc", *kernel, "--shots", "10",
               "--data", str(data), "--out", str(model)) == 1
    assert message in capsys.readouterr().err
    assert not model.exists()


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


def small_embedding(tmp_path):
    data, emb = tmp_path / "hr.csv", tmp_path / "emb.json"
    assert run("gen-data", "--kind", "hidden_rotation", "--m", "10", "--seed", "4",
               "--out", str(data)) == 0
    assert run("align", "--data", str(data), "--spsa-iters", "2", "--seed", "4",
               "--out", str(emb)) == 0
    return data, emb


def test_an_embedding_takes_the_measurement_flags(tmp_path):
    data, emb = small_embedding(tmp_path)
    model = tmp_path / "m.json"
    assert run("train", "--method", "svc", "--embedding", str(emb), "--data", str(data),
               "--mode", "shots", "--shots", "50", "--circuit", "swap", "--seed", "3",
               "--out", str(model)) == 0
    measured = {"mode": "shots", "shots": 50, "circuit_kind": "swap", "seed": 3}
    assert load_model(model).kernel == {**load_model(emb).kernel, **measured}


@pytest.mark.parametrize("flags", [("--kernel", "quantum"), ("--kernel", "linear"),
                                   ("--params", "0.5")])
def test_an_embedding_with_kernel_or_params_is_a_usage_error(tmp_path, capsys, flags):
    data, emb = small_embedding(tmp_path)
    capsys.readouterr()
    assert run("train", "--method", "svc", "--embedding", str(emb), *flags,
               "--data", str(data), "--out", str(tmp_path / "m.json")) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: --embedding ") and flags[0] in err
    assert not (tmp_path / "m.json").exists()


# each kernel flag with a value every choice that reads it accepts
KERNEL_FLAG_VALUES = {
    "--c": ("--c", "0.5"),
    "--degree": ("--degree", "3"),
    "--sigma": ("--sigma", "0.5"),
    "--gamma": ("--gamma", "0.5"),
    "--qubits": ("--qubits", "2"),
    "--layers": ("--layers", "2"),
    "--data-axis": ("--data-axis", "ry"),
    "--trainable-axis": ("--trainable-axis", "rx"),
    "--entanglement": ("--entanglement", "ring"),
    "--data-scaling": ("--data-scaling", "0.5"),
    "--params": ("--params", "0.3"),
    "--mode": ("--mode", "exact"),
    "--shots": ("--mode", "shots", "--shots", "10"),
    "--circuit": ("--circuit", "swap"),
}
MEASUREMENT_FLAGS = {"--mode", "--shots", "--circuit"}
KERNEL_CHOICE_READS = {
    "linear": {"--c"},
    "polynomial": {"--c", "--degree"},
    "exponential": {"--sigma"},
    "gaussian": {"--gamma"},
    "quantum": {"--qubits", "--layers", "--data-axis", "--trainable-axis", "--entanglement",
                "--data-scaling", "--params"} | MEASUREMENT_FLAGS,
    "embedding": MEASUREMENT_FLAGS,
}


@pytest.fixture(scope="module")
def flag_check_inputs(tmp_path_factory):
    """Normalized 2-feature points and a one-qubit embedding trained on them."""
    work = tmp_path_factory.mktemp("flags")
    data, emb = work / "d.csv", work / "emb.json"
    assert run("gen-data", "--kind", "blobs", "--m", "6", "--seed", "1", "--out", str(data)) == 0
    assert run("align", "--data", str(data), "--spsa-iters", "1", "--out", str(emb)) == 0
    return data, emb


@pytest.mark.parametrize("flag", KERNEL_FLAG_VALUES)
@pytest.mark.parametrize("choice", KERNEL_CHOICE_READS)
def test_a_kernel_flag_the_choice_does_not_read_is_a_usage_error(
        tmp_path, capsys, flag_check_inputs, choice, flag):
    data, emb = flag_check_inputs
    kernel = ("--embedding", str(emb)) if choice == "embedding" else ("--kernel", choice)
    out = tmp_path / "K.csv"
    capsys.readouterr()
    rc = run("kernel", "--data", str(data), "--normalize", *kernel, *KERNEL_FLAG_VALUES[flag],
             "--out", str(out))
    err = capsys.readouterr().err
    if flag in KERNEL_CHOICE_READS[choice]:
        assert (rc, err) == (0, "")
        assert out.exists()
    else:
        assert rc == 1
        chosen = "--embedding" if choice == "embedding" else f"--kernel {choice}"
        assert err.startswith(f"usage error: {chosen} does not read ")
        assert flag in err.splitlines()[0].split(" does not read ")[1].split(", ")
        assert not out.exists()


@pytest.mark.parametrize("argv, classes", [
    (("kernel", "--out", "K.csv"), (ClassicalKernel, FeatureMapSpec, KernelEngineConfig)),
    (("train", "--method", "svc"), (ClassicalKernel, FeatureMapSpec, KernelEngineConfig)),
    (("kpca", "--out", "P.csv"), (ClassicalKernel, FeatureMapSpec, KernelEngineConfig)),
    (("cluster", "--out", "C.csv"), (ClassicalKernel, FeatureMapSpec, KernelEngineConfig)),
    (("align", "--out", "e.json"), (FeatureMapSpec, SpsaConfig)),
    (("mlkrr", "--out", "m.json"), (MlkrrConfig,)),
], ids=["kernel", "train", "kpca", "cluster", "align", "mlkrr"])
def test_every_flag_bound_to_a_dataclass_field_defaults_to_none(argv, classes):
    """The dataclass defaults are the only defaults. Each field a command sets
    has a flag stored under the field's name, and an unset flag is None. The
    exceptions are fields the command fixes itself: the kernel kind, the
    feature map and angles, and the seed, which is the command's own --seed."""
    args = vars(build_parser().parse_args([*argv, "--data", "d.csv"]))
    fixed = {"kind", "transform", "spec", "seed"}
    bound = {f.name for cls in classes for f in fields(cls)} - fixed
    assert bound <= args.keys()
    assert {name: args[name] for name in bound} == dict.fromkeys(bound)


@pytest.mark.parametrize("params", ["1,x", "", "0.5,,1"])
def test_malformed_params_is_a_data_error_that_names_the_flag(tmp_path, capsys, params):
    data, out = tmp_path / "d.csv", tmp_path / "K.csv"
    run("gen-data", "--kind", "hidden_rotation", "--m", "6", "--seed", "1", "--out", str(data))
    capsys.readouterr()
    rc = run("kernel", "--data", str(data), "--kernel", "quantum", "--params", params,
             "--out", str(out))
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: --params must be comma-separated numbers, got {params!r}\n")
    assert not out.exists()


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


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_align_rejects_a_non_finite_gain(tmp_path, capsys, value):
    data, emb = tmp_path / "hr.csv", tmp_path / "emb.json"
    run("gen-data", "--kind", "hidden_rotation", "--m", "8", "--seed", "2", "--out", str(data))
    capsys.readouterr()
    rc = run("align", "--data", str(data), "--spsa-iters", "2", "--a0", value, "--out", str(emb))
    assert rc == 2
    assert capsys.readouterr().err == f"error: a0 must be positive and finite, got {value}\n"
    assert not emb.exists()


@pytest.mark.parametrize("flag", ["--c0", "--stability"])
def test_align_has_no_flag_for_the_fixed_spsa_constants(tmp_path, capsys, flag):
    """The perturbation size and the stability offset are SPSA_C0 and
    SPSA_A_STAB, not options."""
    emb = tmp_path / "emb.json"
    rc = run("align", "--data", str(tmp_path / "hr.csv"), flag, "0.2", "--out", str(emb))
    assert rc == 1
    assert f"unrecognized arguments: {flag} 0.2" in capsys.readouterr().err
    assert not emb.exists()


@pytest.mark.parametrize("flags, message", [
    (("--data-axis", "rz", "--trainable-axis", "p", "--qubits", "2", "--layers", "2"),
     "2-layer map with data axis rz, trainable axis p and entanglement linear_chain"),
    (("--data-axis", "rx", "--trainable-axis", "rx", "--qubits", "3", "--layers", "3",
      "--entanglement", "ring"),
     "3-layer map with data axis rx, trainable axis rx and entanglement ring"),
    (("--data-axis", "ry", "--trainable-axis", "rz", "--qubits", "2", "--layers", "1"),
     "1-layer map with data axis ry, trainable axis rz and entanglement linear_chain"),
    (("--data-axis", "ry", "--trainable-axis", "ry", "--qubits", "3", "--layers", "2",
      "--entanglement", "none"),
     "2-layer map with data axis ry, trainable axis ry and entanglement none"),
], ids=["z-data-z-or-p-angles", "x-data-x-angles", "one-layer", "product-map-same-axis"])
def test_align_refuses_a_map_whose_kernel_no_angle_moves(tmp_path, capsys, flags, message):
    """Aligning such a map would run SPSA on a flat loss and save its start."""
    data, emb = tmp_path / "b.csv", tmp_path / "emb.json"
    run("gen-data", "--kind", "blobs", "--m", "12", "--seed", "1", "--out", str(data))
    capsys.readouterr()
    rc = run("align", "--data", str(data), *flags, "--spsa-iters", "2", "--out", str(emb))
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: no trainable angle moves the kernel of a {message}: there is nothing to align\n")
    assert not emb.exists()
    # the other commands still take the map
    assert run("kernel", "--data", str(data), "--kernel", "quantum", *flags,
               "--out", str(tmp_path / "K.csv")) == 0


def test_predict_rejects_embedding_model(tmp_path, capsys):
    data = tmp_path / "hr.csv"
    emb = tmp_path / "emb.json"
    run("gen-data", "--kind", "hidden_rotation", "--m", "10", "--seed", "2", "--out", str(data))
    run("align", "--data", str(data), "--spsa-iters", "3", "--seed", "2", "--out", str(emb))
    rc = run("predict", "--model", str(emb), "--data", str(data), "--out", str(tmp_path / "p.csv"))
    assert rc == 2
    assert "embedding" in capsys.readouterr().err


@pytest.fixture(scope="module")
def svc_model_files(tmp_path_factory):
    """A dataset plus one svc model file per kernel family (linear, quantum)."""
    root = tmp_path_factory.mktemp("svc_models")
    data = root / "d.csv"
    assert run("gen-data", "--kind", "blobs", "--m", "10", "--seed", "1", "--out", str(data)) == 0
    for kernel in ("linear", "quantum"):
        assert run("train", "--method", "svc", "--kernel", kernel, "--data", str(data),
                   "--out", str(root / f"{kernel}.json")) == 0
    return root


def predict_in_a_process(doc, data, tmp_path):
    """Run `predict` on model document `doc` in a fresh interpreter and check
    that it is a data error (exit 2) with no traceback and no predictions."""
    model, out = tmp_path / "m.json", tmp_path / "p.csv"
    model.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(Path(qkflow.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", "from qkflow.cli import main; main()", "predict",
         "--model", str(model), "--data", str(data), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")
    assert not out.exists()
    return proc


@pytest.mark.parametrize("value", [None, [1.0]], ids=["null", "list"])
@pytest.mark.parametrize("kernel, keys", [
    ("linear", ("kernel", "c")),
    ("linear", ("seed",)),
    ("linear", ("payload", "bias")),
    ("quantum", ("kernel", "n_qubits")),
], ids=["kernel.c", "seed", "payload.bias", "kernel.n_qubits"])
def test_predict_rejects_wrong_typed_model_field(svc_model_files, tmp_path, kernel, keys, value):
    """A model-file field of the wrong JSON type is a data error (exit 2) that
    names the field, not a traceback."""
    doc = json.loads((svc_model_files / f"{kernel}.json").read_text())
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    proc = predict_in_a_process(doc, svc_model_files / "d.csv", tmp_path)
    assert repr(keys[-1]) in proc.stderr


@pytest.mark.parametrize("shape", ["flat", "nested"])
def test_predict_rejects_train_features_that_are_not_a_matrix(svc_model_files, tmp_path, shape):
    """train_features with one number per point, or nested one level deeper,
    is a data error that names the field."""
    doc = json.loads((svc_model_files / "linear.json").read_text())
    rows = doc["payload"]["train_features"]
    doc["payload"]["train_features"] = [row[0] for row in rows] if shape == "flat" else [rows]
    proc = predict_in_a_process(doc, svc_model_files / "d.csv", tmp_path)
    assert proc.stderr.startswith("error: train_features: ")


@pytest.mark.parametrize("command", ["predict", "train"])
def test_kernel_params_nested_one_level_are_a_data_error(svc_model_files, tmp_path, capsys,
                                                         command):
    """A model file (read by predict) or an embedding file (read by train
    --embedding) whose kernel params are nested one level, [[a]], is refused
    by the one parameter-vector rule, naming params, and nothing is written."""
    data, nested, out = svc_model_files / "d.csv", tmp_path / "nested.json", tmp_path / "out"
    if command == "predict":
        source = svc_model_files / "quantum.json"
        args = ("predict", "--model", str(nested))
    else:
        source = tmp_path / "emb.json"
        assert run("align", "--data", str(data), "--spsa-iters", "1", "--out", str(source)) == 0
        args = ("train", "--method", "svc", "--embedding", str(nested))
    doc = json.loads(source.read_text())
    doc["kernel"]["params"] = [doc["kernel"]["params"]]
    nested.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(*args, "--data", str(data), "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        "error: params must be a finite flat parameter vector of length 1, got shape (1, 1)\n")
    assert not out.exists()


@pytest.fixture(scope="module")
def fitted_model_files(tmp_path_factory):
    """A dataset plus one model file per method, each fitted on it."""
    root = tmp_path_factory.mktemp("fitted_models")
    data = root / "d.csv"
    assert run("gen-data", "--kind", "blobs", "--m", "10", "--seed", "1", "--out", str(data)) == 0
    for method in ("svc", "svr", "krr"):
        assert run("train", "--method", method, "--kernel", "linear", "--data", str(data),
                   "--out", str(root / f"{method}.json")) == 0
    return root


@pytest.mark.parametrize("method, key, value", [
    ("svc", "labels", [0.5] * 10),
    ("svc", "labels", [1.0] * 10),
    ("svc", "C", -1.0),
    ("svc", "C", 0.0),
    ("svc", "alphas", [-5.0] * 10),
    ("svr", "C", -1.0),
    ("svr", "epsilon", -1.0),
    ("svr", "coef", [1e9] * 10),
    ("krr", "reg", -1.0),
], ids=["svc-labels-half", "svc-labels-one-class", "svc-C-negative", "svc-C-zero",
        "svc-alphas-negative", "svr-C-negative", "svr-epsilon-negative", "svr-coef-past-C",
        "krr-reg-negative"])
def test_predict_refuses_a_model_that_no_fit_returns(fitted_model_files, tmp_path, capsys,
                                                     method, key, value):
    """A loaded model is checked by its fit's own rules (labels +-1 with both
    classes, 0 < C < inf, 0 <= alphas <= C, |coef| <= C, epsilon >= 0,
    reg >= 0): a data error, exit 2, that names the field."""
    doc = json.loads((fitted_model_files / f"{method}.json").read_text())
    doc["payload"][key] = value
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = run("predict", "--model", str(model), "--data", str(fitted_model_files / "d.csv"),
             "--out", str(tmp_path / "p.csv"))
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {key} must ")
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("keys", [("kernel", "c"), ("seed",), ("payload", "bias"),
                                  ("payload", "alphas")],
                         ids=["kernel.c", "seed", "payload.bias", "payload.alphas"])
def test_predict_refuses_a_boolean_for_a_number(svc_model_files, tmp_path, capsys, keys):
    """JSON true is not the number 1, although Python's bool is an int."""
    doc = json.loads((svc_model_files / "linear.json").read_text())
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = [True] * len(parent[keys[-1]]) if keys[-1] == "alphas" else True
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = run("predict", "--model", str(model), "--data", str(svc_model_files / "d.csv"),
             "--out", str(tmp_path / "p.csv"))
    assert rc == 2
    assert f"model file field {keys[-1]!r} must be" in capsys.readouterr().err


def test_a_quantum_model_refuses_a_boolean_qubit_count(svc_model_files, tmp_path, capsys):
    doc = json.loads((svc_model_files / "quantum.json").read_text())
    doc["kernel"]["n_qubits"] = True
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = run("predict", "--model", str(model), "--data", str(svc_model_files / "d.csv"),
             "--out", str(tmp_path / "p.csv"))
    assert rc == 2
    assert "model file field 'n_qubits' must be an integer, got True" in capsys.readouterr().err


def test_predict_rejects_a_kpca_model_file(svc_model_files, tmp_path, capsys):
    doc = json.loads((svc_model_files / "linear.json").read_text())
    doc["kind"] = "kpca"
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    rc = run("predict", "--model", str(model), "--data", str(svc_model_files / "d.csv"),
             "--out", str(tmp_path / "p.csv"))
    assert rc == 2
    assert "got 'kpca'" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def test_predict_rejects_a_quantum_model_without_params(svc_model_files, tmp_path, capsys):
    doc = json.loads((svc_model_files / "quantum.json").read_text())
    doc["kernel"]["params"] = None
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    rc = run("predict", "--model", str(model), "--data", str(svc_model_files / "d.csv"),
             "--out", str(tmp_path / "p.csv"))
    assert rc == 2
    assert "model file field 'params' must be a list" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("literal", ["NaN", "1e400"])
def test_predict_rejects_non_finite_model_number(tmp_path, capsys, literal):
    """JSON reads NaN as nan and 1e400 as inf; neither may reach a prediction."""
    data = tmp_path / "d.csv"
    model = tmp_path / "m.json"
    run("gen-data", "--kind", "blobs", "--m", "12", "--seed", "3", "--out", str(data))
    assert run("train", "--method", "svr", "--kernel", "linear", "--data", str(data),
               "--out", str(model)) == 0
    doc = json.loads(model.read_text())
    doc["payload"]["bias"] = "BIAS"
    model.write_text(json.dumps(doc).replace('"BIAS"', literal))
    capsys.readouterr()
    rc = run("predict", "--model", str(model), "--data", str(data), "--out", str(tmp_path / "p.csv"))
    assert rc == 2
    assert "model file field 'bias' must be a number" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


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


SHOT_KERNEL = ("--kernel", "quantum", "--qubits", "2", "--mode", "shots", "--shots", "100")


@pytest.mark.parametrize("method", ["svc", "svr", "krr"])
def test_svc_svr_and_krr_train_on_a_shot_gram(tmp_path, method):
    """A shot Gram draws each pair once, so it is symmetric; its negative
    eigenvalues are clipped, so krr's Cholesky takes it too."""
    data, model, preds = tmp_path / "d.csv", tmp_path / "m.json", tmp_path / "p.csv"
    assert run("gen-data", "--kind", "blobs", "--m", "20", "--seed", "1", "--out", str(data)) == 0
    assert run("train", "--method", method, *SHOT_KERNEL, "--C", "10",
               "--data", str(data), "--out", str(model)) == 0
    assert load_model(model).kind == method
    assert run("predict", "--model", str(model), "--data", str(data), "--out", str(preds)) == 0


@pytest.mark.parametrize("command, flags, lines", [
    ("kpca", (), 20),  # one row of projections per point
    ("cluster", ("--clusters", "3"), 21),  # a header, then one id per point
])
def test_kpca_and_cluster_run_on_a_shot_gram(tmp_path, command, flags, lines):
    data, out = tmp_path / "d.csv", tmp_path / "out.csv"
    assert run("gen-data", "--kind", "blobs", "--m", "20", "--seed", "1", "--out", str(data)) == 0
    assert run(command, *SHOT_KERNEL, *flags, "--data", str(data), "--out", str(out)) == 0
    assert len(out.read_text().splitlines()) == lines


def test_only_a_shot_quantum_gram_is_clipped_for_fitting(tmp_path):
    """`kernel` writes the raw sampled Gram, which has negative eigenvalues;
    the Gram a fit reads is its PSD part, symmetric to the bit. Every other
    Gram reaches the fit as evaluate_gram returns it."""
    data, K_csv = tmp_path / "d.csv", tmp_path / "K.csv"
    assert run("gen-data", "--kind", "blobs", "--m", "20", "--seed", "1", "--out", str(data)) == 0
    assert run("kernel", *SHOT_KERNEL, "--data", str(data), "--out", str(K_csv)) == 0
    raw = np.loadtxt(K_csv, delimiter=",")
    features = load_csv(data).features
    shots = KernelEngineConfig(FeatureMapSpec(n_qubits=2), np.zeros(2), mode="shots", shots=100)
    np.testing.assert_array_equal(evaluate_gram(shots, features).values, raw)
    assert np.linalg.eigvalsh(raw)[0] < -0.1
    fitted = _training_gram(shots, features).values
    np.testing.assert_array_equal(fitted, fitted.T)
    assert np.linalg.eigvalsh(fitted)[0] > -1e-12
    for kernel in (replace(shots, mode="exact", shots=None), ClassicalKernel.gaussian_metric(0.5)):
        np.testing.assert_array_equal(_training_gram(kernel, features).values,
                                      evaluate_gram(kernel, features).values)


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


def test_kpca_projections_shape_and_model_out(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run("gen-data", "--kind", "circles", "--m", "14", "--seed", "2", "--out", str(data))
    flags = ("kpca", "--data", str(data), "--kernel", "gaussian", "--components", "3",
             "--out", str(tmp_path / "proj.csv"))
    assert run(*flags) == 0
    P = np.loadtxt(tmp_path / "proj.csv", delimiter=",")
    assert P.shape == (14, 3)
    # no command reads a kpca model, so kpca writes none
    capsys.readouterr()
    assert run(*flags, "--model-out", str(tmp_path / "kp.json")) == 1
    assert "--model-out" in capsys.readouterr().err
    assert not (tmp_path / "kp.json").exists()


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


COLD_START = """
import sys
import numpy as np
import qkflow
import qkflow.cli
from qkflow.cli import run_command


def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


qkflow.cli.build_parser()
assert not scipy_modules(), scipy_modules()
model = qkflow.krr_fit(np.eye(2), [1.0, 2.0], reg=0.0)
assert np.allclose(model.alphas, [1.0, 2.0])
kernel = qkflow.ClassicalKernel.gaussian_metric(gamma=0.5)
block = qkflow.classical_cross(kernel, [[0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]])
assert np.allclose(block, [[1.0, np.exp(-1.0)]])
commands = [
    "gen-data --kind circles --m 12 --seed 1 --out d.csv",
    "kernel --data d.csv --kernel gaussian --out K.csv",
    "align --data d.csv --spsa-iters 3 --seed 2 --out emb.json",
    "train --method svc --embedding emb.json --data d.csv --out svc.json",
    "train --method krr --kernel gaussian --data d.csv --out krr.json",
    "train --method svr --kernel gaussian --data d.csv --out svr.json",
    "mlkrr --data d.csv --rounds 3 --out mlkrr.json",
    "predict --model svc.json --data d.csv --out svc.csv",
    "predict --model krr.json --data d.csv --out krr.csv",
    "predict --model mlkrr.json --data d.csv --out mlkrr.csv",
    "kpca --data d.csv --kernel gaussian --out kpca.csv",
    "cluster --data d.csv --kernel gaussian --out cluster.csv",
]
for command in commands:
    assert run_command(command.split()) == 0, command
assert not scipy_modules(), scipy_modules()
"""


def test_import_and_parser_load_no_scipy(tmp_path):
    """A fresh interpreter imports qkflow, builds the CLI parser and runs
    every command without loading scipy."""
    env = dict(os.environ, PYTHONPATH=str(Path(qkflow.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", COLD_START], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_python_dash_m_runs_the_cli(tmp_path):
    """`python -m qkflow.cli` runs the command line, exit codes included."""
    env = dict(os.environ, PYTHONPATH=str(Path(qkflow.__file__).resolve().parents[1]))

    def module_run(*argv):
        return subprocess.run([sys.executable, "-m", "qkflow.cli", *argv], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)

    proc = module_run("gen-data", "--kind", "blobs", "--m", "10", "--seed", "1", "--out", "d.csv")
    assert proc.returncode == 0, proc.stderr
    assert load_csv(tmp_path / "d.csv").n_points == 10
    proc = module_run("train", "--method", "svc", "--kernel", "linear",
                      "--data", "missing.csv", "--out", "m.json")
    assert proc.returncode == 2
    assert "error" in proc.stderr
    assert not (tmp_path / "m.json").exists()


README_SEED = 7
README_LOSS_BEST = 40.280843  # the README `align` result, pinned to the same bound by perfbench


def load_benchmark_module(monkeypatch, name):
    """perfbench/<name>.py, loaded without writing bytecode next to it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_readme_pin_matches_the_benchmark_copy(monkeypatch):
    """perfbench/workloads.py holds the same pin; a re-derived value changes both."""
    workloads = load_benchmark_module(monkeypatch, "workloads")
    assert (workloads.README_SEED, workloads.README_LOSS_BEST) == (README_SEED, README_LOSS_BEST)


def test_the_benchmark_reads_what_the_library_returns(tmp_path, monkeypatch):
    """perfbench/tracer.py counts kernel entries from a Gram's `.values`, support
    vectors from svc_fit's `.support_indices` and objective evaluations from
    qka_align's `sv_counts`; the `shots` workload's reference reads `.values`."""
    tracer = load_benchmark_module(monkeypatch, "tracer").Tracer()
    data = tmp_path / "d.csv"
    assert run("gen-data", "--kind", "hidden_rotation", "--m", "12", "--seed", "1",
               "--out", str(data)) == 0
    tracer.install()
    try:
        codes = [
            run("kernel", "--kernel", "quantum", "--data", str(data),
                "--out", str(tmp_path / "K.csv")),
            run("train", "--method", "svc", "--kernel", "quantum", "--data", str(data),
                "--out", str(tmp_path / "m.json")),
            run("align", "--spsa-iters", "2", "--data", str(data),
                "--out", str(tmp_path / "e.json")),
        ]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0]
    for counter in ("qkernel.entries", "kernel_methods.svc_fit.support_vectors",
                    "training.objective_evals"):
        assert tracer.counts[counter] > 0, counter
    shots = load_benchmark_module(monkeypatch, "workloads").Shots(tmp_path, 1)
    for step in shots.prepare():
        assert run(*step.argv) == 0
    shots.reference()  # raises unless the exact Gram is symmetric with a unit diagonal
    assert shots.exact_gram.shape == (shots.M, shots.M)


def test_every_benchmark_command_parses_and_passes_the_kernel_flag_check(tmp_path, monkeypatch):
    """A stricter flag rule must not refuse a command the benchmark runs."""
    workloads = load_benchmark_module(monkeypatch, "workloads")
    parser = build_parser()
    selections = 0
    for seed in (7, 8):
        for workload in workloads.WORKLOADS.values():
            bench = workload(tmp_path, seed)
            for step in (*bench.prepare(), *bench.steps(), *bench.probes()):
                args = parser.parse_args(step.argv)
                if args.command in ("kernel", "train", "kpca", "cluster"):
                    _kernel_choice(args)
                    selections += 1
    assert selections > 0


# perfbench/tracer.py rows that name functions the library no longer has; the
# tracer skips such a row without a word and its per-layer metric reads 0
STALE_HOOKS = {
    ("qkflow.qkernel", "apply_circuit"),
    ("qkflow.qkernel", "sample_measurements"),
    ("qkflow.qkernel", "build_encoding_circuit"),
    ("qkflow.cli", "svc_predict"),
    ("qkflow.cli", "krr_predict"),
    ("qkflow.cli", "svr_predict"),
}


def test_every_other_benchmark_hook_resolves(monkeypatch):
    """A refactor of what `cli`, `training` or `model_io` import must keep
    every name the tracer wraps, or the benchmark loses that layer."""
    hooks = load_benchmark_module(monkeypatch, "tracer").HOOKS
    live = [(module, attr) for _, module, attr, _ in hooks if (module, attr) not in STALE_HOOKS]
    assert len(live) >= 12
    assert [row for row in live if not hasattr(importlib.import_module(row[0]), row[1])] == []


def test_readme_align_reaches_the_pinned_loss(tmp_path):
    data, emb = tmp_path / "pretrain.csv", tmp_path / "embedding.json"
    assert run("gen-data", "--kind", "hidden_rotation", "--m", "40", "--seed", str(README_SEED),
               "--out", str(data)) == 0
    assert run("align", "--data", str(data), "--qubits", "1", "--layers", "1",
               "--spsa-iters", "100", "--C", "10", "--seed", str(README_SEED),
               "--out", str(emb)) == 0
    loss_best = load_model(emb).pretraining["loss_best"]
    assert abs(loss_best - README_LOSS_BEST) <= 5e-7

    # The default map is RX(x) RY(lambda)|0>, whose kernel is
    # 1 - c sin^2((x - x')/2) with c = cos^2(lambda). Under sum(alpha y) = 0
    # the dual value is sum(alpha) - (c/4) (alpha y)' [cos(x_i - x_j)] (alpha y),
    # and that matrix is PSD, so the loss falls as c grows: c = 1 is the
    # global optimum, whatever path SPSA takes. SMO stops within SMO_GAP of it.
    ds = load_csv(data)
    optimum = svc_fit(one_layer_gram_oracle(FeatureMapSpec(1, 1), np.zeros(1), ds.features),
                      ds.labels, 10.0).dual_objective
    print(f"loss_best {loss_best:.9f}, optimum {optimum:.9f}, gap {loss_best - optimum:.3e}")
    assert loss_best >= optimum - SMO_GAP


# predict evaluates the kernel only against training points with a nonzero weight

PREDICT_KERNELS = {
    "linear": ("--kernel", "linear", "--c", "0.5"),
    "polynomial": ("--kernel", "polynomial", "--c", "1", "--degree", "3"),
    "exponential": ("--kernel", "exponential", "--sigma", "2", "--normalize"),
    "gaussian": ("--kernel", "gaussian", "--gamma", "0.7"),
    "quantum_inversion": ("--kernel", "quantum", "--qubits", "2", "--layers", "2",
                          "--params", "0.3,-0.8,1.1,0.2"),
    "quantum_swap": ("--kernel", "quantum", "--qubits", "2", "--layers", "1",
                     "--circuit", "swap", "--params", "0.4,-1.3"),
}


def train_and_predict(root, method, kernel_flags, data="circles", shuffle=False):
    train, test = root / "train.csv", root / "test.csv"
    model, preds = root / f"{method}.json", root / f"{method}.csv"
    assert run("gen-data", "--kind", data, "--m", "24", "--seed", "5", "--out", str(train)) == 0
    if shuffle:
        header, *rows = train.read_bytes().splitlines(keepends=True)
        order = np.random.default_rng(0).permutation(len(rows))
        train.write_bytes(header + b"".join(rows[i] for i in order))
    assert run("gen-data", "--kind", data, "--m", "9", "--seed", "6", "--out", str(test)) == 0
    assert run("train", "--method", method, *kernel_flags, "--data", str(train),
               "--C", "2", "--epsilon", "0.3", "--out", str(model)) == 0
    assert run("predict", "--model", str(model), "--data", str(test), "--out", str(preds)) == 0
    return load_model(model), load_csv(test), np.loadtxt(preds, skiprows=1, ndmin=1)


@pytest.mark.parametrize("method", ["svc", "krr", "svr"])
@pytest.mark.parametrize("kernel", sorted(PREDICT_KERNELS))
def test_predict_matches_the_full_cross_gram_bit_for_bit(tmp_path, method, kernel):
    model_file, test, predictions = train_and_predict(tmp_path, method, PREDICT_KERNELS[kernel])
    kind = MODEL_KINDS[model_file.kind]
    model, train_features, normalize = model_from_payload(model_file.kind, model_file.payload)
    if normalize:
        test = normalize_unit_sphere(test)
    K_full = evaluate_cross(kernel_from_json(model_file.kernel), test.features, train_features)
    expected = kind.predict(model, K_full)
    assert predictions.tobytes() == expected.tobytes()


# Measured over 12 training sets of 24 points (circles, blobs and
# hidden_rotation, 4 seeds each) and both quantum kernels: no SVC label
# changed, KRR predictions moved by at most 1.9e-9 and SVR predictions by at
# most 2.4e-6, within a few SMO_GAP.
SHUFFLE_ATOL = {"svc": 0.0, "krr": 1e-8, "svr": 10 * SMO_GAP}


@pytest.mark.parametrize("method", ["svc", "krr", "svr"])
@pytest.mark.parametrize("kernel", ["quantum_inversion", "quantum_swap"])
def test_shuffling_the_training_rows_keeps_the_predictions(tmp_path, method, kernel):
    """The Gram of shuffled rows is the permuted Gram up to rounding, so SMO
    may take another path to the same optimum."""
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    _, _, predictions = train_and_predict(tmp_path / "a", method, PREDICT_KERNELS[kernel])
    _, _, shuffled = train_and_predict(tmp_path / "b", method, PREDICT_KERNELS[kernel], shuffle=True)
    assert (tmp_path / "a" / "train.csv").read_bytes() != (tmp_path / "b" / "train.csv").read_bytes()
    np.testing.assert_allclose(shuffled, predictions, rtol=0.0, atol=SHUFFLE_ATOL[method])


@pytest.mark.parametrize("kernel", sorted(PREDICT_KERNELS))
@pytest.mark.parametrize("method, field", [("svc", "alphas"), ("svr", "coef")])
def test_predict_evaluates_only_nonzero_weight_training_points(tmp_path, monkeypatch,
                                                               method, field, kernel):
    seen = []

    def recording_cross(kernel, data_new, data_train):
        seen.append(np.array(data_train))
        return evaluate_cross(kernel, data_new, data_train)

    monkeypatch.setattr(qkflow.cli, "evaluate_cross", recording_cross)
    # on hidden_rotation every kernel leaves some weights at 0
    model_file, _, _ = train_and_predict(tmp_path, method, PREDICT_KERNELS[kernel], "hidden_rotation")
    weights = np.asarray(model_file.payload[field])
    assert 0 < np.count_nonzero(weights) < weights.size
    train_features = np.asarray(model_file.payload["train_features"])
    assert len(seen) == 1
    assert seen[0].tobytes() == train_features[weights != 0].tobytes()


@pytest.mark.parametrize("method", ["svc", "krr", "svr"])
def test_predict_reads_an_older_model_file_bit_for_bit(tmp_path, method):
    """Model files once also stored a kernel provenance string and an SVC's
    support indices; load ignores both, so predictions keep their bits."""
    train_and_predict(tmp_path, method, PREDICT_KERNELS["quantum_inversion"])
    doc = json.loads((tmp_path / f"{method}.json").read_text())
    doc["payload"]["kernel_id"] = ("quantum:inversion:exact:qubits=2:layers=2:data=rx:"
                                   "trainable=ry:entangle=linear_chain:scale=1")
    if method == "svc":
        alphas = np.asarray(doc["payload"]["alphas"])
        doc["payload"]["support_indices"] = np.flatnonzero(alphas > SUPPORT_THRESHOLD).tolist()
    old, preds = tmp_path / "old.json", tmp_path / "old.csv"
    old.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    assert run("predict", "--model", str(old), "--data", str(tmp_path / "test.csv"),
               "--out", str(preds)) == 0
    assert preds.read_bytes() == (tmp_path / f"{method}.csv").read_bytes()


def test_predict_with_every_weight_zero_returns_the_bias(tmp_path):
    """An epsilon tube wider than the targets leaves every SVR coefficient at 0."""
    data, model, preds = tmp_path / "d.csv", tmp_path / "m.json", tmp_path / "p.csv"
    run("gen-data", "--kind", "blobs", "--m", "12", "--seed", "3", "--out", str(data))
    assert run("train", "--method", "svr", "--kernel", "gaussian", "--epsilon", "5",
               "--data", str(data), "--out", str(model)) == 0
    model_file = load_model(model)
    assert not np.any(model_file.payload["coef"])
    assert run("predict", "--model", str(model), "--data", str(data), "--out", str(preds)) == 0
    assert np.all(np.loadtxt(preds, skiprows=1) == model_file.payload["bias"])


@pytest.mark.parametrize("kernel", ["gaussian", "quantum"])
def test_predict_rejects_another_feature_count_even_when_every_weight_is_zero(tmp_path, capsys,
                                                                               kernel):
    data, other, model = tmp_path / "d.csv", tmp_path / "o.csv", tmp_path / "m.json"
    run("gen-data", "--kind", "blobs", "--m", "12", "--seed", "3", "--out", str(data))
    run("gen-data", "--kind", "hidden_rotation", "--m", "5", "--seed", "3", "--out", str(other))
    assert run("train", "--method", "svr", "--kernel", kernel, "--epsilon", "5",
               "--data", str(data), "--out", str(model)) == 0
    assert not np.any(load_model(model).payload["coef"])
    assert run("predict", "--model", str(model), "--data", str(other),
               "--out", str(tmp_path / "p.csv")) == 2
    assert "feature dimensions differ: 1 vs 2" in capsys.readouterr().err


def test_predict_rejects_a_weight_count_that_differs_from_the_training_set(tmp_path, capsys):
    data, model = tmp_path / "d.csv", tmp_path / "m.json"
    run("gen-data", "--kind", "blobs", "--m", "10", "--seed", "1", "--out", str(data))
    run("train", "--method", "svc", "--kernel", "linear", "--data", str(data), "--out", str(model))
    doc = json.loads(model.read_text())
    doc["payload"]["alphas"].append(1.0)
    model.write_text(json.dumps(doc))
    assert run("predict", "--model", str(model), "--data", str(data),
               "--out", str(tmp_path / "p.csv")) == 2
    assert "11 entries for 10 training points" in capsys.readouterr().err


@pytest.mark.parametrize("shape, held", [("short", "9"), ("nested", "1x10")],
                         ids=["short", "nested"])
@pytest.mark.parametrize("method, field", [
    ("svc", "alphas"), ("svc", "labels"), ("krr", "alphas"), ("svr", "coef"),
])
def test_predict_names_a_per_point_array_one_entry_short(tmp_path, capsys, method, field, shape,
                                                         held):
    """A per-point array one entry short, or nested one level, is a data
    error that names the field, and no predictions are written."""
    data, model, out = tmp_path / "d.csv", tmp_path / "m.json", tmp_path / "p.csv"
    run("gen-data", "--kind", "blobs", "--m", "10", "--seed", "1", "--out", str(data))
    assert run("train", "--method", method, "--kernel", "linear", "--data", str(data),
               "--out", str(model)) == 0
    capsys.readouterr()
    doc = json.loads(model.read_text())
    values = doc["payload"][field]
    doc["payload"][field] = values[:-1] if shape == "short" else [values]
    model.write_text(json.dumps(doc))
    assert run("predict", "--model", str(model), "--data", str(data), "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"error: {field}: model file holds {held} entries for 10 training points\n")
    assert not out.exists()
