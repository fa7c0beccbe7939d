"""Acceptance gate: one test per release criterion, each printing a
pass/fail line so a plain `pytest tests/test_acceptance.py -v -s` doubles
as a checklist. Tolerances and seeds are fixed; the QKA accuracy figures
are frozen regression baselines from the first verified run.
"""

import dataclasses
import time

import numpy as np
import pytest

from qkflow.classical_kernels import ClassicalKernel, classical_gram
from qkflow.datasets import gen_synthetic
from qkflow.featuremap import FeatureMapSpec, param_count, random_params
from qkflow.kernel_methods import kpca_fit, krr_fit, krr_predict, svc_fit, svc_predict
from qkflow.model_io import evaluate_gram, kernel_from_json, load_model
from qkflow.qkernel import KernelEngineConfig, cross_gram, gram_matrix, kernel_value
from qkflow.training import (
    MlkrrConfig,
    SpsaConfig,
    mlkrr_fit,
    mlkrr_loss,
    mlkrr_loss_gradient,
    qka_align,
    spsa_gradient,
)

from oracles import svc_dual_oracle, svc_kkt_violation


def report(number, name, passed):
    status = "PASS" if passed else "FAIL"
    print(f"acceptance {number:02d} {status}: {name}", flush=True)


def single_qubit_config(lam=0.0, **spec_kwargs):
    spec = FeatureMapSpec(n_qubits=1, n_layers=1, **spec_kwargs)
    return KernelEngineConfig(spec=spec, params=np.array([lam]), mode="exact", seed=0)


def random_engine_config(rng, max_qubits=3):
    n = int(rng.integers(1, max_qubits + 1))
    layers = int(rng.integers(1, 3))
    spec = FeatureMapSpec(
        n_qubits=n,
        n_layers=layers,
        data_axis=str(rng.choice(["rx", "ry", "rz"])),
        trainable_axis=str(rng.choice(["rx", "ry", "rz", "p"])),
        entanglement=str(rng.choice(["none", "linear_chain", "ring"])),
        data_scaling=float(rng.uniform(0.3, 1.5)),
    )
    lam = rng.uniform(-np.pi, np.pi, size=param_count(spec))
    return KernelEngineConfig(spec=spec, params=lam, mode="exact", seed=0)


def test_acceptance_01_single_qubit_closed_form():
    grid = np.linspace(-np.pi, np.pi, 21).reshape(-1, 1)
    cfg = single_qubit_config(lam=0.0, data_axis="rx", trainable_axis="ry")
    start = time.perf_counter()
    K = cross_gram(cfg, grid, grid)
    elapsed = time.perf_counter() - start
    expected = np.cos((grid - grid.T) / 2.0) ** 2
    max_err = float(np.max(np.abs(K - expected)))
    ok = max_err <= 1e-10 and elapsed < 1.0
    report(1, "single-qubit closed-form kernel", ok)
    assert max_err <= 1e-10
    assert elapsed < 1.0


def test_acceptance_02_inversion_and_swap_agree():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        cfg = random_engine_config(rng, max_qubits=3)
        d = cfg.spec.n_qubits
        x = rng.uniform(-np.pi, np.pi, size=d)
        x2 = rng.uniform(-np.pi, np.pi, size=d)
        k_inv = kernel_value(cfg, x, x2)
        k_swap = kernel_value(dataclasses.replace(cfg, circuit_kind="swap"), x, x2)
        worst = max(worst, abs(k_inv - k_swap))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    report(2, "inversion and swap tests agree", ok)
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_acceptance_03_gram_matrices_are_valid_kernels():
    rng = np.random.default_rng(303)
    ok = True
    for _ in range(20):
        cfg = random_engine_config(rng, max_qubits=3)
        m = int(rng.integers(4, 26))
        X = rng.uniform(-np.pi, np.pi, size=(m, cfg.spec.n_qubits))
        K = gram_matrix(cfg, X).values
        ok &= float(np.max(np.abs(K - K.T))) <= 1e-10
        ok &= float(np.max(np.abs(np.diag(K) - 1.0))) <= 1e-10
        ok &= K.min() >= -1e-12 and K.max() <= 1.0 + 1e-12
        ok &= float(np.linalg.eigvalsh((K + K.T) / 2.0).min()) >= -1e-8
    report(3, "exact Gram matrices are symmetric, unit-diagonal, PSD", bool(ok))
    assert ok


def test_acceptance_04_shot_estimates_track_exact_values():
    rng = np.random.default_rng(404)
    hits = 0
    for pair_index in range(100):
        cfg = random_engine_config(rng, max_qubits=2)
        d = cfg.spec.n_qubits
        x = rng.uniform(-np.pi, np.pi, size=d)
        x2 = rng.uniform(-np.pi, np.pi, size=d)
        exact = kernel_value(cfg, x, x2)
        sampled_cfg = dataclasses.replace(cfg, mode="shots", shots=10_000,
                                          seed=pair_index)
        estimate = kernel_value(sampled_cfg, x, x2)
        if abs(estimate - exact) <= 0.05:
            hits += 1
    ok = hits >= 99
    report(4, f"shot estimator within 0.05 on {hits}/100 pairs", ok)
    assert hits >= 99


def test_acceptance_05_svc_dual_solver():
    K = np.array([[1.0, -1.0], [-1.0, 1.0]])
    y = np.array([1.0, -1.0])
    model = svc_fit(K, y, C=1.0)
    ok = (
        np.max(np.abs(model.alphas - 0.5)) <= 1e-8
        and abs(model.dual_objective - 0.5) <= 1e-8
    )

    rng = np.random.default_rng(505)
    for _ in range(20):
        m = int(rng.integers(4, 31))
        X = rng.normal(size=(m, 3))
        Kr = classical_gram(ClassicalKernel.gaussian_metric(gamma=0.7), X).values
        yr = np.where(rng.random(m) < 0.5, 1.0, -1.0)
        if abs(np.sum(yr)) == m:
            yr[0] = -yr[0]
        C = float(rng.choice([0.5, 1.0, 10.0]))
        fit = svc_fit(Kr, yr, C=C)
        ok &= svc_kkt_violation(Kr, yr, fit.alphas, None, C) <= 1e-4

    for seed in range(12):
        m = 2 + seed % 3
        srng = np.random.default_rng(5050 + seed)
        Xs = srng.normal(size=(m, 2))
        Ks = classical_gram(ClassicalKernel.gaussian_metric(gamma=1.0), Xs).values
        ys = np.where(srng.random(m) < 0.5, 1.0, -1.0)
        if abs(np.sum(ys)) == m:
            ys[0] = -ys[0]
        fit = svc_fit(Ks, ys, C=1.0)
        _, oracle_obj = svc_dual_oracle(Ks, ys, 1.0)
        ok &= abs(fit.dual_objective - oracle_obj) <= 1e-6

    report(5, "SVC dual: analytic, KKT, and enumeration oracles", bool(ok))
    assert ok


def test_acceptance_06_krr_residuals_and_interpolation():
    rng = np.random.default_rng(606)
    ok = True
    for reg in (0.0, 1e-6, 1e-2):
        X = rng.normal(size=(12, 2))
        K = classical_gram(ClassicalKernel.gaussian_metric(gamma=1.0), X).values
        y = rng.normal(size=12)
        model = krr_fit(K, y, reg=reg)
        residual = np.max(np.abs((K + reg * np.eye(12)) @ model.alphas - y))
        ok &= residual <= 1e-8
        if reg == 0.0:
            ok &= np.max(np.abs(krr_predict(model, K) - y)) <= 1e-8
    report(6, "KRR residuals and exact interpolation", bool(ok))
    assert ok


# Frozen regression baselines from the first verified alignment run
# (hidden_rotation train seed 7, held-out seed 8, C=10, 100 iterations).
QKA_ACCURACY_ALIGNED = 0.975
QKA_ACCURACY_UNALIGNED = 0.95


def test_acceptance_07_alignment_improves_the_dual_objective():
    from qkflow.cli import _role_seed

    train = gen_synthetic("hidden_rotation", 40, 7)
    held_out = gen_synthetic("hidden_rotation", 40, 8)
    spec = FeatureMapSpec(n_qubits=1, n_layers=1)
    lam_init = random_params(spec, _role_seed(7, 0))
    start_cfg = KernelEngineConfig(spec=spec, params=lam_init, mode="exact", seed=7)
    spsa = SpsaConfig(max_iter=100, seed=_role_seed(7, 1))
    C = 10.0

    start = time.perf_counter()
    state = qka_align(start_cfg, train.features, train.labels, C, spsa)
    elapsed = time.perf_counter() - start

    evals = np.array([loss for _, loss in state.loss_trace])
    best_path = np.minimum.accumulate(evals)

    def held_out_accuracy(lam):
        cfg = dataclasses.replace(start_cfg, params=np.asarray(lam, dtype=float))
        K = gram_matrix(cfg, train.features)
        model = svc_fit(K, train.labels, C=C)
        K_new = cross_gram(cfg, held_out.features, train.features)
        return float(np.mean(svc_predict(model, K_new) == held_out.labels))

    acc_aligned = held_out_accuracy(state.lam_best)
    acc_unaligned = held_out_accuracy(lam_init)

    ok = (
        elapsed < 60.0
        and bool(np.all(np.diff(best_path) <= 0.0))
        and state.loss_best < evals[0]
        and acc_aligned >= acc_unaligned
        and acc_aligned == QKA_ACCURACY_ALIGNED
        and acc_unaligned == QKA_ACCURACY_UNALIGNED
    )
    report(7, f"alignment: loss {evals[0]:.3f}->{state.loss_best:.3f}, "
              f"accuracy {acc_unaligned:.3f}->{acc_aligned:.3f}", ok)
    assert elapsed < 60.0
    assert np.all(np.diff(best_path) <= 0.0)
    assert state.loss_best < evals[0]
    assert acc_aligned >= acc_unaligned
    assert acc_aligned == QKA_ACCURACY_ALIGNED
    assert acc_unaligned == QKA_ACCURACY_UNALIGNED


def test_acceptance_08_spsa_is_exact_on_quadratics():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(50):
        a, b = rng.uniform(0.5, 3.0), rng.uniform(-2.0, 2.0)
        c = rng.uniform(-1.0, 1.0)
        lam = rng.uniform(-2.0, 2.0, size=1)
        c_k = rng.uniform(0.05, 0.5)
        delta = np.array([1.0 if rng.random() < 0.5 else -1.0])

        def f(v):
            return a * v[0] ** 2 + b * v[0] + c

        estimate = spsa_gradient(f, lam, c_k, delta)[0]
        worst = max(worst, abs(estimate - (2.0 * a * lam[0] + b)))
    ok = worst <= 1e-12
    report(8, "SPSA gradient exact on quadratics", ok)
    assert worst <= 1e-12


def test_acceptance_09_metric_learning_gradient_and_descent():
    ok = True
    for seed in (31, 47, 93):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(5, 2))
        y = np.sin(X[:, 0]) + 0.1 * rng.normal(size=5)
        alpha = rng.normal(size=5)
        A = np.eye(2) + 0.1 * rng.normal(size=(2, 2))
        gamma, reg = 0.8, 0.3
        grad = mlkrr_loss_gradient(X, y, alpha, A, gamma, reg)
        step = 1e-6
        fd = np.zeros_like(A)
        for i in range(2):
            for j in range(2):
                bump = np.zeros_like(A)
                bump[i, j] = step
                up = mlkrr_loss(X, y, alpha, A + bump, gamma, reg)
                down = mlkrr_loss(X, y, alpha, A - bump, gamma, reg)
                fd[i, j] = (up - down) / (2.0 * step)
        ok &= float(np.max(np.abs(grad - fd)) / np.max(np.abs(fd))) <= 1e-5

    rng = np.random.default_rng(909)
    X = rng.normal(size=(14, 3))
    y = np.sin(1.3 * X[:, 0]) + 0.05 * rng.normal(size=14)
    _, _, trace = mlkrr_fit(X, y, MlkrrConfig(gamma=0.8, reg=1e-4, lr=0.1,
                                              outer_iters=30))
    ok &= trace[-1] <= trace[0]
    report(9, "metric-learning gradient matches finite differences", bool(ok))
    assert ok


def test_acceptance_10_linear_kernel_pca_matches_covariance_pca():
    rng = np.random.default_rng(1010)
    X = rng.normal(size=(20, 2)) @ np.array([[2.0, 0.4], [0.0, 0.7]])
    K = X @ X.T
    model = kpca_fit(K, n_components=2)

    centered = X - X.mean(axis=0)
    cov = centered.T @ centered
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    reference = centered @ eigvecs[:, order]

    worst = 0.0
    for j in range(2):
        direct = np.max(np.abs(model.train_projections[:, j] - reference[:, j]))
        flipped = np.max(np.abs(model.train_projections[:, j] + reference[:, j]))
        worst = max(worst, min(direct, flipped))
    ok = worst <= 1e-8
    report(10, "linear-kernel PCA matches covariance PCA", ok)
    assert worst <= 1e-8


def test_acceptance_11_two_stage_pipeline_end_to_end(tmp_path):
    from qkflow.cli import run_command

    outputs = {}
    for run_dir in ("first", "second"):
        base = tmp_path / run_dir
        base.mkdir()
        data, emb = base / "hr.csv", base / "emb.json"
        trace, model = base / "emb_trace.csv", base / "model.json"
        preds, metrics = base / "p.csv", base / "metrics.csv"
        codes = [
            run_command(["gen-data", "--kind", "hidden_rotation", "--m", "20",
                         "--seed", "3", "--out", str(data)]),
            run_command(["align", "--data", str(data), "--qubits", "1",
                         "--layers", "1", "--spsa-iters", "8", "--seed", "3",
                         "--out", str(emb), "--trace-out", str(trace)]),
            run_command(["train", "--method", "svc", "--embedding", str(emb),
                         "--data", str(data), "--out", str(model)]),
            run_command(["predict", "--model", str(model), "--data", str(data),
                         "--out", str(preds), "--metrics-out", str(metrics)]),
        ]
        outputs[run_dir] = {
            "codes": codes,
            "bytes": [p.read_bytes() for p in (data, emb, trace, model, preds, metrics)],
            "emb": emb,
            "model": model,
            "data": data,
        }

    ok = all(code == 0 for run in outputs.values() for code in run["codes"])
    ok &= outputs["first"]["bytes"] == outputs["second"]["bytes"]

    emb_file = load_model(outputs["first"]["emb"])
    model_file = load_model(outputs["first"]["model"])
    from qkflow.datasets import load_csv

    ds = load_csv(outputs["first"]["data"])
    K_emb = evaluate_gram(kernel_from_json(emb_file.kernel), ds.features).values
    K_model = evaluate_gram(kernel_from_json(model_file.kernel), ds.features).values
    ok &= float(np.max(np.abs(K_emb - K_model))) <= 1e-12

    report(11, "two-stage pipeline: deterministic, reuses trained parameters", bool(ok))
    assert all(code == 0 for run in outputs.values() for code in run["codes"])
    assert outputs["first"]["bytes"] == outputs["second"]["bytes"]
    assert float(np.max(np.abs(K_emb - K_model))) <= 1e-12
