from dataclasses import fields, replace

import numpy as np
import pytest

from qkflow.classical_kernels import ClassicalKernel, classical_gram
from qkflow import training
from qkflow.featuremap import FeatureMapSpec, random_params
from qkflow.kernel_methods import krr_fit, svc_fit
from qkflow.qkernel import KernelEngineConfig, gram_matrix
from qkflow.training import (
    AlignmentState,
    EmbeddingArtifact,
    MlkrrConfig,
    SpsaConfig,
    export_embedding,
    mlkrr_fit,
    mlkrr_loss,
    mlkrr_loss_gradient,
    qka_align,
    spsa_gradient,
)

ALIGN_SPEC = FeatureMapSpec(n_qubits=1, n_layers=1, data_axis="rx", trainable_axis="ry",
                            entanglement="none")


def hidden_rotation_data(m, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-np.pi, np.pi, size=(m, 1))
    y = np.where(np.cos(x[:, 0]) >= 0.0, 1.0, -1.0)
    return x, y


# the alignment loss: svc_fit's maximized dual value


def test_alignment_loss_two_point_analytic():
    K = np.array([[1.0, -1.0], [-1.0, 1.0]])
    model = svc_fit(K, [1.0, -1.0], C=1.0)
    assert abs(model.dual_objective - 0.5) <= 1e-10
    assert np.allclose(model.alphas, [0.5, 0.5], atol=1e-9)


def test_alignment_loss_degenerate_capacity():
    K = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert svc_fit(K, [1.0, -1.0], C=1e-12).dual_objective <= 1e-10


def test_alignment_loss_permutation_invariant():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(8, 8))
    K = X @ X.T / 8.0
    y = np.array([1.0, -1.0] * 4)
    perm = rng.permutation(8)
    loss_a = svc_fit(K, y, C=1.3).dual_objective
    loss_b = svc_fit(K[np.ix_(perm, perm)], y[perm], C=1.3).dual_objective
    assert abs(loss_a - loss_b) <= 1e-8


# SPSA


def test_spsa_linear_exact():
    for delta in (np.array([1.0]), np.array([-1.0])):
        for c_k in (0.5, 0.01):
            ghat = spsa_gradient(lambda lam: 2.0 * lam[0], np.array([1.7]), c_k, delta)
            assert abs(ghat[0] - 2.0) <= 1e-12


def test_spsa_quadratic_exact_one_dim():
    ghat = spsa_gradient(lambda lam: lam[0] ** 2, np.array([3.0]), 0.25, np.array([1.0]))
    assert abs(ghat[0] - 6.0) <= 1e-12


def test_spsa_quadratic_exact_seeded_draws():
    # symmetric differencing cancels the curvature term on any 1-d quadratic
    rng = np.random.default_rng(77)
    for _ in range(50):
        a, b, c = rng.normal(size=3)
        lam0 = rng.normal()
        c_k = float(rng.uniform(0.05, 1.0))
        delta = np.array([1.0 if rng.integers(2) else -1.0])

        def f(lam):
            return a * lam[0] ** 2 + b * lam[0] + c

        ghat = spsa_gradient(f, np.array([lam0]), c_k, delta)
        true = 2.0 * a * lam0 + b
        assert abs(ghat[0] - true) <= 1e-12 * max(1.0, abs(true))


def test_spsa_multidim_projects_onto_perturbation():
    # in several dimensions the estimate is (delta . g) / delta_j, not g_j
    rng = np.random.default_rng(8)
    w = rng.normal(size=4)
    b = rng.normal(size=4)
    lam0 = rng.normal(size=4)
    delta = np.where(rng.integers(0, 2, size=4) == 1, 1.0, -1.0)

    def f(lam):
        return float(w @ (lam**2) + b @ lam)

    true_grad = 2.0 * w * lam0 + b
    ghat = spsa_gradient(f, lam0, 0.3, delta)
    expected = (delta @ true_grad) / delta
    assert np.allclose(ghat, expected, atol=1e-10)


def test_spsa_constant_objective_gives_zero():
    ghat = spsa_gradient(lambda lam: 4.2, np.array([0.3, -0.7]), 0.1,
                         np.array([1.0, -1.0]))
    assert np.all(ghat == 0.0)


def test_spsa_exactly_two_evaluations():
    calls = []

    def f(lam):
        calls.append(lam.copy())
        return float(np.sum(lam))

    spsa_gradient(f, np.zeros(3), 0.2, np.ones(3))
    assert len(calls) == 2


def test_spsa_validation():
    with pytest.raises(ValueError):
        spsa_gradient(lambda lam: 0.0, np.zeros(2), 0.0, np.ones(2))
    with pytest.raises(ValueError):
        spsa_gradient(lambda lam: 0.0, np.zeros(2), 0.1, np.ones(3))
    with pytest.raises(ValueError):
        spsa_gradient(lambda lam: 0.0, np.zeros(2), 0.1, np.array([1.0, 0.5]))


def test_spsa_config_validation():
    with pytest.raises(ValueError):
        SpsaConfig(a0=0.0)
    with pytest.raises(ValueError):
        SpsaConfig(max_iter=-1)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="a0 must be positive and finite"):
            SpsaConfig(a0=bad)


def test_spsa_config_holds_only_the_step_size_and_budget():
    """c0 and A_stab are the module constants SPSA_C0 and SPSA_A_STAB."""
    assert [f.name for f in fields(SpsaConfig)] == ["a0", "max_iter", "seed"]
    with pytest.raises(TypeError):
        SpsaConfig(c0=0.15)


# QKA


def align_start(*lam):
    return KernelEngineConfig(spec=ALIGN_SPEC, params=np.array(lam))


def test_qka_zero_iterations_returns_init():
    X, y = hidden_rotation_data(10, seed=2)
    lam0 = np.array([0.9])
    state = qka_align(align_start(0.9), X, y, C=1.0, spsa=SpsaConfig(max_iter=0, seed=3))
    assert np.array_equal(state.lam_best, lam0)
    assert np.array_equal(state.lam_current, lam0)
    assert len(state.loss_trace) == 1
    assert state.loss_trace[0][0] == 0
    assert state.loss_best == state.loss_trace[0][1]


def test_qka_deterministic():
    X, y = hidden_rotation_data(10, seed=4)
    spsa = SpsaConfig(max_iter=8, seed=11)
    a = qka_align(align_start(1.1), X, y, 1.0, spsa)
    b = qka_align(align_start(1.1), X, y, 1.0, spsa)
    assert np.array_equal(a.lam_best, b.lam_best)
    assert a.loss_trace == b.loss_trace
    assert a.sv_counts == b.sv_counts


def test_qka_best_tracks_minimum_of_trace():
    X, y = hidden_rotation_data(12, seed=5)
    state = qka_align(align_start(0.7), X, y, 1.0, SpsaConfig(max_iter=10, seed=1))
    trace_losses = [loss for _, loss in state.loss_trace]
    assert abs(state.loss_best - min(trace_losses)) <= 1e-12
    assert state.loss_best <= trace_losses[0]
    # one evaluation at init plus two probes per iteration
    assert len(state.sv_counts) == 1 + 2 * 10
    assert state.loss_trace[-1][0] == 10


@pytest.mark.parametrize("spec", [
    ALIGN_SPEC,
    FeatureMapSpec(n_qubits=2, n_layers=2, data_axis="rx", trainable_axis="ry"),
], ids=["readme-map", "2q-2l"])
def test_qka_records_the_fit_of_every_candidate_bit_for_bit(monkeypatch, spec):
    """Each evaluation's loss and support count are those of svc_fit on
    gram_matrix at its candidate, and loss_best is the least of them: a
    faster Gram path for the evaluations must keep these bits."""
    X, y = hidden_rotation_data(8, seed=3)
    X = np.hstack([X, X[::-1]])
    candidates = []

    def recording_gram(cfg, data):
        candidates.append(cfg.params.copy())
        return gram_matrix(cfg, data)

    monkeypatch.setattr(training, "gram_matrix", recording_gram)
    start = KernelEngineConfig(spec=spec, params=random_params(spec, 5))
    state = qka_align(start, X, y, 2.0, SpsaConfig(max_iter=3, seed=4))
    monkeypatch.undo()

    fits = [svc_fit(gram_matrix(replace(start, params=lam), X), y, 2.0) for lam in candidates]
    losses = [fit.dual_objective for fit in fits]
    assert len(candidates) == 1 + 2 * 3
    assert state.sv_counts == tuple(fit.support_indices.size for fit in fits)
    assert state.loss_trace == ((0, losses[0]), *(
        (k, min(losses[2 * k - 1], losses[2 * k])) for k in (1, 2, 3)))
    assert state.loss_best == min(loss for _, loss in state.loss_trace) == min(losses)
    np.testing.assert_array_equal(state.lam_best, candidates[losses.index(min(losses))])


def test_qka_keeps_the_first_of_tied_losses(monkeypatch):
    """With one fixed Gram every evaluation ties exactly, so the best is the
    first evaluation, the start vector, and no later probe."""
    X, y = hidden_rotation_data(8, seed=9)
    start = align_start(0.4)
    fixed = gram_matrix(start, X)
    monkeypatch.setattr(training, "gram_matrix", lambda cfg, data: fixed)
    state = qka_align(start, X, y, 1.0, SpsaConfig(max_iter=4, seed=2))
    first = svc_fit(fixed, y, 1.0)
    np.testing.assert_array_equal(state.lam_best, start.params)
    assert state.loss_best == state.loss_trace[0][1] == first.dual_objective
    assert all(loss == first.dual_objective for _, loss in state.loss_trace)
    assert state.sv_counts == (first.support_indices.size,) * (1 + 2 * 4)


def test_qka_improves_hidden_rotation_loss():
    X, y = hidden_rotation_data(12, seed=7)
    state = qka_align(align_start(1.2), X, y, 1.0, SpsaConfig(max_iter=25, seed=7))
    assert state.loss_best < state.loss_trace[0][1]


def test_qka_flat_kernel_leaves_params_unchanged():
    # data_scaling=0 makes the kernel all-ones regardless of lambda, so the
    # loss is constant and every SPSA gradient estimate is exactly zero
    spec = FeatureMapSpec(n_qubits=1, n_layers=1, data_axis="rx",
                          trainable_axis="ry", entanglement="none", data_scaling=0.0)
    X, y = hidden_rotation_data(8, seed=9)
    lam0 = np.array([0.4])
    cfg = KernelEngineConfig(spec=spec, params=lam0)
    state = qka_align(cfg, X, y, 1.0, SpsaConfig(max_iter=6, seed=2))
    losses = [loss for _, loss in state.loss_trace]
    assert max(losses) - min(losses) <= 1e-12
    assert np.max(np.abs(state.lam_current - lam0)) <= 1e-12


def test_qka_validation():
    X, y = hidden_rotation_data(6, seed=1)
    with pytest.raises(ValueError):
        qka_align(align_start(0.1, 0.2), X, y, 1.0, SpsaConfig(max_iter=1))
    with pytest.raises(ValueError):
        qka_align(align_start(0.1), X, y[:-1], 1.0, SpsaConfig(max_iter=1))


# MLKRR


def seeded_regression_instance(m, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, d))
    y = np.sin(X[:, 0]) + 0.1 * rng.normal(size=m)
    return X, y


def test_mlkrr_gradient_matches_finite_differences():
    X, y = seeded_regression_instance(5, 2, seed=31)
    rng = np.random.default_rng(32)
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
    scale = np.max(np.abs(grad))
    assert scale > 0
    assert np.max(np.abs(grad - fd)) / scale <= 1e-5


def test_mlkrr_zero_rounds_equals_plain_gaussian_krr():
    X, y = seeded_regression_instance(9, 2, seed=35)
    cfg = MlkrrConfig(gamma=0.6, reg=1e-3, outer_iters=0)
    A, model, trace = mlkrr_fit(X, y, cfg)
    assert np.array_equal(A, np.eye(2))
    plain = krr_fit(classical_gram(ClassicalKernel.gaussian_metric(gamma=0.6), X),
                    y, reg=1e-3)
    assert np.allclose(model.alphas, plain.alphas, atol=1e-10)
    assert len(trace) == 1


def test_mlkrr_solves_on_the_gram_of_its_returned_metric():
    """predict rebuilds the kernel from the saved A, so the alphas must be the
    KRR solution on classical_gram of that A, bit for bit."""
    X, y = seeded_regression_instance(12, 3, seed=41)
    cfg = MlkrrConfig(gamma=0.5, reg=1e-3, outer_iters=4)
    A, model, _ = mlkrr_fit(X, y, cfg)
    K = classical_gram(ClassicalKernel.gaussian_metric(gamma=0.5, transform=A), X)
    np.testing.assert_array_equal(model.alphas, krr_fit(K.values, y, reg=1e-3).alphas)


def test_mlkrr_trace_non_increasing():
    X, y = seeded_regression_instance(12, 3, seed=40)
    cfg = MlkrrConfig(gamma=0.5, reg=1e-3, outer_iters=12)
    _, _, trace = mlkrr_fit(X, y, cfg)
    assert len(trace) == 13
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    assert trace[-1] <= trace[0]


def test_mlkrr_downweights_noise_feature():
    # targets depend only on feature 0; feature 1 is independent noise, so
    # training should shrink the metric's second column relative to the first
    rng = np.random.default_rng(52)
    X = np.column_stack([rng.uniform(-2, 2, size=30), rng.normal(size=30)])
    y = np.sin(1.5 * X[:, 0])
    cfg = MlkrrConfig(gamma=0.7, reg=1e-3, outer_iters=25)
    A, _, trace = mlkrr_fit(X, y, cfg)
    ratio = np.linalg.norm(A[:, 1]) / np.linalg.norm(A[:, 0])
    assert ratio < 1.0
    assert trace[-1] < trace[0]


def metric_learning_demo_data():
    """demos/metric_learning.py's data: the targets read feature 0 alone, and
    feature 1 is Gaussian noise of standard deviation 3."""
    rng = np.random.default_rng(17)
    signal = rng.uniform(-2, 2, size=30)
    noise = 3.0 * rng.normal(size=30)
    return np.column_stack([signal, noise]), np.sin(1.5 * signal)


def spied_transforms(monkeypatch):
    """The metric of every Gram that training builds, in order."""
    seen = []

    def spy(kernel, data):
        seen.append(kernel.transform)
        return classical_gram(kernel, data)

    monkeypatch.setattr(training, "classical_gram", spy)
    return seen


def test_mlkrr_builds_each_metrics_gram_once(monkeypatch):
    """One Gram at A = I, then one per candidate tried: the accepted
    candidate's Gram serves the refit, the trace loss and the next gradient,
    so no metric is built twice."""
    X, y = metric_learning_demo_data()
    seen = spied_transforms(monkeypatch)
    rounds = 60
    A, _, _ = mlkrr_fit(X, y, MlkrrConfig(gamma=1.0, reg=1e-2, outer_iters=rounds))
    np.testing.assert_array_equal(seen[0], np.eye(2))
    candidates = seen[1:]
    assert rounds <= len(candidates) <= 10 * rounds  # each round tries 1 to 10 steps
    assert len({t.tobytes() for t in seen}) == len(seen)
    assert any(np.array_equal(t, A) for t in candidates)


def test_mlkrr_warm_starts_each_round_from_the_last_accepted_step(monkeypatch):
    """The first round tries MLKRR_STEP; when it is accepted, the second round
    first tries twice that step from the accepted metric."""
    X, y = metric_learning_demo_data()
    gamma, reg = 1.0, 1e-2
    seen = spied_transforms(monkeypatch)
    A1, _, _ = mlkrr_fit(X, y, MlkrrConfig(gamma=gamma, reg=reg, outer_iters=1))
    assert len(seen) == 2  # the first try was accepted
    mlkrr_fit(X, y, MlkrrConfig(gamma=gamma, reg=reg, outer_iters=2))
    second_round_try = seen[4]  # after I and the accepted try of each run's first round
    alpha0 = krr_fit(classical_gram(ClassicalKernel.gaussian_metric(gamma), X), y, reg).alphas
    alpha1 = krr_fit(classical_gram(ClassicalKernel.gaussian_metric(gamma, A1), X), y,
                     reg).alphas
    step = training.MLKRR_STEP
    np.testing.assert_array_equal(A1, np.eye(2) - step * mlkrr_loss_gradient(
        X, y, alpha0, np.eye(2), gamma, reg))
    np.testing.assert_array_equal(second_round_try, A1 - 2.0 * step * mlkrr_loss_gradient(
        X, y, alpha1, A1, gamma, reg))


def test_mlkrr_reaches_the_hand_tuned_quality_with_no_step_knob():
    """On the demo's data, 60 rounds from the fixed first step shrink the noise
    column to at most 0.70 of the signal column and the loss to at most
    0.084, which a fixed step of 0.05 missed (0.776 and 0.0896) and only a
    hand-tuned 0.5 reached (0.649 and 0.0817)."""
    X, y = metric_learning_demo_data()
    A, _, trace = mlkrr_fit(X, y, MlkrrConfig(gamma=1.0, reg=1e-2, outer_iters=60))
    weights = np.linalg.norm(A, axis=0)
    assert weights[1] / weights[0] <= 0.70
    assert trace[-1] <= 0.084
    assert all(b <= a for a, b in zip(trace, trace[1:]))


def test_mlkrr_tries_no_step_at_a_stationary_metric(monkeypatch):
    """Zero targets give zero weights and a zero gradient: no round tries a
    step, so the step never doubles past a float and A stays the identity."""
    X, _ = seeded_regression_instance(6, 2, seed=44)
    seen = spied_transforms(monkeypatch)
    A, model, trace = mlkrr_fit(X, np.zeros(6), MlkrrConfig(outer_iters=1100))
    assert len(seen) == 1
    np.testing.assert_array_equal(A, np.eye(2))
    assert not np.any(model.alphas)
    assert trace == [0.0] * 1101


def test_mlkrr_validation():
    with pytest.raises(ValueError):
        MlkrrConfig(gamma=0.0)
    with pytest.raises(TypeError):
        MlkrrConfig(lr=0.05)  # the step is MLKRR_STEP, warm-started, not a field
    with pytest.raises(ValueError):
        MlkrrConfig(reg=-1.0)
    X = np.zeros((3, 2))
    with pytest.raises(ValueError):
        mlkrr_fit(X, [1.0, 2.0], MlkrrConfig())
    with pytest.raises(ValueError):
        mlkrr_fit(np.zeros((1, 2)), [1.0], MlkrrConfig())


@pytest.mark.parametrize("field, value", [("reg", np.nan), ("reg", np.inf),
                                          ("gamma", np.nan), ("gamma", np.inf)])
def test_mlkrr_config_refuses_a_non_finite_reg_or_gamma(field, value):
    """Refused when the config is built, as SpsaConfig does, not later inside
    krr_fit or the kernel once a Gram has been built."""
    rule = "finite and non-negative" if field == "reg" else "positive and finite"
    with pytest.raises(ValueError, match=f"^{field} must be {rule}, got {value}$"):
        MlkrrConfig(**{field: value})


# embedding export


def test_export_embedding_uses_best_not_current():
    state = AlignmentState(
        lam_current=np.array([2.0]),
        lam_best=np.array([0.5]),
        loss_best=1.25,
        loss_trace=((0, 3.0), (1, 1.25)),
        sv_counts=(4, 4, 3),
        seed=9,
    )
    artifact = export_embedding(state, ALIGN_SPEC)
    assert np.array_equal(artifact.lam, [0.5])
    assert artifact.loss_best == 1.25
    assert artifact.task == "classification"
    assert artifact.seed == 9
    assert artifact.iterations == 1


def test_export_embedding_rejects_empty_state():
    state = AlignmentState(
        lam_current=np.array([0.0]),
        lam_best=np.array([0.0]),
        loss_best=float("inf"),
        loss_trace=(),
        sv_counts=(),
        seed=0,
    )
    with pytest.raises(ValueError):
        export_embedding(state, ALIGN_SPEC)


def test_embedding_artifact_validates_length():
    with pytest.raises(ValueError):
        EmbeddingArtifact(spec=ALIGN_SPEC, lam=np.array([0.1, 0.2]), loss_best=1.0,
                          task="classification", seed=0, iterations=5)


def test_embedding_kernel_reproducible():
    X, y = hidden_rotation_data(10, seed=13)
    state = qka_align(align_start(0.8), X, y, 1.0, SpsaConfig(max_iter=5, seed=3))
    artifact = export_embedding(state, ALIGN_SPEC)
    bound = KernelEngineConfig(spec=artifact.spec, params=artifact.lam)
    before = gram_matrix(bound, X).values
    again = gram_matrix(KernelEngineConfig(spec=artifact.spec, params=artifact.lam), X).values
    assert np.array_equal(before, again)
