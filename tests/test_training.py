import numpy as np
import pytest

from qkflow.classical_kernels import ClassicalKernel, classical_gram
from qkflow.featuremap import FeatureMapSpec, random_params
from qkflow.kernel_methods import krr_fit
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
    svc_loss,
)

ALIGN_SPEC = FeatureMapSpec(n_qubits=1, n_layers=1, data_axis="rx", trainable_axis="ry",
                            entanglement="none")


def hidden_rotation_data(m, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-np.pi, np.pi, size=(m, 1))
    y = np.where(np.cos(x[:, 0]) >= 0.0, 1.0, -1.0)
    return x, y


# svc_loss


def test_svc_loss_two_point_analytic():
    K = np.array([[1.0, -1.0], [-1.0, 1.0]])
    loss, alphas = svc_loss(K, [1.0, -1.0], C=1.0)
    assert abs(loss - 0.5) <= 1e-10
    assert np.allclose(alphas, [0.5, 0.5], atol=1e-9)


def test_svc_loss_degenerate_capacity():
    K = np.array([[1.0, -1.0], [-1.0, 1.0]])
    loss, _ = svc_loss(K, [1.0, -1.0], C=1e-12)
    assert loss <= 1e-10


def test_svc_loss_permutation_invariant():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(8, 8))
    K = X @ X.T / 8.0
    y = np.array([1.0, -1.0] * 4)
    perm = rng.permutation(8)
    loss_a, _ = svc_loss(K, y, C=1.3)
    loss_b, _ = svc_loss(K[np.ix_(perm, perm)], y[perm], C=1.3)
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
        SpsaConfig(c0=-1.0)
    with pytest.raises(ValueError):
        SpsaConfig(A_stab=-0.1)
    with pytest.raises(ValueError):
        SpsaConfig(max_iter=-1)
    for name in ("a0", "c0", "A_stab"):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                SpsaConfig(**{name: bad})


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
    assert state.iteration == 0


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
    cfg = MlkrrConfig(gamma=0.5, reg=1e-3, lr=0.05, outer_iters=4)
    A, model, _ = mlkrr_fit(X, y, cfg)
    K = classical_gram(ClassicalKernel.gaussian_metric(gamma=0.5, transform=A), X)
    np.testing.assert_array_equal(model.alphas, krr_fit(K.values, y, reg=1e-3).alphas)


def test_mlkrr_trace_non_increasing():
    X, y = seeded_regression_instance(12, 3, seed=40)
    cfg = MlkrrConfig(gamma=0.5, reg=1e-3, lr=0.05, outer_iters=12)
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
    cfg = MlkrrConfig(gamma=0.7, reg=1e-3, lr=0.1, outer_iters=25)
    A, _, trace = mlkrr_fit(X, y, cfg)
    ratio = np.linalg.norm(A[:, 1]) / np.linalg.norm(A[:, 0])
    assert ratio < 1.0
    assert trace[-1] < trace[0]


def test_mlkrr_validation():
    with pytest.raises(ValueError):
        MlkrrConfig(gamma=0.0)
    with pytest.raises(ValueError):
        MlkrrConfig(lr=0.0)
    with pytest.raises(ValueError):
        MlkrrConfig(reg=-1.0)
    X = np.zeros((3, 2))
    with pytest.raises(ValueError):
        mlkrr_fit(X, [1.0, 2.0], MlkrrConfig())
    with pytest.raises(ValueError):
        mlkrr_fit(np.zeros((1, 2)), [1.0], MlkrrConfig())


# embedding export


def test_export_embedding_uses_best_not_current():
    state = AlignmentState(
        lam_current=np.array([2.0]),
        lam_best=np.array([0.5]),
        loss_best=1.25,
        loss_trace=((0, 3.0), (1, 1.25)),
        iteration=1,
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
        iteration=0,
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
