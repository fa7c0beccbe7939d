import numpy as np
import pytest

from oracles import smo_oracle, svc_dual_oracle, svc_kkt_violation, svr_kkt_violation, two_blobs
from qkflow.classical_kernels import ClassicalKernel, classical_cross, classical_gram
from qkflow.datasets import gen_synthetic
from qkflow.featuremap import FeatureMapSpec, param_count
from qkflow.kernel_methods import (
    SUPPORT_THRESHOLD,
    TrainedSVC,
    _smo_steps,
    kernel_kmeans,
    kpca_fit,
    krr_fit,
    krr_predict,
    svc_decision,
    svc_fit,
    svc_predict,
    svr_fit,
    svr_predict,
)
from qkflow.qkernel import KernelEngineConfig, gram_matrix


def random_spd_kernel(m, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, m + 2))
    K = X @ X.T / (m + 2)
    return K / np.max(np.diag(K))


# SVC


def test_svc_two_point_analytic():
    # linear kernel on x = +1 and x = -1 gives K = [[1,-1],[-1,1]]; the dual
    # along the equality constraint is 2a - 2a^2, maximized at a = 1/2
    K = np.array([[1.0, -1.0], [-1.0, 1.0]])
    model = svc_fit(K, [1.0, -1.0], C=1.0)
    assert np.allclose(model.alphas, [0.5, 0.5], atol=1e-9)
    assert abs(model.bias) <= 1e-9
    assert abs(model.dual_objective - 0.5) <= 1e-9
    assert list(model.support_indices) == [0, 1]


def test_svc_duplicate_contradictory_points():
    # identical points with opposite labels: both multipliers saturate at C
    K = np.ones((2, 2))
    C = 2.5
    model = svc_fit(K, [1.0, -1.0], C=C)
    assert np.allclose(model.alphas, [C, C], atol=1e-9)
    assert abs(model.dual_objective - 2.0 * C) <= 1e-9
    assert model.bias == 0.0


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_svc_matches_enumeration_oracle(seed):
    rng = np.random.default_rng(seed)
    K = random_spd_kernel(4, seed + 100)
    y = np.array([1.0, 1.0, -1.0, -1.0])
    C = float(rng.uniform(0.5, 3.0))
    model = svc_fit(K, y, C=C)
    _, best_obj = svc_dual_oracle(K, y, C)
    assert model.dual_objective <= best_obj + 1e-6
    assert model.dual_objective >= best_obj - 1e-5
    assert svc_kkt_violation(K, y, model.alphas, model.bias, C) <= 1e-4


def test_svc_constraints_hold():
    K = random_spd_kernel(8, 7)
    y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    C = 1.5
    model = svc_fit(K, y, C=C)
    assert np.all(model.alphas >= 0.0)
    assert np.all(model.alphas <= C)
    assert abs(np.dot(model.alphas, y)) <= 1e-8
    expected_support = np.flatnonzero(model.alphas > 1e-9)
    assert np.array_equal(model.support_indices, expected_support)


def test_svc_xor_with_gaussian_kernel():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    kern = ClassicalKernel.gaussian_metric(gamma=1.0)
    K = classical_gram(kern, X)
    model = svc_fit(K, y, C=10.0)
    preds = svc_predict(model, classical_cross(kern, X, X))
    assert np.array_equal(preds, y)


def test_svc_separable_blobs_linear_kernel():
    X, y = two_blobs(5, 0.4, seed=11)
    kern = ClassicalKernel.linear()
    model = svc_fit(classical_gram(kern, X), y, C=1.0)
    preds = svc_predict(model, classical_cross(kern, X, X))
    assert np.array_equal(preds, y)
    # the margin constraint holds on every training point up to tolerance
    margins = y * svc_decision(model, classical_cross(kern, X, X))
    assert np.all(margins >= 1.0 - 1e-4)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_svc_bias_without_free_support_vectors_meets_kkt(seed):
    # every multiplier ends at 0 or C, so no margin point pins the intercept
    ds = gen_synthetic("hidden_rotation", 20, seed)
    cfg = KernelEngineConfig(spec=FeatureMapSpec(1, 1), params=np.array([0.0]))
    K = gram_matrix(cfg, ds.features).values
    C = 0.1
    model = svc_fit(K, ds.labels, C=C)
    free = (model.alphas > SUPPORT_THRESHOLD) & (model.alphas < C - SUPPORT_THRESHOLD)
    assert not free.any()
    assert svc_kkt_violation(K, ds.labels, model.alphas, model.bias, C) <= 1e-8


def test_svc_decision_tie_predicts_positive():
    model = TrainedSVC(
        alphas=np.array([0.5, 0.5]),
        labels=np.array([1.0, -1.0]),
        bias=0.0,
        C=1.0,
        dual_objective=0.5,
    )
    decision = svc_decision(model, np.array([[1.0, 1.0]]))
    assert decision[0] == 0.0
    assert svc_predict(model, np.array([[1.0, 1.0]]))[0] == 1.0


def test_svc_input_validation():
    K = np.eye(2)
    with pytest.raises(ValueError):
        svc_fit(K, [1.0, 2.0], C=1.0)  # labels must be +-1
    with pytest.raises(ValueError):
        svc_fit(K, [1.0, 1.0], C=1.0)  # one class only
    with pytest.raises(ValueError):
        svc_fit(K, [1.0, -1.0], C=0.0)
    with pytest.raises(ValueError):
        svc_fit(np.ones((2, 3)), [1.0, -1.0], C=1.0)
    with pytest.raises(ValueError):
        svc_fit(np.array([[1.0, 0.5], [0.0, 1.0]]), [1.0, -1.0], C=1.0)
    with pytest.raises(ValueError):
        svc_fit(np.array([[np.nan, 0.0], [0.0, 1.0]]), [1.0, -1.0], C=1.0)
    model = svc_fit(K, [1.0, -1.0], C=1.0)
    with pytest.raises(ValueError):
        svc_decision(model, np.ones((1, 3)))


# KRR


def test_krr_one_point_values():
    assert np.allclose(krr_fit(np.array([[1.0]]), [2.0], reg=1.0).alphas, [1.0])
    assert np.allclose(krr_fit(np.array([[1.0]]), [2.0], reg=0.0).alphas, [2.0])


def test_krr_identity_kernel_recovers_targets():
    y = np.array([3.0, -1.0, 0.5])
    model = krr_fit(np.eye(3), y, reg=0.0)
    assert np.allclose(model.alphas, y, atol=1e-12)


def test_krr_residual_invariant():
    for seed in range(4):
        K = random_spd_kernel(9, seed)
        rng = np.random.default_rng(seed + 50)
        y = rng.normal(size=9)
        for reg in (0.0, 1e-6, 1e-2):
            model = krr_fit(K, y, reg=reg)
            residual = y - (K + reg * np.eye(9)) @ model.alphas
            assert np.max(np.abs(residual)) <= 1e-8


def test_krr_interpolates_at_zero_reg():
    K = random_spd_kernel(6, 21)
    rng = np.random.default_rng(22)
    y = rng.normal(size=6)
    model = krr_fit(K, y, reg=0.0)
    assert np.allclose(krr_predict(model, K), y, atol=1e-8)


def test_krr_singular_needs_regularization():
    for m in (2, 3):
        K = np.ones((m, m))
        y = np.arange(1.0, m + 1.0)
        with pytest.raises(ValueError, match=r"singular: K \+ reg\*I is not positive definite at reg=0$"):
            krr_fit(K, y, reg=0.0)
        with pytest.raises(ValueError, match=r"not positive definite at reg=0.5$"):
            krr_fit(K - np.eye(m), y, reg=0.5)
        model = krr_fit(K, y, reg=0.5)
        assert np.all(np.isfinite(model.alphas))


def test_krr_regularization_shrinks_solution():
    K = random_spd_kernel(7, 33)
    rng = np.random.default_rng(34)
    y = rng.normal(size=7)
    small = krr_fit(K, y, reg=1e-4)
    large = krr_fit(K, y, reg=10.0)
    assert np.linalg.norm(large.alphas) < np.linalg.norm(small.alphas)


def test_krr_input_validation():
    with pytest.raises(ValueError):
        krr_fit(np.eye(2), [1.0, 2.0], reg=-1.0)
    with pytest.raises(ValueError):
        krr_fit(np.eye(2), [1.0], reg=0.1)
    with pytest.raises(ValueError):
        krr_fit(np.eye(2), [np.inf, 1.0], reg=0.1)


# SVR


def test_svr_constant_targets_fit_by_bias_alone():
    K = random_spd_kernel(5, 3)
    y = np.full(5, 2.0)
    model = svr_fit(K, y, C=1.0, epsilon=0.5)
    assert np.max(np.abs(model.coef)) <= 1e-9
    assert abs(model.bias - 2.0) <= 1e-9
    assert np.allclose(svr_predict(model, K), y, atol=1e-8)


def test_svr_dual_feasibility():
    X, _ = two_blobs(4, 0.5, seed=9)
    rng = np.random.default_rng(10)
    y = rng.normal(size=8)
    kern = ClassicalKernel.gaussian_metric(gamma=0.5)
    K = classical_gram(kern, X)
    C = 2.0
    model = svr_fit(K, y, C=C, epsilon=0.1)
    assert np.all(np.abs(model.coef) <= C + 1e-10)
    assert abs(model.coef.sum()) <= 1e-8


def test_svr_in_tube_points_are_inactive():
    x = np.linspace(-1.0, 1.0, 9).reshape(-1, 1)
    y = x.ravel() + 0.05 * np.sin(5.0 * x.ravel())
    kern = ClassicalKernel.gaussian_metric(gamma=1.0)
    K = classical_gram(kern, x)
    epsilon = 0.3
    model = svr_fit(K, y, C=10.0, epsilon=epsilon)
    residuals = np.abs(y - svr_predict(model, K))
    active = np.abs(model.coef) > 1e-4
    # multipliers only activate on or outside the tube boundary
    assert np.all(residuals[active] >= epsilon - 1e-2)
    strictly_inside = residuals < epsilon - 1e-2
    assert np.all(np.abs(model.coef[strictly_inside]) <= 1e-4)
    assert strictly_inside.any()


def test_svr_large_capacity_tracks_targets_within_tube():
    rng = np.random.default_rng(17)
    x = np.linspace(0.0, 2.0, 10).reshape(-1, 1)
    y = np.sin(2.0 * x.ravel()) + 0.01 * rng.normal(size=10)
    kern = ClassicalKernel.gaussian_metric(gamma=2.0)
    K = classical_gram(kern, x)
    epsilon = 0.1
    model = svr_fit(K, y, C=100.0, epsilon=epsilon)
    residuals = np.abs(y - svr_predict(model, K))
    assert np.max(residuals) <= epsilon + 1e-3


def test_svr_converges_on_quantum_kernel_at_large_capacity():
    ds = gen_synthetic("circles", 40, 0)
    cfg = KernelEngineConfig(spec=FeatureMapSpec(2, 2), params=np.zeros(4))
    K = gram_matrix(cfg, ds.features).values
    C, epsilon = 100.0, 0.1
    model = svr_fit(K, ds.labels, C=C, epsilon=epsilon)
    assert svr_kkt_violation(K, ds.labels, model.coef, model.bias, C, epsilon) <= 1e-5


def test_svr_converges_on_a_rank_three_gram_that_hits_the_iteration_cap():
    """A draw of test_svc_and_svr_match_the_smo_oracle on which first-order SMO
    runs to its iteration cap, so svr_fit converges by its second-order pass;
    a cap warning there would be an error under pyproject's filterwarnings."""
    spec = FeatureMapSpec(2, 1, data_axis="rz", trainable_axis="rx", entanglement="none",
                          data_scaling=0.602)
    cfg = KernelEngineConfig(spec=spec, params=np.array([0.0, -1.8717022693034826]))
    points = np.array([[-2.775397130999931], [0.0], [-2.1400747019288433e-06],
                       [-0.9576443374773813], [-2.2343774055323338]])
    targets = np.array([-1.9953507612116326, 0.0, 0.0, 1.571617797865093, 1.6661511165112053])
    K = gram_matrix(cfg, points).values
    assert np.linalg.matrix_rank(K) == 3
    z = np.concatenate([np.ones(5), -np.ones(5)])
    r = np.concatenate([targets - 0.1, targets + 0.1])
    assert not _smo_steps(np.tile(K, (2, 2)), z, r, 100.0, second_order=False)[1]
    model = svr_fit(K, targets, C=100.0, epsilon=0.1)
    assert svr_kkt_violation(K, targets, model.coef, model.bias, 100.0, 0.1) <= 1e-5


def test_svc_converges_on_a_rank_seven_gram_that_hits_the_iteration_cap():
    """A draw of test_svc_and_svr_match_the_smo_oracle (C=100, skewed) on which
    first-order SMO runs to its iteration cap, so svc_fit converges by its
    second-order pass; a cap warning there would be an error under
    pyproject's filterwarnings. The unskewed Gram caps too."""
    spec = FeatureMapSpec(2, 1, data_axis="rx", trainable_axis="rx", entanglement="none",
                          data_scaling=1.5)
    cfg = KernelEngineConfig(spec=spec, params=np.array([-6.103515625e-05, -1.29951609289366e-268]))
    points = np.array([
        [-5.2745730220763415e-149, -0.9596947895516519], [-1.519240881546421, 3.141592653589793],
        [1.0497889075001464e-119, 6.103515625e-05], [-2.401190808306232, -3.0268896371376823],
        [-0.6916681928571298, 2.215847137544879e-95], [9.786508785916757e-193, -1.9134463489485107],
        [-5.3434726407579935e-183, 2.0471796092915957], [9.786508785916757e-193, 5.3067066588593815e-90],
        [6.103515625e-05, 1e-09], [-1.555112957372139, -1.5808037603671817e-09],
        [-3.141592653589793, 2.5810982112133954e-223], [-2.4466698098894515, 0.0],
    ])
    labels = np.array([-1.0, -1.0, -1.0, 1.0, -1.0, -1.0, -1.0, -1.0, 1.0, -1.0, -1.0, -1.0])
    K = gram_matrix(cfg, points).values
    assert np.linalg.matrix_rank(K) == 7
    K = K + 1e-10 * np.triu(np.random.default_rng(0).uniform(-1, 1, K.shape), 1)
    assert not _smo_steps(K, labels, labels, 100.0, second_order=False)[1]
    model = svc_fit(K, labels, C=100.0)
    assert svc_kkt_violation(K, labels, model.alphas, model.bias, 100.0) <= 1e-5


# the benchmark's own Grams against oracles.smo_oracle, which rebuilds both
# candidate masks every step; the hypothesis property covers m <= 12


def assert_same_bits(actual, expected):
    assert np.asarray(actual, dtype=float).tobytes() == np.asarray(expected, dtype=float).tobytes()


def assert_svc_matches_the_smo_oracle(K, labels, C):
    alphas, g, bias = smo_oracle(K, labels, labels, C)
    model = svc_fit(K, labels, C=C)
    assert_same_bits(model.alphas, alphas)
    assert_same_bits(model.bias, bias)
    assert_same_bits(model.dual_objective, alphas.sum() - 0.5 * np.dot(alphas * labels, g))


@pytest.mark.parametrize("seed", [1, 7])
def test_svc_matches_the_smo_oracle_on_an_8_qubit_3_layer_gram(seed):
    """The `wide` training Gram: 60 circles, 8 qubits x 3 layers, angles 0, C=1."""
    ds = gen_synthetic("circles", 60, seed)
    spec = FeatureMapSpec(8, 3)
    K = gram_matrix(KernelEngineConfig(spec=spec, params=np.zeros(param_count(spec))),
                    ds.features).values
    assert_svc_matches_the_smo_oracle(K, ds.labels, 1.0)


@pytest.mark.parametrize("angle", [0.0, 1.3, -2.2, 78.55])
def test_svc_matches_the_smo_oracle_on_a_1_qubit_1_layer_gram(angle):
    """An `align` dual of the `pipeline` run: 40 hidden_rotation points (seed
    7), 1 qubit x 1 layer, C=10, at a few trainable angles (78.55 is about the
    README embedding's)."""
    ds = gen_synthetic("hidden_rotation", 40, 7)
    K = gram_matrix(KernelEngineConfig(spec=FeatureMapSpec(), params=np.array([angle])),
                    ds.features).values
    assert_svc_matches_the_smo_oracle(K, ds.labels, 10.0)


@pytest.mark.parametrize("seed", [1, 7])
def test_svr_matches_the_smo_oracle_on_a_2_qubit_2_layer_gram(seed):
    """The `regress` training Gram: 40 circles, 2 qubits x 2 layers, C=100, epsilon 0.1."""
    ds = gen_synthetic("circles", 40, seed)
    K = gram_matrix(KernelEngineConfig(spec=FeatureMapSpec(2, 2), params=np.zeros(4)),
                    ds.features).values
    m, epsilon = 40, 0.1
    z = np.concatenate([np.ones(m), -np.ones(m)])
    r = np.concatenate([ds.labels - epsilon, ds.labels + epsilon])
    a, _, bias = smo_oracle(np.tile(K, (2, 2)), z, r, 100.0)
    model = svr_fit(K, ds.labels, C=100.0, epsilon=epsilon)
    assert_same_bits(model.coef, a[:m] - a[m:])
    assert_same_bits(model.bias, bias)


def test_svr_input_validation():
    K = np.eye(3)
    y = [1.0, 2.0, 3.0]
    with pytest.raises(ValueError):
        svr_fit(K, y, C=0.0, epsilon=0.1)
    with pytest.raises(ValueError):
        svr_fit(K, y, C=1.0, epsilon=-0.1)
    with pytest.raises(ValueError):
        svr_fit(K, [1.0, 2.0], C=1.0, epsilon=0.1)


# kernel PCA


def test_kpca_linear_kernel_matches_classical_pca():
    rng = np.random.default_rng(41)
    X = rng.normal(size=(10, 3)) @ np.diag([3.0, 1.0, 0.2])
    K = classical_gram(ClassicalKernel.linear(), X)
    model = kpca_fit(K, n_components=3)
    Xc = X - X.mean(axis=0)
    _, singular, vt = np.linalg.svd(Xc, full_matrices=False)
    scores = Xc @ vt.T
    for j in range(3):
        col = model.train_projections[:, j]
        ref = scores[:, j]
        sign = 1.0 if np.dot(col, ref) >= 0 else -1.0
        assert np.allclose(sign * col, ref, atol=1e-8)


def test_kpca_eigenvalues_descending_and_column_energy():
    rng = np.random.default_rng(43)
    X = rng.normal(size=(9, 4))
    K = classical_gram(ClassicalKernel.gaussian_metric(gamma=0.4), X)
    model = kpca_fit(K, n_components=5)
    assert np.all(np.diff(model.eigenvalues) <= 1e-12)
    assert np.all(model.eigenvalues > 0)
    # squared column norm of the projections equals the eigenvalue
    energies = np.sum(model.train_projections**2, axis=0)
    assert np.allclose(energies, model.eigenvalues, atol=1e-8)


def test_kpca_rank_error():
    rng = np.random.default_rng(44)
    X = rng.normal(size=(5, 2))
    K = classical_gram(ClassicalKernel.linear(), X)
    model = kpca_fit(K, n_components=2)
    assert model.eigenvalues.shape == (2,) and model.train_projections.shape == (5, 2)
    with pytest.raises(ValueError):
        kpca_fit(K, n_components=3)
    with pytest.raises(ValueError):
        kpca_fit(K, n_components=0)


# kernel k-means


def test_kmeans_separates_two_blobs():
    X, y = two_blobs(6, 0.3, seed=3)
    K = classical_gram(ClassicalKernel.gaussian_metric(gamma=0.5), X)
    assign, _ = kernel_kmeans(K, n_clusters=2, seed=0)
    first = assign[:6]
    second = assign[6:]
    assert len(set(first.tolist())) == 1
    assert len(set(second.tolist())) == 1
    assert first[0] != second[0]


def test_kmeans_objective_trace_non_increasing():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(14, 2))
    K = classical_gram(ClassicalKernel.gaussian_metric(gamma=0.8), X)
    assign, trace = kernel_kmeans(K, n_clusters=3, seed=5)
    assert len(trace) >= 1
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
    assert assign.shape == (14,)


def test_kmeans_deterministic_per_seed():
    X, _ = two_blobs(5, 0.6, seed=12)
    K = classical_gram(ClassicalKernel.gaussian_metric(gamma=0.5), X)
    a, trace_a = kernel_kmeans(K, n_clusters=2, seed=123)
    b, trace_b = kernel_kmeans(K, n_clusters=2, seed=123)
    assert np.array_equal(a, b)
    assert trace_a == trace_b


def test_kmeans_extreme_cluster_counts():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(6, 2))
    K = classical_gram(ClassicalKernel.linear(), X)
    one, trace_one = kernel_kmeans(K, n_clusters=1, seed=0)
    assert np.all(one == 0)
    values = K.values
    scatter = float(np.trace(values) - values.sum() / 6)
    assert abs(trace_one[-1] - scatter) <= 1e-8
    full, trace_full = kernel_kmeans(K, n_clusters=6, seed=0)
    assert sorted(full.tolist()) == [0, 1, 2, 3, 4, 5]
    assert trace_full[-1] <= 1e-10


def test_kmeans_invalid_cluster_count():
    K = np.eye(4)
    with pytest.raises(ValueError):
        kernel_kmeans(K, n_clusters=0, seed=0)
    with pytest.raises(ValueError):
        kernel_kmeans(K, n_clusters=5, seed=0)
