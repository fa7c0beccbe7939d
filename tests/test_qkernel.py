"""Quantum kernel engine tests.

The independent oracle: a 1-qubit, 1-layer RX encoding at lambda = 0 prepares
RX(x)|0>, so k(x, x') = |<0|RX(x - x')|0>|^2 = cos^2((x - x')/2). Without
entanglement the multi-qubit version factorizes into a product over qubits.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

import qkflow
from oracles import inversion_oracle, one_layer_gram_oracle, swap_oracle
from qkflow import featuremap, qkernel, statevector
from qkflow.featuremap import (
    DATA_AXES,
    ENTANGLEMENTS,
    TRAINABLE_AXES,
    FeatureMapSpec,
    param_count,
    random_params,
)
from qkflow.qkernel import (
    CIRCUIT_KINDS,
    MODES,
    PAIR_BLOCK_AMPLITUDES,
    GramMatrix,
    KernelEngineConfig,
    cross_gram,
    gram_matrix,
    kernel_value,
)
from qkflow.statevector import MAX_QUBITS


def rx_oracle(x, x2):
    return float(np.prod(np.cos((np.asarray(x) - np.asarray(x2)) / 2.0) ** 2))


def one_qubit_cfg(trainable="rz", circuit_kind="inversion", **kwargs):
    spec = FeatureMapSpec(1, 1, data_axis="rx", trainable_axis=trainable, entanglement="none")
    return KernelEngineConfig(spec=spec, params=np.zeros(1), circuit_kind=circuit_kind, **kwargs)


def random_cfg(rng, circuit_kind="inversion", **kwargs):
    spec = FeatureMapSpec(
        n_qubits=int(rng.integers(1, 4)),
        n_layers=int(rng.integers(1, 3)),
        data_axis=str(rng.choice(["rx", "ry", "rz"])),
        trainable_axis=str(rng.choice(["rx", "ry", "rz", "p"])),
        entanglement=str(rng.choice(["none", "linear_chain", "ring"])),
        data_scaling=float(rng.uniform(0.5, 1.5)),
    )
    params = rng.uniform(-np.pi, np.pi, size=param_count(spec))
    return KernelEngineConfig(spec=spec, params=params, circuit_kind=circuit_kind, **kwargs)


# exact values against the closed form


def test_matches_analytic_one_qubit_kernel():
    cfg = one_qubit_cfg()
    grid = np.linspace(-np.pi, np.pi, 9)
    for xa in grid:
        for xb in grid:
            got = kernel_value(cfg, [xa], [xb])
            assert abs(got - rx_oracle([xa], [xb])) <= 1e-10


def test_known_values():
    cfg = one_qubit_cfg()
    assert abs(kernel_value(cfg, [0.0], [np.pi])) <= 1e-12
    assert abs(kernel_value(cfg, [0.0], [np.pi / 2]) - 0.5) <= 1e-12
    assert abs(kernel_value(cfg, [0.7], [0.7]) - 1.0) <= 1e-12


def test_every_trainable_axis_is_identity_at_zero():
    for axis in ("rx", "ry", "rz", "p"):
        cfg = one_qubit_cfg(trainable=axis)
        got = kernel_value(cfg, [1.1], [-0.4])
        assert abs(got - rx_oracle([1.1], [-0.4])) <= 1e-10


def test_product_form_without_entanglement():
    spec = FeatureMapSpec(3, 1, data_axis="rx", trainable_axis="ry", entanglement="none")
    cfg = KernelEngineConfig(spec=spec, params=np.zeros(3))
    rng = np.random.default_rng(7)
    for _ in range(5):
        xa, xb = rng.uniform(-np.pi, np.pi, size=(2, 3))
        assert abs(kernel_value(cfg, xa, xb) - rx_oracle(xa, xb)) <= 1e-10


def test_single_layer_entanglers_cancel():
    """With one layer, U(x')^dag U(x) sandwiches CNOTs back to back."""
    rng = np.random.default_rng(19)
    xa, xb = rng.uniform(-np.pi, np.pi, size=(2, 3))
    for ent in ("none", "linear_chain", "ring"):
        spec = FeatureMapSpec(3, 1, data_axis="rx", trainable_axis="rz", entanglement=ent)
        cfg = KernelEngineConfig(spec=spec, params=np.zeros(3))
        assert abs(kernel_value(cfg, xa, xb) - rx_oracle(xa, xb)) <= 1e-10


def test_inversion_and_swap_agree():
    rng = np.random.default_rng(101)
    for _ in range(20):
        cfg_inv = random_cfg(rng)
        cfg_swap = KernelEngineConfig(
            spec=cfg_inv.spec, params=cfg_inv.params, circuit_kind="swap"
        )
        d = int(rng.integers(1, 4))
        xa, xb = rng.uniform(-np.pi, np.pi, size=(2, d))
        assert abs(kernel_value(cfg_inv, xa, xb) - kernel_value(cfg_swap, xa, xb)) <= 1e-10


def test_data_scaling_zero_gives_flat_kernel():
    spec = FeatureMapSpec(2, 2, data_scaling=0.0)
    rng = np.random.default_rng(3)
    for _ in range(3):
        cfg = KernelEngineConfig(spec=spec, params=rng.uniform(-np.pi, np.pi, 4))
        K = gram_matrix(cfg, rng.normal(size=(4, 2))).values
        np.testing.assert_allclose(K, np.ones((4, 4)), atol=1e-12)


def test_small_parameter_shift_moves_kernel_little():
    rng = np.random.default_rng(23)
    cfg = random_cfg(rng)
    xa, xb = rng.uniform(-np.pi, np.pi, size=(2, 2))
    base = kernel_value(cfg, xa, xb)
    for j in range(cfg.params.size):
        bumped = np.array(cfg.params)
        bumped[j] += 1e-7
        cfg_bumped = KernelEngineConfig(
            spec=cfg.spec, params=bumped, circuit_kind=cfg.circuit_kind
        )
        assert abs(kernel_value(cfg_bumped, xa, xb) - base) <= 1e-5


# Gram assembly


def test_gram_orthogonal_pair():
    cfg = one_qubit_cfg()
    K = gram_matrix(cfg, np.array([[0.0], [np.pi]]))
    np.testing.assert_allclose(K.values, np.eye(2), atol=1e-12)


def test_gram_exact_properties():
    rng = np.random.default_rng(31)
    for _ in range(5):
        cfg = random_cfg(rng, circuit_kind=str(rng.choice(["inversion", "swap"])))
        X = rng.uniform(-np.pi, np.pi, size=(int(rng.integers(2, 9)), 2))
        K = gram_matrix(cfg, X).values
        assert np.max(np.abs(K - K.T)) <= 1e-10
        assert np.all(np.diag(K) == 1.0)
        assert np.all(K >= 0.0) and np.all(K <= 1.0)
        assert np.linalg.eigvalsh((K + K.T) / 2.0).min() >= -1e-8


def test_gram_matches_kernel_value():
    rng = np.random.default_rng(37)
    cfg = random_cfg(rng)
    X = rng.uniform(-np.pi, np.pi, size=(4, 2))
    K = gram_matrix(cfg, X).values
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(K[i, j] - kernel_value(cfg, X[i], X[j])) <= 1e-12


def test_cross_gram_consistency():
    rng = np.random.default_rng(43)
    for kind in ("inversion", "swap"):
        cfg = random_cfg(rng, circuit_kind=kind)
        X = rng.uniform(-np.pi, np.pi, size=(5, 3))
        K = gram_matrix(cfg, X).values
        C = cross_gram(cfg, X, X)
        assert np.max(np.abs(K - C)) <= 1e-10


def test_cross_gram_shape_and_values():
    cfg = one_qubit_cfg()
    C = cross_gram(cfg, np.array([[0.0], [1.0], [2.0]]), np.array([[0.0], [np.pi]]))
    assert C.shape == (3, 2)
    assert abs(C[0, 0] - 1.0) <= 1e-12
    assert abs(C[0, 1]) <= 1e-12


# shot-sampled estimation


def test_shot_estimates_near_exact():
    rng = np.random.default_rng(53)
    exact_cfg = one_qubit_cfg()
    for kind in ("inversion", "swap"):
        for trial in range(5):
            xa, xb = rng.uniform(-np.pi, np.pi, size=(2, 1))
            sampled_cfg = one_qubit_cfg(
                circuit_kind=kind, mode="shots", shots=10_000, seed=trial
            )
            got = kernel_value(sampled_cfg, xa, xb)
            assert abs(got - kernel_value(exact_cfg, xa, xb)) <= 0.05
            assert 0.0 <= got <= 1.0


def test_shot_gram_is_deterministic():
    rng = np.random.default_rng(59)
    X = rng.uniform(-np.pi, np.pi, size=(4, 1))
    cfg = one_qubit_cfg(mode="shots", shots=300, seed=11)
    first = gram_matrix(cfg, X).values
    second = gram_matrix(cfg, X).values
    np.testing.assert_array_equal(first, second)
    other = gram_matrix(one_qubit_cfg(mode="shots", shots=300, seed=12), X).values
    assert np.max(np.abs(first - other)) > 0.0


def test_shot_gram_is_symmetric_with_a_unit_diagonal():
    """Each unordered pair is drawn once, so the noise keeps the Gram symmetric."""
    X = np.array([[0.0], [1.3], [2.1], [-0.4], [0.9]])
    for kind in CIRCUIT_KINDS:
        cfg = one_qubit_cfg(circuit_kind=kind, mode="shots", shots=101, seed=5)
        K = gram_matrix(cfg, X).values
        exact = gram_matrix(dataclasses.replace(cfg, mode="exact"), X).values
        assert np.max(np.abs(K - exact)) > 0.0
        np.testing.assert_array_equal(K, K.T)
        np.testing.assert_array_equal(np.diag(K), np.ones(len(X)))


@pytest.mark.parametrize("circuit_kind", CIRCUIT_KINDS)
@pytest.mark.parametrize("mode", MODES)
def test_kernel_value_is_the_one_by_one_cross_gram(mode, circuit_kind):
    rng = np.random.default_rng(61)
    spec = FeatureMapSpec(2, 2, data_axis="ry", trainable_axis="rx", entanglement="ring")
    cfg = KernelEngineConfig(
        spec=spec, params=rng.uniform(-np.pi, np.pi, param_count(spec)), mode=mode,
        shots=500 if mode == "shots" else None, seed=17, circuit_kind=circuit_kind,
    )
    for _ in range(5):
        a, b = rng.uniform(-np.pi, np.pi, size=(2, 2))
        assert kernel_value(cfg, a, b) == cross_gram(cfg, [a], [b])[0, 0]


def test_negative_seed_accepted():
    cfg = one_qubit_cfg(mode="shots", shots=100, seed=-3)
    value = kernel_value(cfg, [0.4], [1.0])
    assert 0.0 <= value <= 1.0


# agreement with a per-pair statevector reference: one-layer Grams bit for
# bit; deeper Grams and cross-Grams, which sum over 2**n amplitudes, within
# 4 * 2**n eps


def overlap_atol(n_qubits):
    """Rounding of a 2**n-term overlap sum."""
    return 4 * 2**n_qubits * np.finfo(float).eps


def reference_fidelity(cfg, xa, xb):
    """One exact inversion test, simulated gate by gate for this pair alone."""
    return min(max(inversion_oracle(cfg.spec, cfg.params, xa, xb), 0.0), 1.0)


def reference_measured(cfg, K, seed):
    """Shots mode as one draw over an exact matrix, entry by entry in C order."""
    if cfg.mode == "exact":
        return K
    counts = np.random.default_rng(seed % 2**64).binomial(
        cfg.shots, K if cfg.circuit_kind == "inversion" else 0.5 + 0.5 * K
    )
    if cfg.circuit_kind == "inversion":
        return counts / cfg.shots
    return np.clip(2.0 * counts / cfg.shots - 1.0, 0.0, 1.0)


def reference_swap(cfg, A, B):
    """|<b_j|a_i>|^2 one pair at a time; the library sums Re and Im in another order."""
    return np.array([[swap_oracle(cfg.spec, cfg.params, a, b) for b in B] for a in A])


def reference_gram_measured(cfg, K):
    """Shots mode on a Gram: one draw over the entries above the diagonal,
    row by row, mirrored below it; the diagonal is 1."""
    pairs = [(i, j) for i in range(len(K)) for j in range(i + 1, len(K))]
    drawn = reference_measured(cfg, np.array([K[i, j] for i, j in pairs]), cfg.seed)
    K = np.eye(len(K))
    for (i, j), value in zip(pairs, drawn):
        K[i, j] = K[j, i] = value
    return K


def reference_gram(cfg, X):
    K = np.eye(len(X))
    for i in range(len(X)):
        for j in range(i + 1, len(X)):
            K[i, j] = reference_fidelity(cfg, X[i], X[j])
    return reference_gram_measured(cfg, K)


def reference_cross(cfg, A, B):
    """Exact per-pair inversion tests, unmeasured."""
    return np.array([[reference_fidelity(cfg, a, b) for b in B] for a in A])


def assert_gram_matches_reference(cfg, X, K):
    """K, the Gram of X under cfg, against the per-pair inversion test. At one
    layer the exact inversion Gram simulates each pair and has the oracle's
    bits; deeper, it compares states encoded once, summing over 2**n
    amplitudes, and lies within 4 * 2**n eps of it. Shots mode is one draw
    over the library's exact Gram."""
    exact = gram_matrix(dataclasses.replace(cfg, mode="exact"), X).values
    expected = reference_gram(dataclasses.replace(cfg, mode="exact"), X)
    if cfg.spec.n_layers == 1:
        np.testing.assert_array_equal(exact, expected)
    else:
        np.testing.assert_allclose(exact, expected, rtol=0, atol=overlap_atol(cfg.spec.n_qubits))
    np.testing.assert_array_equal(K, reference_gram_measured(cfg, exact))


def assert_cross_matches_reference(cfg, Y, X):
    """The exact cross-Gram and kernel_value lie within 4 * 2**n eps of the
    per-pair inversion test; shots mode is one draw over the library's exact
    cross-Gram, for kernel_value too."""
    exact = dataclasses.replace(cfg, mode="exact")
    atol = overlap_atol(cfg.spec.n_qubits)
    K = cross_gram(exact, Y, X)
    np.testing.assert_allclose(K, reference_cross(cfg, Y, X), rtol=0, atol=atol)
    assert abs(kernel_value(exact, Y[0], X[1]) - reference_fidelity(cfg, Y[0], X[1])) <= atol
    np.testing.assert_array_equal(cross_gram(cfg, Y, X), reference_measured(cfg, K, cfg.seed))
    assert kernel_value(cfg, Y[0], X[1]) == reference_measured(cfg, K[:1, 1:2], cfg.seed)[0, 0]


AXIS_GRID = list(itertools.product(DATA_AXES, TRAINABLE_AXES, ENTANGLEMENTS))


@pytest.mark.parametrize("data_axis,trainable_axis,entanglement", AXIS_GRID)
def test_exact_kernels_match_the_per_pair_reference(data_axis, trainable_axis, entanglement):
    index = AXIS_GRID.index((data_axis, trainable_axis, entanglement))
    rng = np.random.default_rng(index)
    spec = FeatureMapSpec(
        n_qubits=1 + index % 4,
        n_layers=1 + index % 3,
        data_axis=data_axis,
        trainable_axis=trainable_axis,
        entanglement=entanglement,
        data_scaling=float(rng.uniform(0.5, 1.5)),
    )
    cfg = KernelEngineConfig(spec=spec, params=rng.uniform(-np.pi, np.pi, param_count(spec)))
    X = rng.uniform(-np.pi, np.pi, size=(5, 2))
    Y = rng.uniform(-np.pi, np.pi, size=(3, 2))
    assert_gram_matches_reference(cfg, X, gram_matrix(cfg, X).values)
    assert_cross_matches_reference(cfg, Y, X)

    swap = KernelEngineConfig(spec=spec, params=cfg.params, circuit_kind="swap")
    np.testing.assert_array_equal(cross_gram(cfg, Y, X), cross_gram(swap, Y, X))
    atol = overlap_atol(spec.n_qubits)
    expected = reference_swap(swap, X, X)
    np.fill_diagonal(expected, 1.0)
    np.testing.assert_allclose(gram_matrix(swap, X).values, expected, rtol=0, atol=atol)
    np.testing.assert_allclose(cross_gram(swap, Y, X), reference_swap(swap, Y, X), rtol=0, atol=atol)


@pytest.mark.parametrize("data_axis,trainable_axis,entanglement", AXIS_GRID)
def test_one_layer_gram_is_the_closed_form_product_of_cosines(
        data_axis, trainable_axis, entanglement):
    rng = np.random.default_rng(100 + AXIS_GRID.index((data_axis, trainable_axis, entanglement)))
    for n_qubits in (1, 3, 4):
        spec = FeatureMapSpec(n_qubits, 1, data_axis, trainable_axis, entanglement,
                              data_scaling=1.3)
        atol = 4 * 2**n_qubits * np.finfo(float).eps
        for n_features in range(1, 6):
            cfg = KernelEngineConfig(spec=spec, params=rng.uniform(-np.pi, np.pi, n_qubits))
            X = rng.uniform(-np.pi, np.pi, size=(6, n_features))
            np.testing.assert_allclose(gram_matrix(cfg, X).values,
                                       one_layer_gram_oracle(spec, cfg.params, X),
                                       rtol=0, atol=atol)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 5])
def test_shot_matrices_are_bitwise_one_draw_over_the_exact_reference(n_qubits):
    rng = np.random.default_rng(70 + n_qubits)
    spec = FeatureMapSpec(n_qubits, 2, data_axis="ry", trainable_axis="rx", entanglement="ring")
    cfg = KernelEngineConfig(
        spec=spec, params=rng.uniform(-np.pi, np.pi, param_count(spec)),
        mode="shots", shots=int(rng.integers(50, 3000)), seed=int(rng.integers(-100, 100)),
    )
    X = rng.uniform(-np.pi, np.pi, size=(4, 3))
    Y = rng.uniform(-np.pi, np.pi, size=(3, 3))
    assert_gram_matches_reference(cfg, X, gram_matrix(cfg, X).values)
    assert_cross_matches_reference(cfg, Y, X)

    # The swap test measures the library's exact swap matrices the same way.
    swap = dataclasses.replace(cfg, circuit_kind="swap")
    exact = dataclasses.replace(swap, mode="exact")
    np.testing.assert_array_equal(
        gram_matrix(swap, X).values, reference_gram_measured(swap, gram_matrix(exact, X).values)
    )
    np.testing.assert_array_equal(
        cross_gram(swap, Y, X), reference_measured(swap, cross_gram(exact, Y, X), cfg.seed)
    )


# Pair blocks: a one-layer inversion-test Gram cuts its pairs (i, j), i < j,
# into slices of PAIR_BLOCK_AMPLITUDES >> n pairs, at least one.

CHUNK_ROWS = 32  # pairs per chunk on the register below
CHUNKED_QUBITS = (PAIR_BLOCK_AMPLITUDES // CHUNK_ROWS).bit_length() - 1
WIDE_QUBITS = PAIR_BLOCK_AMPLITUDES.bit_length() - 1  # one pair fills a chunk


def recorded_chunks(monkeypatch):
    """The (amplitudes, pairs) shape of every block of pairs that one Gram runs
    through `qkernel.apply_gates`, appended to the returned list. The Gram's
    first call there encodes its points and is not recorded."""
    shapes = []
    calls = itertools.count()

    def recording(amps, *args):
        if next(calls) > 0:
            shapes.append(amps.shape)
        return statevector.apply_gates(amps, *args)

    monkeypatch.setattr(qkernel, "apply_gates", recording)
    return shapes


def chunk_cfg(n_qubits, mode):
    rng = np.random.default_rng(n_qubits)
    spec = FeatureMapSpec(n_qubits, 1, data_axis="ry", trainable_axis="rz", entanglement="ring")
    return KernelEngineConfig(
        spec=spec, params=rng.uniform(-np.pi, np.pi, param_count(spec)),
        mode=mode, shots=200 if mode == "shots" else None, seed=5,
    )


@pytest.mark.parametrize("mode", MODES)
def test_pair_blocks_spanning_many_multi_column_chunks(monkeypatch, mode):
    cfg = chunk_cfg(CHUNKED_QUBITS, mode)
    rng = np.random.default_rng(1)
    X = rng.uniform(-np.pi, np.pi, size=(CHUNK_ROWS // 2 - 2, 2))
    Y = rng.uniform(-np.pi, np.pi, size=(CHUNK_ROWS // 3, 2))
    chunks = recorded_chunks(monkeypatch)
    K = gram_matrix(cfg, X).values
    # equal chunks of CHUNK_ROWS pairs, whatever j they span; the last holds the rest
    full, rest = divmod(len(X) * (len(X) - 1) // 2, CHUNK_ROWS)
    assert chunks == [(1 << CHUNKED_QUBITS, CHUNK_ROWS)] * full + [(1 << CHUNKED_QUBITS, rest)]
    assert_gram_matches_reference(cfg, X, K)
    assert_cross_matches_reference(cfg, Y, X)


@pytest.mark.parametrize("mode", MODES)
def test_pair_blocks_with_one_column_per_chunk(monkeypatch, mode):
    cfg = chunk_cfg(WIDE_QUBITS, mode)
    rng = np.random.default_rng(2)
    X = rng.uniform(-np.pi, np.pi, size=(4, 3))
    Y = rng.uniform(-np.pi, np.pi, size=(2, 3))
    chunks = recorded_chunks(monkeypatch)
    np.testing.assert_array_equal(gram_matrix(cfg, X).values, reference_gram(cfg, X))
    assert chunks == [(PAIR_BLOCK_AMPLITUDES, 1)] * 6
    assert_cross_matches_reference(cfg, Y, X)


@pytest.mark.parametrize("n_qubits, n_points", [
    # at one qubit a block holds PAIR_BLOCK_AMPLITUDES / 2 pairs: these points make more
    (1, math.isqrt(PAIR_BLOCK_AMPLITUDES) + 2),
    (CHUNKED_QUBITS, 40), (WIDE_QUBITS - 1, 5), (WIDE_QUBITS + 1, 3),
])
def test_no_pair_block_exceeds_the_amplitude_budget(monkeypatch, n_qubits, n_points):
    """Every block of pairs holds at most max(PAIR_BLOCK_AMPLITUDES, 2**n)
    amplitudes, and each pair runs once."""
    spec = FeatureMapSpec(n_qubits, 1, data_axis="ry", trainable_axis="rz",
                          entanglement="linear_chain")
    cfg = KernelEngineConfig(spec=spec, params=np.linspace(-1.0, 1.0, n_qubits))
    X = np.random.default_rng(n_qubits).uniform(-np.pi, np.pi, size=(n_points, 2))
    chunks = recorded_chunks(monkeypatch)
    gram_matrix(cfg, X)
    budget = max(PAIR_BLOCK_AMPLITUDES, 1 << n_qubits)
    assert len(chunks) >= 2
    assert all(amplitudes * pairs <= budget for amplitudes, pairs in chunks)
    assert sum(pairs for _, pairs in chunks) == n_points * (n_points - 1) // 2


@pytest.mark.parametrize("entanglement", ENTANGLEMENTS)
@pytest.mark.parametrize("n_layers", [1, 2, 3])
@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5])
def test_inversion_gram_is_bitwise_the_per_pair_oracle(n_qubits, n_layers, entanglement):
    """At one layer the Gram skips the CNOTs that U(x_i) ends and U(x_j)^dag
    starts with, and keeps every bit of simulating each pair on its own, gate
    by gate; deeper, it compares encoded states and each entry lies within
    4 * 2**n eps of it."""
    rng = np.random.default_rng(10 * n_qubits + n_layers)
    spec = FeatureMapSpec(n_qubits, n_layers,
                          data_axis=DATA_AXES[(n_qubits + n_layers) % len(DATA_AXES)],
                          trainable_axis=TRAINABLE_AXES[n_qubits * n_layers % len(TRAINABLE_AXES)],
                          entanglement=entanglement, data_scaling=float(rng.uniform(0.5, 1.5)))
    cfg = KernelEngineConfig(spec=spec, params=rng.uniform(-np.pi, np.pi, param_count(spec)))
    X = rng.uniform(-np.pi, np.pi, size=(6, 3))
    assert_gram_matches_reference(cfg, X, gram_matrix(cfg, X).values)


@pytest.mark.parametrize("entanglement", ENTANGLEMENTS)
@pytest.mark.parametrize("n_layers", [1, 2, 3])
def test_inversion_gram_cancels_the_shared_entangler(monkeypatch, n_layers, entanglement):
    """Counted work. A one-layer Gram encodes its points once, 2n rotations
    and no CNOT, and every slice of pairs runs the adjoint of those 2n
    rotations and no CNOT: the entangler that ends U(x_i) cancels the one
    that starts U(x_j)^dag. A deeper Gram encodes its points once, every
    layer with its entangler, and runs no pair."""
    n, m = 3, 7
    spec = FeatureMapSpec(n, n_layers, data_axis="ry", trainable_axis="rx",
                          entanglement=entanglement)
    cfg = KernelEngineConfig(spec=spec, params=np.linspace(-1.0, 1.0, param_count(spec)))
    X = np.random.default_rng(4).uniform(-np.pi, np.pi, size=(m, 2))
    calls, cnots = [], []
    apply_cnot = statevector._apply_cnot_inplace

    def recording(amps, n_qubits, gates):
        gates = list(gates)
        calls.append((amps.shape[1], [kind for kind, _, _ in gates]))
        return statevector.apply_gates(amps, n_qubits, gates)

    def counting_cnot(amps, *args):
        cnots.append(amps.shape[1])
        return apply_cnot(amps, *args)

    monkeypatch.setattr(featuremap, "apply_gates", recording)
    monkeypatch.setattr(qkernel, "apply_gates", recording)
    monkeypatch.setattr(statevector, "_apply_cnot_inplace", counting_cnot)
    K = gram_matrix(cfg, X).values
    entangler = ["cnot"] * len(featuremap._entangler_pairs(spec))
    layer = ["rx"] * n + ["ry"] * n
    (encode_columns, encode), *slices = calls
    assert encode_columns == m
    if n_layers == 1:
        assert encode == layer
        assert slices and all(kinds == layer[::-1] for _, kinds in slices)
        assert sum(pairs for pairs, _ in slices) == m * (m - 1) // 2
        assert cnots == []
    else:
        assert encode == (layer + entangler) * n_layers
        assert slices == []
        assert cnots == [m] * n_layers * len(entangler)
    assert_gram_matches_reference(cfg, X, K)


@pytest.mark.parametrize("n_qubits", [CHUNKED_QUBITS, WIDE_QUBITS - 1])
def test_an_inversion_entry_has_its_bits_in_every_slice(n_qubits):
    """A one-layer entry is amplitude |0...0> of its own pair's column: each
    entry of a Gram is the 2-point Gram of its pair bit for bit, and each
    order-preserving sub-block of all points but one is the Gram of its
    points, although the pairs sit at other positions of other slices
    (CHUNK_ROWS columns a slice at CHUNKED_QUBITS, two at WIDE_QUBITS - 1)."""
    spec = FeatureMapSpec(n_qubits, 1, data_axis="rx", trainable_axis="ry", entanglement="ring")
    cfg = KernelEngineConfig(
        spec=spec, params=np.random.default_rng(n_qubits).uniform(-np.pi, np.pi, param_count(spec)))
    m = 12 if n_qubits == CHUNKED_QUBITS else 5
    X = np.random.default_rng(3).uniform(-np.pi, np.pi, size=(m, 3))
    K = gram_matrix(cfg, X).values
    assert (m * (m - 1) // 2) * (1 << n_qubits) > 2 * PAIR_BLOCK_AMPLITUDES  # three slices or more
    for keep in itertools.chain(itertools.combinations(range(m), 2),
                                itertools.combinations(range(m), m - 1)):
        keep = list(keep)
        assert K[keep][:, keep].tobytes() == gram_matrix(cfg, X[keep]).values.tobytes()


@pytest.mark.parametrize("data_axis,trainable_axis,entanglement", AXIS_GRID)
def test_a_deep_inversion_gram_is_bitwise_the_swap_gram_and_the_cross_gram(
        data_axis, trainable_axis, entanglement):
    """From two layers on, the exact inversion Gram compares encoded states as
    the swap Gram and the cross-Gram do: it has the swap Gram's bits, and
    above its diagonal those of the cross-Gram of its points with themselves.
    (Below it the Gram mirrors; the cross-Gram sums Im<b|a> and Im<a|b> in
    different orders, so it need not be symmetric to the bit.)"""
    rng = np.random.default_rng(200 + AXIS_GRID.index((data_axis, trainable_axis, entanglement)))
    above = np.triu_indices(6, 1)
    for n_qubits, n_layers in itertools.product(range(1, 6), (2, 3)):
        spec = FeatureMapSpec(n_qubits, n_layers, data_axis, trainable_axis, entanglement,
                              data_scaling=float(rng.uniform(0.5, 1.5)))
        cfg = KernelEngineConfig(spec=spec, params=rng.uniform(-np.pi, np.pi, param_count(spec)))
        X = rng.uniform(-np.pi, np.pi, size=(6, 3))
        K = gram_matrix(cfg, X).values
        swap = gram_matrix(dataclasses.replace(cfg, circuit_kind="swap"), X).values
        assert K.tobytes() == swap.tobytes()
        assert K[above].tobytes() == cross_gram(cfg, X, X)[above].tobytes()


@pytest.mark.parametrize("circuit_kind", CIRCUIT_KINDS)
@pytest.mark.parametrize("mode", MODES)
def test_cross_gram_encodes_each_point_once_and_simulates_no_pair(monkeypatch, mode,
                                                                  circuit_kind):
    cfg = random_cfg(np.random.default_rng(8), circuit_kind=circuit_kind, mode=mode,
                     shots=100 if mode == "shots" else None)
    rng = np.random.default_rng(9)
    A = rng.uniform(-np.pi, np.pi, size=(5, 2))
    B = rng.uniform(-np.pi, np.pi, size=(7, 2))
    encoded = []

    def counting(spec, points, params):
        encoded.append(len(points))
        return featuremap.encode_states(spec, points, params)

    def no_pairs(*args):
        raise AssertionError("a cross-Gram ran a per-pair inversion test")

    monkeypatch.setattr(qkernel, "encode_states", counting)
    monkeypatch.setattr(qkernel, "_inversion_tests", no_pairs)
    assert cross_gram(cfg, A, B).shape == (len(A), len(B))
    assert sum(encoded) == len(A) + len(B)
    encoded.clear()
    kernel_value(cfg, A[0], B[0])
    assert sum(encoded) == 2


@pytest.mark.parametrize("circuit_kind", CIRCUIT_KINDS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("entanglement", ENTANGLEMENTS)
def test_kernels_build_no_gate_or_circuit(monkeypatch, circuit_kind, mode, entanglement):
    """The kernels reach the simulator only through `apply_gates`, and hand it
    plain (kind, targets, matrices) triples: no gate or circuit objects. Every
    gate that the simulator runs is one of those."""
    assert not any(hasattr(module, name) for module in (qkflow, statevector, featuremap)
                   for name in ("Gate", "Circuit", "StateVector"))
    spec = FeatureMapSpec(3, 2, data_axis="rx", trainable_axis="p", entanglement=entanglement)
    cfg = KernelEngineConfig(
        spec=spec, params=np.linspace(-1.0, 1.0, param_count(spec)), mode=mode,
        shots=50 if mode == "shots" else None, circuit_kind=circuit_kind,
    )
    X = np.random.default_rng(3).uniform(-np.pi, np.pi, size=(4, 2))
    seen, ran = [], []

    def recording(entry):
        def record(amps, n_qubits, gates):
            gates = list(gates)
            seen.extend(gates)
            return entry(amps, n_qubits, gates)
        return record

    def running(kernel):
        def run(*args):
            ran.append(kernel.__name__)
            return kernel(*args)
        return run

    monkeypatch.setattr(featuremap, "apply_gates", recording(statevector.apply_gates))
    monkeypatch.setattr(qkernel, "apply_gates", recording(statevector.apply_gates))
    for name in ("_apply_single_inplace", "_apply_cnot_inplace"):
        monkeypatch.setattr(statevector, name, running(getattr(statevector, name)))
    assert gram_matrix(cfg, X).values.shape == (4, 4)
    assert cross_gram(cfg, X[:2], X).shape == (2, 4)
    assert 0.0 <= kernel_value(cfg, X[0], X[1]) <= 1.0
    assert seen and len(seen) == len(ran)
    for gate in seen:
        assert type(gate) is tuple and len(gate) == 3
        kind, targets, matrices = gate
        assert all(type(t) is int for t in targets)
        if kind == "cnot":
            assert matrices is None
        else:
            assert kind in ("rx", "p") and isinstance(matrices, np.ndarray)
            assert matrices.shape[1:] == (2, 2)


def test_qubit_bound_is_checked_through_the_kernel_api():
    spec = FeatureMapSpec(MAX_QUBITS + 1, 1)
    cfg = KernelEngineConfig(spec=spec, params=np.zeros(param_count(spec)))
    X = np.zeros((2, 1))
    with pytest.raises(ValueError, match="1 to 20 qubits"):
        gram_matrix(cfg, X)
    with pytest.raises(ValueError, match="1 to 20 qubits"):
        cross_gram(cfg, X, X)
    with pytest.raises(ValueError, match="1 to 20 qubits"):
        kernel_value(cfg, [0.1], [0.2])


# configuration


def test_config_validation():
    spec = FeatureMapSpec(2, 1)
    with pytest.raises(ValueError):
        KernelEngineConfig(spec=spec, params=np.zeros(3))
    with pytest.raises(ValueError):
        KernelEngineConfig(spec=spec, params=np.zeros(2), mode="shots")
    with pytest.raises(ValueError):
        KernelEngineConfig(spec=spec, params=np.zeros(2), mode="sampled")
    with pytest.raises(ValueError):
        KernelEngineConfig(spec=spec, params=np.zeros(2), circuit_kind="bell")


def test_template_config_requires_binding():
    for spec in (FeatureMapSpec(1, 1), FeatureMapSpec(2, 2)):
        with pytest.raises(ValueError, match="parameter vector"):
            KernelEngineConfig(spec=spec, params=None)


def test_dimension_mismatch():
    """kernel_value checks its points as the 1x1 cross_gram does."""
    cfg = one_qubit_cfg()
    with pytest.raises(ValueError, match="feature dimensions differ: 2 vs 1"):
        kernel_value(cfg, [0.1, 0.2], [0.3])
    with pytest.raises(ValueError, match="data_new must be a non-empty 2-D array of points"):
        kernel_value(cfg, [], [0.3])
    with pytest.raises(ValueError, match="data_train contains non-finite values"):
        kernel_value(cfg, [0.3], [np.nan])
    with pytest.raises(ValueError):
        cross_gram(cfg, np.ones((2, 2)), np.ones((2, 3)))


def test_gram_matrix_type_validation():
    with pytest.raises(ValueError):
        GramMatrix(values=np.ones((2, 3)))
    with pytest.raises(ValueError):
        GramMatrix(values=np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_random_params_binds():
    spec = FeatureMapSpec(2, 2)
    cfg = KernelEngineConfig(spec=spec, params=random_params(spec, seed=1))
    assert 0.0 <= kernel_value(cfg, [0.1, 0.2], [0.3, 0.4]) <= 1.0
