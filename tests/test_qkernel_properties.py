"""Property tests for the exact Gram invariants.

Over random feature maps, parameter vectors and point sets, an exact Gram
matrix is symmetric with a unit diagonal and entries in [0, 1], positive
semidefinite up to rounding, the same for the inversion and the swap test,
and the same as the cross-Gram of the point set with itself. Three metamorphic
relations hold within 4 * 2**n eps, though not bit for bit: permuting the
points permutes the Gram, a full turn of one trainable angle leaves it, and
a whole period of one data rotation leaves the Gram and the cross-Gram. The
last bound grows with the largest data angle.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qkflow.featuremap import DATA_AXES, ENTANGLEMENTS, TRAINABLE_AXES, FeatureMapSpec, param_count
from qkflow.qkernel import CIRCUIT_KINDS, KernelEngineConfig, cross_gram, gram_matrix

angles = st.floats(-np.pi, np.pi, allow_nan=False, allow_infinity=False)


@st.composite
def kernel_cases(draw, max_qubits=3, max_layers=2):
    spec = FeatureMapSpec(
        n_qubits=draw(st.integers(1, max_qubits)),
        n_layers=draw(st.integers(1, max_layers)),
        data_axis=draw(st.sampled_from(DATA_AXES)),
        trainable_axis=draw(st.sampled_from(TRAINABLE_AXES)),
        entanglement=draw(st.sampled_from(ENTANGLEMENTS)),
        data_scaling=draw(st.floats(0.0, 2.0)),
    )
    params = np.array(draw(st.lists(angles, min_size=param_count(spec), max_size=param_count(spec))))
    m, d = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    points = np.array(draw(st.lists(angles, min_size=m * d, max_size=m * d))).reshape(m, d)
    return spec, params, points


def exact_cfg(spec, params, circuit_kind):
    return KernelEngineConfig(spec=spec, params=params, circuit_kind=circuit_kind)


@settings(max_examples=40)
@given(kernel_cases(), st.sampled_from(["inversion", "swap"]))
def test_exact_gram_is_a_symmetric_psd_fidelity_matrix(case, circuit_kind):
    spec, params, X = case
    K = gram_matrix(exact_cfg(spec, params, circuit_kind), X).values
    np.testing.assert_array_equal(K, K.T)
    np.testing.assert_array_equal(np.diag(K), np.ones(len(X)))
    assert np.all((K >= 0.0) & (K <= 1.0))
    assert np.linalg.eigvalsh(K).min() >= -1e-8


@settings(max_examples=40)
@given(kernel_cases())
def test_inversion_equals_swap(case):
    spec, params, X = case
    inversion = gram_matrix(exact_cfg(spec, params, "inversion"), X).values
    swap = gram_matrix(exact_cfg(spec, params, "swap"), X).values
    np.testing.assert_allclose(inversion, swap, rtol=0.0, atol=1e-10)


@settings(max_examples=40)
@given(kernel_cases(), st.sampled_from(["inversion", "swap"]))
def test_cross_gram_with_itself_is_the_gram(case, circuit_kind):
    spec, params, X = case
    cfg = exact_cfg(spec, params, circuit_kind)
    np.testing.assert_allclose(cross_gram(cfg, X, X), gram_matrix(cfg, X).values, rtol=0.0, atol=1e-10)


# Measured over 27,000 random and hypothesis-drawn cases at 1-4 qubits and
# 1-3 layers: at most 2.0 * 2**n eps for a permutation and 3.5 * 2**n eps
# for a full turn, both at one qubit.
def rounding_bound(spec):
    return 4 * 2**spec.n_qubits * np.finfo(float).eps


@settings(max_examples=40)
@given(kernel_cases(max_qubits=4, max_layers=3), st.sampled_from(CIRCUIT_KINDS), st.data())
def test_permuting_the_points_permutes_the_gram(case, circuit_kind, data):
    spec, params, X = case
    cfg = exact_cfg(spec, params, circuit_kind)
    order = np.array(data.draw(st.permutations(range(len(X)))))
    np.testing.assert_allclose(gram_matrix(cfg, X[order]).values,
                               gram_matrix(cfg, X).values[np.ix_(order, order)],
                               rtol=0.0, atol=rounding_bound(spec))


@settings(max_examples=40)
@given(kernel_cases(max_qubits=4, max_layers=3), st.sampled_from(CIRCUIT_KINDS), st.data())
def test_a_full_turn_of_a_trainable_angle_leaves_the_gram(case, circuit_kind, data):
    """Every trainable rotation has period 2 pi up to a global phase."""
    spec, params, X = case
    turned = params.copy()
    turned[data.draw(st.integers(0, params.size - 1))] += 2.0 * np.pi
    np.testing.assert_allclose(gram_matrix(exact_cfg(spec, turned, circuit_kind), X).values,
                               gram_matrix(exact_cfg(spec, params, circuit_kind), X).values,
                               rtol=0.0, atol=rounding_bound(spec))


@settings(max_examples=40)
@given(kernel_cases(max_qubits=4, max_layers=3), st.sampled_from(CIRCUIT_KINDS), st.data())
def test_a_period_of_a_data_rotation_leaves_the_grams(case, circuit_kind, data):
    """Every data rotation has period 4 pi, so shifting one feature column by
    k * 4 pi / data_scaling, k = +-1 or +-2, leaves every entry. Rounding
    grows with the angle: over 1,500 random draws at 1-4 qubits and 1-3
    layers, the deviation reached 20.5 * 2**n eps at a 27-rad angle and at
    most 0.76 * 2**n eps * max(1, max |s x'|)."""
    spec, params, X = case
    assume(spec.data_scaling >= 0.25)
    shifted = X.copy()
    shifted[:, data.draw(st.integers(0, X.shape[1] - 1))] += (
        data.draw(st.sampled_from([-2, -1, 1, 2])) * 4.0 * np.pi / spec.data_scaling)
    bound = rounding_bound(spec) * max(1.0, np.abs(spec.data_scaling * shifted).max())
    cfg = exact_cfg(spec, params, circuit_kind)
    np.testing.assert_allclose(gram_matrix(cfg, shifted).values, gram_matrix(cfg, X).values,
                               rtol=0.0, atol=bound)
    np.testing.assert_allclose(cross_gram(cfg, shifted, X), cross_gram(cfg, X, X),
                               rtol=0.0, atol=bound)
