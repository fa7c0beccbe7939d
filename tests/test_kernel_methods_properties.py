"""Property tests for the SVC and SVR optimality conditions.

Over exact quantum Grams of random feature maps, parameters and point
sets, the SVC multipliers with the returned intercept satisfy the
soft-margin KKT conditions, and the SVR coefficients with the returned
intercept satisfy the epsilon-tube conditions, both up to the solver's
stopping gap. An n-qubit fidelity Gram has rank at most 4**n, so with up to
12 points, and with repeated points, many of the Grams are rank-deficient.
Both fits also give the same bits as oracles.smo_oracle.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import smo_oracle, svc_kkt_violation, svr_kkt_violation
from qkflow.featuremap import DATA_AXES, ENTANGLEMENTS, TRAINABLE_AXES, FeatureMapSpec, param_count
from qkflow.kernel_methods import svc_fit, svr_fit
from qkflow.qkernel import KernelEngineConfig, gram_matrix

angles = st.floats(-np.pi, np.pi, allow_nan=False, allow_infinity=False)
capacities = st.sampled_from([0.01, 0.1, 1.0, 10.0, 100.0])


@st.composite
def quantum_grams(draw):
    spec = FeatureMapSpec(
        n_qubits=draw(st.integers(1, 3)),
        n_layers=draw(st.integers(1, 2)),
        data_axis=draw(st.sampled_from(DATA_AXES)),
        trainable_axis=draw(st.sampled_from(TRAINABLE_AXES)),
        entanglement=draw(st.sampled_from(ENTANGLEMENTS)),
        data_scaling=draw(st.floats(0.0, 2.0)),
    )
    params = np.array(draw(st.lists(angles, min_size=param_count(spec), max_size=param_count(spec))))
    m, d = draw(st.integers(2, 12)), draw(st.integers(1, 3))
    points = np.array(draw(st.lists(angles, min_size=m * d, max_size=m * d))).reshape(m, d)
    return gram_matrix(KernelEngineConfig(spec=spec, params=params), points).values


@settings(max_examples=60)
@given(quantum_grams(), st.data(), capacities)
def test_svc_meets_kkt_conditions(K, data, C):
    m = K.shape[0]
    signs = data.draw(st.lists(st.booleans(), min_size=m, max_size=m)
                      .filter(lambda s: 0 < sum(s) < len(s)))
    y = np.where(signs, 1.0, -1.0)
    model = svc_fit(K, y, C=C)
    assert svc_kkt_violation(K, y, model.alphas, model.bias, C) <= 1e-5


@settings(max_examples=60)
@given(quantum_grams(), st.data(), capacities, st.floats(0.0, 0.5))
def test_svr_meets_kkt_conditions(K, data, C, epsilon):
    m = K.shape[0]
    y = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m)))
    model = svr_fit(K, y, C=C, epsilon=epsilon)
    assert svr_kkt_violation(K, y, model.coef, model.bias, C, epsilon) <= 1e-5


def assert_same_bits(actual, expected):
    assert np.asarray(actual, dtype=float).tobytes() == np.asarray(expected, dtype=float).tobytes()


@settings(max_examples=60)
@given(quantum_grams(), st.data(), st.sampled_from([0.1, 1.0, 10.0, 100.0]), st.booleans())
def test_svc_and_svr_match_the_smo_oracle(K, data, C, skewed):
    """Also on Grams symmetric only within 1e-10, where K[:, i] != K[i, :]."""
    m = K.shape[0]
    if skewed:
        noise = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).uniform(-1, 1, K.shape)
        K = K + 1e-10 * np.triu(noise, 1)
    signs = data.draw(st.lists(st.booleans(), min_size=m, max_size=m)
                      .filter(lambda s: 0 < sum(s) < len(s)))
    y = np.where(signs, 1.0, -1.0)
    alphas, g, bias = smo_oracle(K, y, y, C)
    model = svc_fit(K, y, C=C)
    assert_same_bits(model.alphas, alphas)
    assert_same_bits(model.bias, bias)
    assert_same_bits(model.dual_objective, alphas.sum() - 0.5 * np.dot(alphas * y, g))

    targets = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m)))
    epsilon = 0.1
    z = np.concatenate([np.ones(m), -np.ones(m)])
    r = np.concatenate([targets - epsilon, targets + epsilon])
    a, _, bias = smo_oracle(np.tile(K, (2, 2)), z, r, C)
    model = svr_fit(K, targets, C=C, epsilon=epsilon)
    assert_same_bits(model.coef, a[:m] - a[m:])
    assert_same_bits(model.bias, bias)
