"""Property tests for the SVC and SVR optimality conditions.

Over exact quantum Grams of random feature maps, parameters and point
sets, the SVC multipliers with the returned intercept satisfy the
soft-margin KKT conditions, and the SVR coefficients with the returned
intercept satisfy the epsilon-tube conditions, both up to the solver's
stopping gap. An n-qubit fidelity Gram has rank at most 4**n, so with up to
12 points, and with repeated points, many of the Grams are rank-deficient.
Both fits also give the same bits as oracles.smo_oracle.

Three metamorphic relations hold on the same Grams: negating the SVC labels
mirrors every SMO step, shifting the SVR targets by t shifts the intercept
by t, and KRR is linear in its targets.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import smo_oracle, svc_kkt_violation, svr_kkt_violation, svr_smo_oracle
from qkflow.featuremap import DATA_AXES, ENTANGLEMENTS, TRAINABLE_AXES, FeatureMapSpec, param_count
from qkflow.kernel_methods import SMO_GAP, krr_fit, svc_fit, svr_fit
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


def draw_labels(data, m):
    signs = data.draw(st.lists(st.booleans(), min_size=m, max_size=m)
                      .filter(lambda s: 0 < sum(s) < len(s)))
    return np.where(signs, 1.0, -1.0)


def draw_targets(data, m):
    return np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m)))


@settings(max_examples=60)
@given(quantum_grams(), st.data(), capacities)
def test_svc_meets_kkt_conditions(K, data, C):
    m = K.shape[0]
    y = draw_labels(data, m)
    model = svc_fit(K, y, C=C)
    assert svc_kkt_violation(K, y, model.alphas, model.bias, C) <= 1e-5


@settings(max_examples=60)
@given(quantum_grams(), st.data(), capacities, st.floats(0.0, 0.5))
def test_svr_meets_kkt_conditions(K, data, C, epsilon):
    m = K.shape[0]
    y = draw_targets(data, m)
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
    y = draw_labels(data, m)
    alphas, g, bias = smo_oracle(K, y, y, C)
    model = svc_fit(K, y, C=C)
    assert_same_bits(model.alphas, alphas)
    assert_same_bits(model.bias, bias)
    assert_same_bits(model.dual_objective, alphas.sum() - 0.5 * np.dot(alphas * y, g))

    targets = draw_targets(data, m)
    coef, bias = svr_smo_oracle(K, targets, C, 0.1)
    model = svr_fit(K, targets, C=C, epsilon=0.1)
    assert_same_bits(model.coef, coef)
    assert_same_bits(model.bias, bias)


@settings(max_examples=60)
@given(quantum_grams(), st.data(), capacities)
def test_negating_the_labels_keeps_the_svc_multipliers(K, data, C):
    """On -y SMO picks the same pairs and takes the same steps, since every
    score and its negation round alike."""
    y = draw_labels(data, K.shape[0])
    model, mirrored = svc_fit(K, y, C=C), svc_fit(K, -y, C=C)
    assert_same_bits(mirrored.alphas, model.alphas)
    assert mirrored.dual_objective == model.dual_objective
    assert mirrored.bias == -model.bias


# Measured over 3,575 examples: the fit moved by at most 2.5e-6 and the
# intercept by at most 1.8e-6 from its shifted value.
@settings(max_examples=60)
@given(quantum_grams(), st.data(), capacities, st.floats(0.0, 0.5), st.floats(-5.0, 5.0))
def test_shifting_the_svr_targets_shifts_the_intercept(K, data, C, epsilon, t):
    """y -> y + t leaves the fit K coef and moves the intercept by t, within
    the solver's stopping gap. coef itself is unique only for a positive
    definite K: on a rank-deficient Gram the two fits may stop at different
    optimal duals with the same K coef."""
    y = draw_targets(data, K.shape[0])
    model = svr_fit(K, y, C=C, epsilon=epsilon)
    shifted = svr_fit(K, y + t, C=C, epsilon=epsilon)
    np.testing.assert_allclose(K @ shifted.coef, K @ model.coef, rtol=0.0, atol=10 * SMO_GAP)
    assert abs(shifted.bias - (model.bias + t)) <= 10 * SMO_GAP


# Measured over 4,742 examples: at most 0.54 of cond * eps, where
# cond = (trace K + reg) / reg bounds the condition number of K + reg I.
# Once a * y1 or b * y2 is subnormal, eps * scale underflows to 0 while each
# product in the solve still rounds by up to half the smallest subnormal,
# tiny, and an m-term sum gathers m of those: hence the absolute term
# cond * m * tiny. Over 6,000 examples with a and b drawn from subnormals as
# well, the error reached 0.17 of cond * m * tiny where that term is the
# larger, and 0.77 of the sum of both.
@settings(max_examples=60)
@given(quantum_grams(), st.data(), st.sampled_from([1e-3, 1e-2, 0.1, 1.0]),
       st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_krr_is_linear_in_the_targets(K, data, reg, a, b):
    m = K.shape[0]
    y1, y2 = draw_targets(data, m), draw_targets(data, m)
    alphas1, alphas2 = krr_fit(K, y1, reg).alphas, krr_fit(K, y2, reg).alphas
    combined = krr_fit(K, a * y1 + b * y2, reg).alphas
    scale = max(np.max(np.abs(a * alphas1)), np.max(np.abs(b * alphas2)))
    cond = (np.trace(K) + reg) / reg
    info = np.finfo(float)
    np.testing.assert_allclose(combined, a * alphas1 + b * alphas2, rtol=0.0,
                               atol=4 * cond * (info.eps * scale + m * info.smallest_subnormal))
