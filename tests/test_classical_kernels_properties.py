"""Property tests for the classical kernel blocks.

Over every kernel kind and random point sets, a Gram matrix is exactly
symmetric, a Gaussian Gram has an exactly unit diagonal, and every Gram and
cross entry agrees with the per-pair reference to rounding.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import classical_entry_oracle
from qkflow.classical_kernels import CLASSICAL_KINDS, ClassicalKernel, classical_cross, classical_gram

coords = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False, allow_subnormal=False)


def matrices(draw, rows, cols):
    return np.array(draw(st.lists(coords, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)


def unit_rows(points):
    # a row too short to normalize is replaced by the all-ones direction
    points = np.where(np.linalg.norm(points, axis=1, keepdims=True) > 1e-3, points, 1.0)
    return points / np.linalg.norm(points, axis=1, keepdims=True)


@st.composite
def kernel_cases(draw):
    d = draw(st.integers(1, 5))
    left = matrices(draw, draw(st.integers(1, 40)), d)
    right = matrices(draw, draw(st.integers(1, 40)), d)
    kind = draw(st.sampled_from(CLASSICAL_KINDS))
    if kind == "linear":
        kernel = ClassicalKernel.linear(c=draw(coords))
    elif kind == "polynomial":
        kernel = ClassicalKernel.polynomial(c=draw(coords), degree=draw(st.integers(1, 4)))
    elif kind == "exponential":
        kernel = ClassicalKernel.exponential(sigma=draw(st.floats(0.1, 5.0)))
        left, right = unit_rows(left), unit_rows(right)
    else:
        transform = matrices(draw, d, d) if draw(st.booleans()) else None
        kernel = ClassicalKernel.gaussian_metric(gamma=draw(st.floats(0.05, 2.0)), transform=transform)
    return kernel, left, right


def assert_matches_oracle(kernel, block, left, right):
    expected = np.array([[classical_entry_oracle(kernel, a, b) for b in right] for a in left])
    if kernel.kind == "exponential":
        # compare 1 - x.x' itself: the square root applied to it has unbounded
        # slope at x.x' = 1, so one ulp of the dot product moves a near-unit
        # entry by ~1e-8
        block = (np.log(block) / kernel.sigma) ** 2
        expected = (np.log(expected) / kernel.sigma) ** 2
    assert np.all(np.abs(block - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))


@settings(max_examples=80)
@given(kernel_cases())
def test_gram_and_cross_match_the_per_pair_oracle(case):
    kernel, left, right = case
    K = classical_gram(kernel, left).values
    np.testing.assert_array_equal(K, K.T)
    if kernel.kind == "gaussian_metric":
        np.testing.assert_array_equal(np.diag(K), np.ones(len(left)))
    assert_matches_oracle(kernel, K, left, left)
    assert_matches_oracle(kernel, classical_cross(kernel, left, right), left, right)
