"""Classical kernel tests with hand-computed values."""

import math

import numpy as np
import pytest

from qkflow.classical_kernels import ClassicalKernel, classical_cross, classical_gram


def entry(kernel, a, b):
    """One kernel entry, as the 1x1 cross block of its two points."""
    return classical_cross(kernel, [a], [b])[0, 0]


def test_linear_kernel():
    k = ClassicalKernel.linear()
    assert entry(k, [1.0, 2.0], [3.0, 4.0]) == 11.0
    assert entry(ClassicalKernel.linear(c=1.0), [1.0, 2.0], [3.0, 4.0]) == 12.0


def test_polynomial_kernel():
    k = ClassicalKernel.polynomial(c=1.0, degree=2)
    assert entry(k, [1.0, 2.0], [3.0, 4.0]) == 144.0
    cubic = ClassicalKernel.polynomial(c=0.0, degree=3)
    assert entry(cubic, [2.0], [1.0]) == 8.0


def test_exponential_kernel():
    k = ClassicalKernel.exponential()
    assert abs(entry(k, [1.0, 0.0], [0.0, 1.0]) - math.exp(-1.0)) <= 1e-15
    unit = [0.5, 0.5, 0.5, 0.5]
    assert abs(entry(k, unit, unit) - 1.0) <= 1e-12
    wide = ClassicalKernel.exponential(sigma=2.0)
    assert abs(entry(wide, [1.0, 0.0], [0.0, 1.0]) - math.exp(-2.0)) <= 1e-15


def test_exponential_domain_error():
    k = ClassicalKernel.exponential()
    with pytest.raises(ValueError):
        entry(k, [2.0], [1.0])


def test_overflowing_column_sums_raise_one_error_per_kind():
    """Huge finite features overflow a dot product or a transformed point;
    every kind says so instead of a numpy warning or a NaN entry."""
    huge = np.array([[1e200, 1e200], [-1e200, 1e200], [1.0, 2.0]])
    with pytest.raises(ValueError, match="linear kernel overflows"):
        classical_cross(ClassicalKernel.linear(), huge, huge)
    with pytest.raises(ValueError, match="polynomial kernel overflows"):
        classical_gram(ClassicalKernel.polynomial(degree=3), huge)
    with pytest.raises(ValueError, match="exponential kernel needs"):
        classical_cross(ClassicalKernel.exponential(), huge, huge)
    with pytest.raises(ValueError, match="gaussian_metric kernel overflows"):
        classical_gram(ClassicalKernel.gaussian_metric(transform=[[1e200, 1e200], [0, 1]]), huge)
    K = classical_gram(ClassicalKernel.gaussian_metric(), huge).values
    np.testing.assert_array_equal(K, np.eye(3))


def test_gaussian_metric_identity_transform():
    k = ClassicalKernel.gaussian_metric(gamma=1.0)
    assert abs(entry(k, [2.0], [0.0]) - math.exp(-4.0)) <= 1e-15
    half = ClassicalKernel.gaussian_metric(gamma=0.5)
    assert abs(entry(half, [2.0], [0.0]) - math.exp(-2.0)) <= 1e-15


def test_gaussian_metric_scaled_identity_matches_rescaled_width():
    """A = c*I turns the metric kernel into a plain Gaussian of width gamma*c^2."""
    rng = np.random.default_rng(5)
    c = 1.7
    k_scaled = ClassicalKernel.gaussian_metric(gamma=1.0, transform=c * np.eye(3))
    k_plain = ClassicalKernel.gaussian_metric(gamma=c * c)
    for _ in range(10):
        a, b = rng.normal(size=(2, 3))
        assert abs(entry(k_scaled, a, b) - entry(k_plain, a, b)) <= 1e-12


def test_gaussian_metric_can_mute_features():
    mask = np.diag([1.0, 0.0])
    k = ClassicalKernel.gaussian_metric(gamma=1.0, transform=mask)
    assert entry(k, [1.0, 5.0], [1.0, -5.0]) == 1.0
    assert abs(entry(k, [2.0, 5.0], [1.0, -5.0]) - math.exp(-1.0)) <= 1e-15


def test_gram_is_symmetric_and_matches_eval():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(6, 3))
    for kernel in (
        ClassicalKernel.linear(c=0.5),
        ClassicalKernel.polynomial(c=1.0, degree=3),
        ClassicalKernel.gaussian_metric(gamma=0.8, transform=rng.normal(size=(3, 3))),
    ):
        K = classical_gram(kernel, X).values
        assert np.max(np.abs(K - K.T)) == 0.0
        for i in range(6):
            for j in range(6):
                assert abs(K[i, j] - entry(kernel, X[i], X[j])) <= 1e-12


def test_gaussian_gram_has_unit_diagonal():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(5, 2))
    K = classical_gram(ClassicalKernel.gaussian_metric(gamma=2.0), X).values
    np.testing.assert_array_equal(np.diag(K), np.ones(5))


def test_exponential_gram_on_normalized_rows():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(5, 3))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    K = classical_gram(ClassicalKernel.exponential(), X).values
    assert np.all(K > 0.0) and np.all(K <= 1.0 + 1e-12)
    np.testing.assert_allclose(np.diag(K), np.ones(5), atol=1e-7)


def test_cross_matches_eval():
    rng = np.random.default_rng(19)
    A = rng.normal(size=(4, 3))
    B = rng.normal(size=(5, 3))
    A_unit = A / np.linalg.norm(A, axis=1, keepdims=True)
    B_unit = B / np.linalg.norm(B, axis=1, keepdims=True)
    cases = [
        (ClassicalKernel.linear(c=0.3), A, B),
        (ClassicalKernel.polynomial(c=1.0, degree=2), A, B),
        (ClassicalKernel.exponential(sigma=1.5), A_unit, B_unit),
        (ClassicalKernel.gaussian_metric(gamma=1.2, transform=rng.normal(size=(3, 3))), A, B),
    ]
    for kernel, left, right in cases:
        C = classical_cross(kernel, left, right)
        assert C.shape == (4, 5)
        for i in range(4):
            for j in range(5):
                assert abs(C[i, j] - entry(kernel, left[i], right[j])) <= 1e-12


def test_gram_is_the_cross_block_of_a_set_with_itself():
    rng = np.random.default_rng(23)
    for _ in range(20):
        X = rng.normal(size=(rng.integers(1, 30), 3))
        unit = X / np.linalg.norm(X, axis=1, keepdims=True)
        cases = [
            (ClassicalKernel.linear(c=0.3), X),
            (ClassicalKernel.polynomial(c=1.0, degree=3), X),
            (ClassicalKernel.exponential(sigma=1.5), unit),
            (ClassicalKernel.gaussian_metric(gamma=0.7), X),
            (ClassicalKernel.gaussian_metric(gamma=0.7, transform=rng.normal(size=(3, 3))), X),
        ]
        for kernel, points in cases:
            np.testing.assert_array_equal(
                classical_gram(kernel, points).values, classical_cross(kernel, points, points)
            )


def test_validation():
    with pytest.raises(ValueError):
        ClassicalKernel(kind="rbf")
    with pytest.raises(ValueError):
        ClassicalKernel.polynomial(degree=0)
    with pytest.raises(ValueError):
        ClassicalKernel.exponential(sigma=0.0)
    with pytest.raises(ValueError):
        ClassicalKernel.gaussian_metric(gamma=-1.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            ClassicalKernel.exponential(sigma=bad)
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            ClassicalKernel.gaussian_metric(gamma=bad)
    with pytest.raises(ValueError):
        ClassicalKernel.gaussian_metric(transform=np.ones((2, 3)))
    with pytest.raises(ValueError):
        ClassicalKernel.linear(c=float("inf"))
    with pytest.raises(ValueError):
        ClassicalKernel(kind="linear", transform=np.eye(2))


def test_dimension_mismatches():
    k = ClassicalKernel.gaussian_metric(transform=np.eye(2))
    with pytest.raises(ValueError):
        entry(k, [1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        entry(ClassicalKernel.linear(), [1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        classical_cross(ClassicalKernel.linear(), np.ones((2, 2)), np.ones((2, 3)))
