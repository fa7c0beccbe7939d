"""Classical kernel functions, including a trainable-metric Gaussian.

Four kernel families over real feature vectors:

    linear            k(x, x') = x . x' + c
    polynomial        k(x, x') = (x . x' + c)^degree
    exponential       k(x, x') = exp(-sigma * sqrt(1 - x . x'))
    gaussian_metric   k(x, x') = exp(-gamma * ||A (x - x')||^2)

The exponential kernel is only defined for x . x' <= 1; callers normalize
points to the unit sphere first (see cli.normalize_unit_sphere). The
gaussian_metric transform A defaults to the identity, which recovers a plain
Gaussian; a learned A is what metric-learning training produces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _checks
from .qkernel import GramMatrix, _tiled_products

__all__ = [
    "CLASSICAL_KINDS",
    "CLASSICAL_PARAMS",
    "ClassicalKernel",
    "classical_gram",
    "classical_cross",
]

# the hyperparameters each kind reads; a kernel descriptor records just these
CLASSICAL_PARAMS = {
    "linear": ("c",),
    "polynomial": ("c", "degree"),
    "exponential": ("sigma",),
    "gaussian_metric": ("gamma", "transform"),
}
CLASSICAL_KINDS = tuple(CLASSICAL_PARAMS)

_DOT_SLACK = 1e-9  # tolerated float overshoot of x . x' past 1 after normalization


@dataclass(frozen=True, eq=False)
class ClassicalKernel:
    """One classical kernel with its hyperparameters bound."""

    kind: str
    c: float = 0.0
    degree: int = 2
    sigma: float = 1.0
    gamma: float = 1.0
    transform: np.ndarray | None = None

    def __post_init__(self) -> None:
        _checks.one_of(self.kind, CLASSICAL_KINDS, "kind")
        reads = CLASSICAL_PARAMS[self.kind]
        object.__setattr__(self, "c", _checks.finite(self.c, "c"))
        object.__setattr__(self, "degree", _checks.whole(
            self.degree, "degree", 1 if "degree" in reads else None))
        for name in ("sigma", "gamma"):
            value = getattr(self, name)
            value = _checks.positive(value, name) if name in reads else float(value)
            object.__setattr__(self, name, value)
        if self.transform is not None:
            if self.kind != "gaussian_metric":
                raise ValueError("only gaussian_metric takes a transform matrix")
            matrix = _checks.square(np.array(self.transform, dtype=float), "transform")
            matrix.flags.writeable = False
            object.__setattr__(self, "transform", matrix)

    @classmethod
    def linear(cls, c: float = 0.0) -> "ClassicalKernel":
        return cls(kind="linear", c=c)

    @classmethod
    def polynomial(cls, c: float = 0.0, degree: int = 2) -> "ClassicalKernel":
        return cls(kind="polynomial", c=c, degree=degree)

    @classmethod
    def exponential(cls, sigma: float = 1.0) -> "ClassicalKernel":
        return cls(kind="exponential", sigma=sigma)

    @classmethod
    def gaussian_metric(
        cls, gamma: float = 1.0, transform: np.ndarray | None = None
    ) -> "ClassicalKernel":
        return cls(kind="gaussian_metric", gamma=gamma, transform=transform)


def _check_exponential_domain(dots: np.ndarray, sigma: float) -> np.ndarray:
    if not np.all(dots <= 1.0 + _DOT_SLACK):
        raise ValueError(
            "exponential kernel needs x . x' <= 1; "
            "normalize the data to the unit sphere first"
        )
    return np.exp(-sigma * np.sqrt(np.maximum(0.0, 1.0 - dots)))


def _squared_distances(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """out[i, j] = ||left[i] - right[j]||^2 for points stored one per row,
    added one feature at a time in increasing order, so an entry depends on
    its own two points alone and is exactly 0 for equal points."""
    sums = np.zeros((left.shape[0], right.shape[0]))
    scratch = np.empty_like(sums)
    for a, b in zip(np.ascontiguousarray(left.T), np.ascontiguousarray(right.T)):
        np.subtract(a[:, None], b, out=scratch)
        sums += np.square(scratch, out=scratch)
    return sums


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the points of two `_tile`s of real points, for
    `_tiled_products(left.T, right.T, _dots)[i, j] = left[i] . right[j]`,
    which has the same bits in every block that holds the two points."""
    return a[0].T @ b[0]


def _metric_rows(kernel: ClassicalKernel, points: np.ndarray) -> np.ndarray:
    if kernel.transform is None:
        return points
    if kernel.transform.shape[1] != points.shape[1]:
        raise ValueError(
            f"transform is {kernel.transform.shape[0]}x{kernel.transform.shape[1]} "
            f"but points have {points.shape[1]} features"
        )
    return _tiled_products(points.T, kernel.transform.T, _dots)


def _block(kernel: ClassicalKernel, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Entries k(left[i], right[j]): the one place each kind's formula is written.
    Dot products are tiled BLAS products and squared distances are sums over
    the features; each gives an entry the same bits whichever operand holds
    which point, so a Gram is exactly symmetric and its squared distances
    are exactly 0 on the diagonal.

    Huge finite features can overflow a dot product or a squared distance.
    numpy's warning is silenced and each kind says what the overflow means
    for it: a linear or polynomial entry that is not a finite float is
    refused, a dot product past 1 is the exponential kernel's domain error,
    and a squared distance that overflows to inf gives the Gaussian entry
    exp(-inf) = 0, which is the correctly rounded value.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if kernel.kind == "gaussian_metric":
            z_left, z_right = _metric_rows(kernel, left), _metric_rows(kernel, right)
            if not (np.all(np.isfinite(z_left)) and np.all(np.isfinite(z_right))):
                raise ValueError(
                    "gaussian_metric kernel overflows: A x is not a finite float; "
                    "rescale the features or the transform"
                )
            return np.exp(-kernel.gamma * _squared_distances(z_left, z_right))
        dots = _tiled_products(left.T, right.T, _dots)
        if kernel.kind == "exponential":
            return _check_exponential_domain(dots, kernel.sigma)
        if kernel.kind == "linear":
            values, formula, fix = dots + kernel.c, f"x . x' + {kernel.c:g}", "rescale the features"
        else:
            values = (dots + kernel.c) ** kernel.degree
            formula = f"(x . x' + {kernel.c:g}) ** {kernel.degree}"
            fix = "rescale the features or lower the offset c or the degree"
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{kernel.kind} kernel overflows: {formula} is not a finite float; {fix}")
    return values


def classical_gram(kernel: ClassicalKernel, data) -> GramMatrix:
    """Kernel matrix of a point set against itself; exactly symmetric."""
    points = _checks.points(data, "data")
    return GramMatrix(values=_block(kernel, points, points))


def classical_cross(kernel: ClassicalKernel, data_new, data_train) -> np.ndarray:
    """Rectangular block K[i][j] = k(data_new[i], data_train[j])."""
    return _block(kernel, *_checks.cross_points(data_new, data_train))
