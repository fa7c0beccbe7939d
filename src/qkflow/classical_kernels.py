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

import math
from dataclasses import dataclass

import numpy as np

from .qkernel import GramMatrix, _as_points, _column_sums, _cross_points, _pair

__all__ = [
    "CLASSICAL_KINDS",
    "CLASSICAL_PARAMS",
    "ClassicalKernel",
    "eval_classical",
    "classical_gram",
    "classical_cross",
    "describe_classical",
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
        if self.kind not in CLASSICAL_KINDS:
            raise ValueError(f"kind must be one of {CLASSICAL_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "degree", int(self.degree))
        if not math.isfinite(self.c):
            raise ValueError("offset c must be finite")
        if self.kind == "polynomial" and self.degree < 1:
            raise ValueError(f"polynomial degree must be >= 1, got {self.degree}")
        if self.kind == "exponential" and not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if self.kind == "gaussian_metric" and not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if self.transform is not None:
            if self.kind != "gaussian_metric":
                raise ValueError("only gaussian_metric takes a transform matrix")
            matrix = np.array(self.transform, dtype=float)
            if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
                raise ValueError(
                    f"transform must be a square matrix, got shape {matrix.shape}"
                )
            if not np.all(np.isfinite(matrix)):
                raise ValueError("transform contains non-finite entries")
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


def describe_classical(kernel: ClassicalKernel) -> str:
    if kernel.kind == "linear":
        return f"classical:linear:c={kernel.c:g}"
    if kernel.kind == "polynomial":
        return f"classical:polynomial:c={kernel.c:g}:degree={kernel.degree}"
    if kernel.kind == "exponential":
        return f"classical:exponential:sigma={kernel.sigma:g}"
    size = "identity" if kernel.transform is None else "x".join(map(str, kernel.transform.shape))
    return f"classical:gaussian_metric:gamma={kernel.gamma:g}:transform={size}"


def _check_exponential_domain(dots: np.ndarray, sigma: float) -> np.ndarray:
    if not np.all(dots <= 1.0 + _DOT_SLACK):
        raise ValueError(
            "exponential kernel needs x . x' <= 1; "
            "normalize the data to the unit sphere first"
        )
    return np.exp(-sigma * np.sqrt(np.maximum(0.0, 1.0 - dots)))


def _metric_rows(kernel: ClassicalKernel, points: np.ndarray) -> np.ndarray:
    if kernel.transform is None:
        return points
    if kernel.transform.shape[1] != points.shape[1]:
        raise ValueError(
            f"transform is {kernel.transform.shape[0]}x{kernel.transform.shape[1]} "
            f"but points have {points.shape[1]} features"
        )
    return _column_sums(points, kernel.transform, np.multiply)


def _squared_difference(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    return np.square(np.subtract(a, b, out=out), out=out)


def _block(kernel: ClassicalKernel, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Entries k(left[i], right[j]): the one place each kind's formula is written.
    Dot products and squared distances are column sums, so a Gram is exactly
    symmetric and its squared distances are exactly 0 on the diagonal.

    Huge finite features can overflow a column sum. numpy's warning is
    silenced and each kind says what the overflow means for it: a linear or
    polynomial entry that is not a finite float is refused, a dot product
    past 1 is the exponential kernel's domain error, and a squared distance
    that overflows to inf gives the Gaussian entry exp(-inf) = 0, which is
    the correctly rounded value.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if kernel.kind == "gaussian_metric":
            z_left, z_right = _metric_rows(kernel, left), _metric_rows(kernel, right)
            if not (np.all(np.isfinite(z_left)) and np.all(np.isfinite(z_right))):
                raise ValueError(
                    "gaussian_metric kernel overflows: A x is not a finite float; "
                    "rescale the features or the transform"
                )
            return np.exp(-kernel.gamma * _column_sums(z_left, z_right, _squared_difference))
        dots = _column_sums(left, right, np.multiply)
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


def eval_classical(kernel: ClassicalKernel, point_a, point_b) -> float:
    """Evaluate one kernel entry."""
    a, b = _pair(point_a, point_b)
    return float(_block(kernel, a[None, :], b[None, :])[0, 0])


def classical_gram(kernel: ClassicalKernel, data) -> GramMatrix:
    """Kernel matrix of a point set against itself; exactly symmetric."""
    points = _as_points(data, "data")
    return GramMatrix(values=_block(kernel, points, points), kernel_id=describe_classical(kernel))


def classical_cross(kernel: ClassicalKernel, data_new, data_train) -> np.ndarray:
    """Rectangular block K[i][j] = k(data_new[i], data_train[j])."""
    return _block(kernel, *_cross_points(data_new, data_train))
