"""The one rule for each kind of input qkflow takes.

Every function, config and file reader that takes one of these inputs
calls its rule here, so an input is refused, or accepted and converted,
the same way wherever it goes in. A refusal is a ValueError of the form
"<name> must be <rule>, got <what>".

    points        a non-empty 2-D matrix of finite numbers, one point per row
    cross_points  two point matrices of as many features each
    point         a non-empty flat vector of finite numbers, one point
    params        a flat vector of finite numbers, of a given length
    targets       one finite number per point (a column is flattened)
    square        a non-empty square matrix of finite numbers
    cross_block   a matrix of finite numbers, one column per training point,
                  new points against training points; a flat vector is one row
    whole         an integral number, never truncated, within optional bounds
    rng_entropy   a seed, any integer, as numpy's generators take it: mod 2**64
    finite, positive, non_negative
                  one real number
    one_of        one value of a fixed set
"""

from __future__ import annotations

import math

import numpy as np

__all__: list[str] = []


def _finite_array(values, name: str, rule: str, fits) -> np.ndarray:
    array = np.asarray(values, dtype=float)
    if not fits(array.shape):
        raise ValueError(f"{name} must be {rule}, got shape {array.shape}")
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} must be {rule}, got a non-finite entry")
    return array


def points(values, name: str) -> np.ndarray:
    return _finite_array(values, name, "a non-empty 2-D matrix of finite numbers",
                         lambda shape: len(shape) == 2 and min(shape) >= 1)


def cross_points(data_new, data_train) -> tuple[np.ndarray, np.ndarray]:
    new, train = points(data_new, "data_new"), points(data_train, "data_train")
    if new.shape[1] != train.shape[1]:
        raise ValueError(f"feature dimensions differ: {new.shape[1]} vs {train.shape[1]}")
    return new, train


def point(values, name: str) -> np.ndarray:
    return _finite_array(values, name, "a non-empty flat vector of finite numbers",
                         lambda shape: len(shape) == 1 and shape[0] >= 1)


def params(values, size: int, name: str) -> np.ndarray:
    return _finite_array(values, name, f"a finite flat parameter vector of length {size}",
                         lambda shape: shape == (size,))


def targets(values, m: int, name: str) -> np.ndarray:
    return _finite_array(np.asarray(values, dtype=float).reshape(-1), name,
                         f"one finite number per point ({m} points)",
                         lambda shape: shape == (m,))


def square(values, name: str) -> np.ndarray:
    return _finite_array(values, name, "a non-empty square matrix of finite numbers",
                         lambda shape: len(shape) == 2 and shape[0] == shape[1] >= 1)


def cross_block(values, m: int, name: str) -> np.ndarray:
    array = np.asarray(values, dtype=float)
    return _finite_array(array.reshape(1, -1) if array.ndim == 1 else array, name,
                         f"a matrix of finite numbers, one column per training point ({m})",
                         lambda shape: len(shape) == 2 and shape[1] == m)


def _shown(value) -> str:
    """How a refusal shows `value`: a string quoted, so that "3" is not read as 3."""
    return repr(value) if isinstance(value, str) else str(value)


def whole(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """`value` as an int, if it is integral and within [low, high]."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if (number is not None and number == value and (low is None or number >= low)
            and (high is None or number <= high)):
        return number
    bounds = "" if low is None else f" >= {low}" if high is None else f" in [{low}, {high}]"
    raise ValueError(f"{name} must be an integer{bounds}, got {_shown(value)}")


def rng_entropy(seed) -> int:
    return whole(seed, "seed") % (1 << 64)


def _scalar(value, name: str, rule: str, holds) -> float:
    """`value` as a float, if it is a number (not a numeric string) that holds."""
    try:
        number = None if isinstance(value, str) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is not None and holds(number):
        return number
    raise ValueError(f"{name} must be {rule}, got {_shown(value if number is None else number)}")


def finite(value, name: str) -> float:
    return _scalar(value, name, "finite", math.isfinite)


def positive(value, name: str) -> float:
    return _scalar(value, name, "positive and finite", lambda v: 0 < v < math.inf)


def non_negative(value, name: str) -> float:
    return _scalar(value, name, "finite and non-negative", lambda v: 0 <= v < math.inf)


def one_of(value, choices: tuple, name: str):
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")
    return value
