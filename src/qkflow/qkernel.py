"""Quantum kernel evaluation on the statevector simulator.

The kernel of two points is the squared overlap of their encoded states,

    k(x, x') = |<0...0| U(x')^dag U(x) |0...0>|^2,

computed either by the inversion test (run U(x), undo with U(x')^dag, read
the all-zeros probability) or by the swap test (prepare both states and take
the squared inner product; a shot-sampled ancilla gives p0 = 1/2 + k/2, so
the estimate is 2*p0_hat - 1 clamped to [0, 1]).

Each point of a call is encoded once, from per-row gate matrices, into one
amplitude block. The inversion test stacks the (i, j) pairs column by column
into chunks of at most PAIR_BLOCK_AMPLITUDES amplitudes and applies to every
row the adjoint gates of its column's point; each entry has the bits of
simulating its pair on its own. The swap test sums Re<b|a> and Im<b|a> one
amplitude column at a time in real arithmetic, like the classical kernels.

Every call is two steps: the exact fidelities, then one measurement step.
Exact mode returns the fidelities as they are. Shots mode makes one draw
from one stream seeded by `cfg.seed`: the inversion test's all-zeros count
is Binomial(shots, k), the swap test's ancilla count Binomial(shots,
1/2 + k/2). A Gram draws each pair above its diagonal once and mirrors it,
so a shot Gram is symmetric and its diagonal is exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .featuremap import FeatureMapSpec, _checked_params, encode_states, encoding_gates
from .statevector import apply_gates, rng_entropy

__all__ = [
    "MODES",
    "CIRCUIT_KINDS",
    "KernelEngineConfig",
    "GramMatrix",
    "kernel_value",
    "gram_matrix",
    "cross_gram",
]

MODES = ("exact", "shots")
CIRCUIT_KINDS = ("inversion", "swap")

# Amplitudes in one block of inversion-test pairs. On an 8-qubit, 3-layer
# Gram plus cross-Gram of 60 points, 2**12 and 2**16 were both slower, and
# 2**16 also raised peak memory by 3 MB.
PAIR_BLOCK_AMPLITUDES = 1 << 14


@dataclass(frozen=True, eq=False)
class KernelEngineConfig:
    """Everything needed to evaluate one quantum kernel family.

    `params` may be left as None for configs that act as templates (the
    aligner binds candidate vectors via dataclasses.replace); evaluation
    requires a bound vector.
    """

    spec: FeatureMapSpec
    params: np.ndarray | None
    mode: str = "exact"
    shots: int | None = None
    seed: int = 0
    circuit_kind: str = "inversion"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.circuit_kind not in CIRCUIT_KINDS:
            raise ValueError(
                f"circuit_kind must be one of {CIRCUIT_KINDS}, got {self.circuit_kind!r}"
            )
        if self.mode == "shots":
            if self.shots is None or int(self.shots) < 1:
                raise ValueError("shots mode needs a positive shot count")
            object.__setattr__(self, "shots", int(self.shots))
        object.__setattr__(self, "seed", int(self.seed))
        if self.params is not None:
            lam = _checked_params(self.spec, self.params).copy()
            lam.flags.writeable = False
            object.__setattr__(self, "params", lam)


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Square kernel matrix plus the identity of the kernel that made it."""

    values: np.ndarray
    kernel_id: str
    point_count: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"Gram matrix must be square, got shape {values.shape}")
        if values.shape[0] != self.point_count:
            raise ValueError(
                f"point_count {self.point_count} does not match shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("Gram matrix contains non-finite entries")
        object.__setattr__(self, "values", values)


def describe(cfg: KernelEngineConfig) -> str:
    """Stable one-line identifier for kernel provenance fields."""
    spec = cfg.spec
    parts = [
        "quantum",
        cfg.circuit_kind,
        cfg.mode if cfg.mode == "exact" else f"shots={cfg.shots}",
        f"qubits={spec.n_qubits}",
        f"layers={spec.n_layers}",
        f"data={spec.data_axis}",
        f"trainable={spec.trainable_axis}",
        f"entangle={spec.entanglement}",
        f"scale={spec.data_scaling:g}",
    ]
    return ":".join(parts)


def _as_points(data, name: str) -> np.ndarray:
    points = np.asarray(data, dtype=float)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    if points.ndim != 2 or points.shape[0] < 1 or points.shape[1] < 1:
        raise ValueError(f"{name} must be a non-empty 2-D array of points")
    if not np.all(np.isfinite(points)):
        raise ValueError(f"{name} contains non-finite values")
    return points


def _cross_points(data_new, data_train) -> tuple[np.ndarray, np.ndarray]:
    new_points = _as_points(data_new, "data_new")
    train_points = _as_points(data_train, "data_train")
    if new_points.shape[1] != train_points.shape[1]:
        raise ValueError(
            f"feature dimensions differ: {new_points.shape[1]} vs {train_points.shape[1]}"
        )
    return new_points, train_points


def _pair(point_a, point_b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(point_a, dtype=float).reshape(-1)
    b = np.asarray(point_b, dtype=float).reshape(-1)
    if a.size != b.size:
        raise ValueError(f"points have different dimensions: {a.size} vs {b.size}")
    if a.size < 1:
        raise ValueError("points must have at least one feature")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("points contain non-finite values")
    return a, b


def _column_sums(left: np.ndarray, right: np.ndarray, term) -> np.ndarray:
    """out[i, j] = sum_k term(left[i, k], right[j, k]), added one column k at a
    time in increasing k, so an entry depends on its own two rows alone and
    has the same bits in every block that holds it, which gemm does not give.
    `term(a, b, out=scratch)` writes one column's terms into `scratch`."""
    sums = np.zeros((len(left), len(right)))
    scratch = np.empty_like(sums)
    for a, b in zip(np.ascontiguousarray(left.T), np.ascontiguousarray(right.T)):
        sums += term(a[:, None], b, out=scratch)
    return sums


def _pair_chunks(heights: np.ndarray, n_qubits: int):
    """Yield (first, stop) column ranges whose pairs fill at most
    PAIR_BLOCK_AMPLITUDES amplitudes; a taller column is a chunk of its own.
    A chunk starts at a column with pairs."""
    budget = PAIR_BLOCK_AMPLITUDES >> n_qubits
    first, rows = 0, 0
    for j, height in enumerate(heights):
        if rows and rows + height > budget:
            yield first, j
            rows = 0
        if not rows:
            first = j
        rows += height
    if rows:
        yield first, len(heights)


def _all_zeros_probabilities(n_qubits, states, inverse, columns, upper) -> np.ndarray:
    """P(0...0) after U(b_j)^dag U(a_i)|0...0> for row i of `states` and column j,
    where `inverse` holds the gates of every U(b_j)^dag.

    With `upper`, only entries i < j are evaluated and the rest stay 0. The
    pairs are stacked column by column into chunks; every row of a chunk gets
    the matrices of its own column, or with one column the shared ones.
    """
    heights = np.arange(columns) if upper else np.full(columns, len(states))
    probs = np.zeros((len(states), columns))
    for first, stop in _pair_chunks(heights, n_qubits):
        height = heights[first:stop]
        cols = np.repeat(np.arange(first, stop), height)
        rows = np.arange(cols.size) - np.repeat(np.cumsum(height) - height, height)
        block = states[rows]
        pick = cols if stop - first > 1 else cols[:1]
        apply_gates(block, n_qubits, [
            (kind, t, m if m is None or len(m) == 1 else m[pick]) for kind, t, m in inverse
        ])
        # Bit-equal to the scalar abs(a) ** 2 of a Python complex, which is
        # hypot then libm pow; np.abs(a) ** 2 does not reproduce it.
        amp = block[:, 0]
        probs[rows, cols] = np.float_power(np.hypot(amp.real, amp.imag), 2.0)
    return probs


def _fidelities(cfg, points_a, points_b, upper=False) -> np.ndarray:
    """Exact K[i, j] = k(a_i, b_j); with `upper`, the inversion test evaluates only i < j."""
    if cfg.params is None:
        raise ValueError("kernel evaluation needs a bound parameter vector")
    states = encode_states(cfg.spec, points_a, cfg.params)
    if cfg.circuit_kind == "inversion":
        inverse = encoding_gates(cfg.spec, points_b, cfg.params, inverse=True)
        probs = _all_zeros_probabilities(cfg.spec.n_qubits, states, inverse, len(points_b), upper)
        return np.clip(probs, 0.0, 1.0)
    a, b = states, states if points_b is points_a else encode_states(cfg.spec, points_b, cfg.params)
    real = _column_sums(np.hstack([a.real, a.imag]), np.hstack([b.real, b.imag]), np.multiply)
    imag = _column_sums(np.hstack([a.imag, a.real]), np.hstack([b.real, -b.imag]), np.multiply)
    return np.clip(real * real + imag * imag, 0.0, 1.0)


def _measured(cfg, K: np.ndarray) -> np.ndarray:
    """K itself in exact mode; in shots mode one draw over every entry of K.

    The inversion count is the all-zeros cell of the full-register
    multinomial, Binomial(shots, k); the swap count is the ancilla's,
    Binomial(shots, 1/2 + k/2), read back as clamp(2 p0_hat - 1, 0, 1).
    """
    if cfg.mode == "exact":
        return K
    rng = np.random.default_rng(rng_entropy(cfg.seed))
    if cfg.circuit_kind == "inversion":
        return rng.binomial(cfg.shots, K) / cfg.shots
    successes = rng.binomial(cfg.shots, 0.5 + 0.5 * K)
    return np.clip(2.0 * successes / cfg.shots - 1.0, 0.0, 1.0)


def kernel_value(cfg: KernelEngineConfig, point_a, point_b) -> float:
    """Evaluate k(point_a, point_b) under `cfg`; the 1x1 cross_gram."""
    a, b = _pair(point_a, point_b)
    return float(cross_gram(cfg, a[None], b[None])[0, 0])


def gram_matrix(cfg: KernelEngineConfig, data) -> GramMatrix:
    """Kernel matrix of a point set against itself: the entries above the diagonal
    are evaluated and measured row by row, then mirrored; the diagonal is 1."""
    points = _as_points(data, "data")
    rows, cols = np.triu_indices(len(points), 1)
    upper = _fidelities(cfg, points, points, upper=True)[rows, cols]
    values = np.ones((len(points), len(points)))
    values[rows, cols] = values[cols, rows] = _measured(cfg, upper)
    return GramMatrix(values=values, kernel_id=describe(cfg), point_count=len(points))


def cross_gram(cfg: KernelEngineConfig, data_new, data_train) -> np.ndarray:
    """Rectangular kernel block K[i][j] = k(data_new[i], data_train[j])."""
    return _measured(cfg, _fidelities(cfg, *_cross_points(data_new, data_train)))
