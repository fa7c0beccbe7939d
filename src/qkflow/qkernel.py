"""Quantum kernel evaluation on the statevector simulator.

The kernel of two points is the squared overlap of their encoded states,

    k(x, x') = |<0...0| U(x')^dag U(x) |0...0>|^2 = |<psi(x')|psi(x)>|^2,

read on hardware either by the inversion test (run U(x), undo with
U(x')^dag, read the all-zeros probability) or by the swap test (prepare both
states and measure an ancilla, whose p0 = 1/2 + k/2, so the estimate is
2*p0_hat - 1 clamped to [0, 1]).

Each point of a call is encoded once, from per-row gate matrices, into one
amplitude block. A cross-Gram, of either circuit kind, compares the two
blocks: it sums Re<b|a> and Im<b|a> one amplitude column at a time in real
arithmetic, like the classical kernels, and returns re^2 + im^2. So each
cross entry depends on its two points alone, and the exact inversion and
swap cross entries are equal bit for bit. A swap-test Gram compares states
the same way. Only an inversion-test Gram simulates pairs: it stacks the
pairs i < j column by column into chunks of at most PAIR_BLOCK_AMPLITUDES
amplitudes and applies to every row the adjoint gates of its column's
point, so each entry has the bits of simulating its pair on its own.

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
    """One quantum kernel: a feature map with its trainable angles bound.

    `params` is checked against `spec` and stored read-only.
    """

    spec: FeatureMapSpec
    params: np.ndarray
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
        lam = _checked_params(self.spec, self.params).copy()
        lam.flags.writeable = False
        object.__setattr__(self, "params", lam)


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Square kernel matrix plus the identity of the kernel that made it."""

    values: np.ndarray
    kernel_id: str

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"Gram matrix must be square, got shape {values.shape}")
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


def _pair_chunks(n_points: int, n_qubits: int):
    """Yield (first, stop) column ranges of the pairs i < j, where column j holds
    j pairs, that fill at most PAIR_BLOCK_AMPLITUDES amplitudes; a taller
    column is a chunk of its own. A chunk starts at a column with pairs."""
    budget = PAIR_BLOCK_AMPLITUDES >> n_qubits
    first, rows = 0, 0
    for j in range(n_points):
        if rows and rows + j > budget:
            yield first, j
            rows = 0
        if not rows:
            first = j
        rows += j
    if rows:
        yield first, n_points


def _all_zeros_probabilities(n_qubits, states, inverse) -> np.ndarray:
    """P(0...0) after U(x_j)^dag U(x_i)|0...0> for the pairs i < j of one point
    set, where row i of `states` is U(x_i)|0...0> and `inverse` holds the gates
    of every U(x_j)^dag; the entries on and below the diagonal stay 0.

    The pairs are stacked column by column into chunks; every row of a chunk
    gets the matrices of its own column, or with one column the shared ones.
    """
    probs = np.zeros((len(states), len(states)))
    for first, stop in _pair_chunks(len(states), n_qubits):
        height = np.arange(first, stop)
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


def _inversion_tests(cfg, points) -> np.ndarray:
    """Exact K[i, j] = k(x_i, x_j) for i < j by the per-pair inversion test; 0 elsewhere."""
    states = encode_states(cfg.spec, points, cfg.params)
    inverse = encoding_gates(cfg.spec, points, cfg.params, inverse=True)
    return np.clip(_all_zeros_probabilities(cfg.spec.n_qubits, states, inverse), 0.0, 1.0)


def _overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact K[i, j] = |<b_j|a_i>|^2 of encoded states, summed column by column."""
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
    # The inversion test still simulates each pair here, although `_overlaps`
    # gives its entries within 4 * 2**n eps: `align` reads this function alone,
    # and the README `align` pin that the benchmark holds moves when an entry
    # moves by an ulp. ROADMAP item 2 moves this path to `_overlaps` after
    # item 1 lets a stated output change re-derive that pin.
    if cfg.circuit_kind == "inversion":
        exact = _inversion_tests(cfg, points)
    else:
        states = encode_states(cfg.spec, points, cfg.params)
        exact = _overlaps(states, states)
    rows, cols = np.triu_indices(len(points), 1)
    values = np.ones((len(points), len(points)))
    values[rows, cols] = values[cols, rows] = _measured(cfg, exact[rows, cols])
    return GramMatrix(values=values, kernel_id=describe(cfg))


def cross_gram(cfg: KernelEngineConfig, data_new, data_train) -> np.ndarray:
    """Rectangular kernel block K[i][j] = k(data_new[i], data_train[j]), from
    the overlaps of states encoded once per point, for either circuit kind."""
    new_points, train_points = _cross_points(data_new, data_train)
    exact = _overlaps(encode_states(cfg.spec, new_points, cfg.params),
                      encode_states(cfg.spec, train_points, cfg.params))
    return _measured(cfg, exact)
