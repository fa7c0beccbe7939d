"""Quantum kernel evaluation on the statevector simulator.

The kernel of two points is the squared overlap of their encoded states,

    k(x, x') = |<0...0| U(x')^dag U(x) |0...0>|^2 = |<psi(x')|psi(x)>|^2,

read on hardware either by the inversion test (run U(x), undo with
U(x')^dag, read the all-zeros probability) or by the swap test (prepare both
states and measure an ancilla, whose p0 = 1/2 + k/2, so the estimate is
2*p0_hat - 1 clamped to [0, 1]).

Each point of a call is encoded once, from per-point gate matrices, into one
amplitude block with one state per column. A cross-Gram, of either circuit
kind, compares the two blocks: it sums Re<b|a> and Im<b|a> one amplitude at
a time in real arithmetic, like the classical kernels, and returns
re^2 + im^2. So each cross entry depends on its two points alone, and the
exact inversion and swap cross entries are equal bit for bit. A swap-test
Gram compares states the same way.

Only an inversion-test Gram simulates pairs. U(x) is V(x) and then CNOTs
that do not depend on x, so U(x_j)^dag U(x_i) = V(x_j)^dag V(x_i).
`gram_matrix` lists the pairs i < j once, row by row, and both circuit kinds
hand the measurement step their entries in that order. The inversion test
runs the pairs in equal slices, one pair per block column with its own
matrices: V(x_j)^dag, derived from the gates of V (`statevector._adjoint`),
acts on V(x_i)|0...0> in `apply_gates`, and amplitude |0...0> of each column
is read. That amplitude gets the operations, in the order, and the values up
to the signs of zeros, of simulating the pair on its own with negated angles,
whatever slice holds it: each entry has its bits.

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
from .statevector import _adjoint, _zero_block, apply_gates, rng_entropy

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

# Amplitudes in one block of inversion-test pairs, one pair per column. Timed
# in-process on one core of a 2-CPU Xeon, medians of 31 alternating runs of an
# exact Gram of 60 points, on each core: at 8 qubits x 3 layers 2**14 took
# 1.16-1.20x and 2**16 1.07-1.08x as long as 2**15; at 4 qubits x 2 layers
# 0.97-1.00x and 1.03-1.06x. The bits are the same.
PAIR_BLOCK_AMPLITUDES = 1 << 15


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
    """A square kernel matrix of finite floats, checked when it is made."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"Gram matrix must be square, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("Gram matrix contains non-finite entries")
        object.__setattr__(self, "values", values)


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


def _row_sums(left: np.ndarray, right: np.ndarray, term) -> np.ndarray:
    """out[i, j] = sum_k term(left[k, i], right[k, j]), added one row k at a
    time in increasing k, so an entry depends on its own two columns alone and
    has the same bits in every block that holds it, which gemm does not give.
    `term(a, b, out=scratch)` writes one row's terms into `scratch`."""
    sums = np.zeros((left.shape[1], right.shape[1]))
    scratch = np.empty_like(sums)
    for a, b in zip(left, right):
        sums += term(a[:, None], b, out=scratch)
    return sums


def _column_sums(left: np.ndarray, right: np.ndarray, term) -> np.ndarray:
    """`_row_sums` of points stored one per row: out[i, j] = sum_k
    term(left[i, k], right[j, k]), added one column k at a time."""
    return _row_sums(np.ascontiguousarray(left.T), np.ascontiguousarray(right.T), term)


def _inversion_tests(cfg, points, rows, cols) -> np.ndarray:
    """Exact k(x_i, x_j) of the pairs (rows[k], cols[k]), in that order, by the
    per-pair inversion test: P(0...0) after V(x_j)^dag V(x_i)|0...0>, with
    V(x_i)|0...0> encoded once. The pairs run in equal slices of
    `PAIR_BLOCK_AMPLITUDES >> n` pairs (at least one), one per block column
    and each with its own matrices, so a pair's operations do not depend on
    its slice."""
    n = cfg.spec.n_qubits
    gates = encoding_gates(cfg.spec, points, cfg.params)
    while gates and gates[-1][0] == "cnot":  # they cancel the CNOTs that start U(x_j)^dag
        gates.pop()
    states = _zero_block(len(points), n)
    apply_gates(states, n, gates)
    adjoint = _adjoint(gates)
    amp = np.empty(rows.size, dtype=np.complex128)
    step = max(1, PAIR_BLOCK_AMPLITUDES >> n)
    for start in range(0, rows.size, step):
        i, j = rows[start:start + step], cols[start:start + step]
        block = np.take(states, i, axis=1)
        apply_gates(block, n, [
            (kind, t, m if m is None or len(m) == 1 else m[j]) for kind, t, m in adjoint
        ])
        amp[start:start + step] = block[0]
    # Bit-equal to the scalar abs(a) ** 2 of a Python complex, which is hypot
    # then libm pow; np.abs(a) ** 2 does not reproduce it.
    return np.clip(np.float_power(np.hypot(amp.real, amp.imag), 2.0), 0.0, 1.0)


def _overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact K[i, j] = |<b_j|a_i>|^2 of encoded states, one per column, summed
    one amplitude row at a time."""
    real = _row_sums(np.vstack([a.real, a.imag]), np.vstack([b.real, b.imag]), np.multiply)
    imag = _row_sums(np.vstack([a.imag, a.real]), np.vstack([b.real, -b.imag]), np.multiply)
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
    """Evaluate k(point_a, point_b) under `cfg`: the 1x1 cross_gram of the
    two points, each flattened to one row."""
    return float(cross_gram(cfg, np.reshape(point_a, (1, -1)), np.reshape(point_b, (1, -1)))[0, 0])


def gram_matrix(cfg: KernelEngineConfig, data) -> GramMatrix:
    """Kernel matrix of a point set against itself: the entries above the diagonal
    are evaluated and measured row by row, then mirrored; the diagonal is 1."""
    points = _as_points(data, "data")
    rows, cols = np.triu_indices(len(points), 1)
    # The inversion test still simulates each pair, although `_overlaps` is
    # within 4 * 2**n eps of it: the README `align` pin, which the benchmark
    # holds, moves when an entry moves by an ulp (ROADMAP items 1 and 2).
    if cfg.circuit_kind == "inversion":
        exact = _inversion_tests(cfg, points, rows, cols)
    else:
        states = encode_states(cfg.spec, points, cfg.params)
        exact = _overlaps(states, states)[rows, cols]
    values = np.ones((len(points), len(points)))
    values[rows, cols] = values[cols, rows] = _measured(cfg, exact)
    return GramMatrix(values=values)


def cross_gram(cfg: KernelEngineConfig, data_new, data_train) -> np.ndarray:
    """Rectangular kernel block K[i][j] = k(data_new[i], data_train[j]), from
    the overlaps of states encoded once per point, for either circuit kind."""
    new_points, train_points = _cross_points(data_new, data_train)
    exact = _overlaps(encode_states(cfg.spec, new_points, cfg.params),
                      encode_states(cfg.spec, train_points, cfg.params))
    return _measured(cfg, exact)
