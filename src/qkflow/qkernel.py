"""Quantum kernel evaluation on the statevector simulator.

The kernel of two points is the squared overlap of their encoded states,

    k(x, x') = |<0...0| U(x')^dag U(x) |0...0>|^2 = |<psi(x')|psi(x)>|^2,

read on hardware either by the inversion test (run U(x), undo with
U(x')^dag, read the all-zeros probability) or by the swap test (prepare both
states and measure an ancilla, whose p0 = 1/2 + k/2, so the estimate is
2*p0_hat - 1 clamped to [0, 1]).

Each point of a call is encoded once, from per-point gate matrices, into one
amplitude block with one state per column. A cross-Gram, of either circuit
kind, compares the two blocks in `_tiled_products`: the states are copied 64
at a time into zero-padded real and imaginary tiles, and every pair of tiles
gets the same four fixed-shape BLAS products,

    re = Ar^T Br + Ai^T Bi,    im = Ai^T Br - Ar^T Bi,

then K = re^2 + im^2. An entry's bits do not depend on the tile or tile
position that holds it (an observed property of the BLAS build, which
tests/test_kernel_entry_properties.py checks past one tile), so each cross
entry depends on its two points alone, and the exact inversion and swap
cross entries are equal bit for bit. Swapping the operands swaps the terms
of re and negates im exactly, so K(b, a) is K(a, b) transposed to the bit. A
Gram of two or more layers compares states the same way, so its exact
entries are bit-equal to the cross-Gram of the points with themselves.

A one-layer kernel, of either circuit kind, is a product over qubits. U(x)
is V(x) and then CNOTs that do not depend on x, and V(x) is one pair of
rotations u_q(x) per qubit, so k(x_i, x_j) is the product over q of the
one-qubit fidelities |<0|u_q(x_j)^dag u_q(x_i)|0>|^2 and no 2**n amplitudes
are held (`_qubit_blocks`). A Gram runs each pair's one-qubit inversion
tests (`_inversion_tests`), u_q(x_j)^dag being u_q(x_j)'s rotations reversed
at negated angles; a cross-Gram multiplies each qubit's `_tiled_products`.
On one qubit a Gram entry has the bits of simulating its pair alone (or is
within 2 eps of them for data axis rz with trainable rz or p, a kernel of
1), and a cross-Gram those of the state product. `gram_matrix` lists the
pairs i < j once, row by row, and every Gram hands the measurement step its
entries in that order.

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

from . import _checks
from .featuremap import FeatureMapSpec, _encoding_angles, encode_states, param_count
from .statevector import _checked_qubits, _zero_block, apply_gates, rotation_matrices

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

# Pairs in one slice of a one-layer Gram's one-qubit inversion tests. It
# bounds the memory of a slice; an entry has the same bits in any slice.
PAIR_SLICE = 1 << 14

# Points per tile of `_tiled_products`: every product of two point blocks is
# cut into TILE_POINTS x TILE_POINTS blocks of one BLAS shape each. Timed
# in-process on one core of a 2-CPU Xeon (OpenBLAS 0.3.31, Haswell kernels),
# medians of 5, the state products of a 60-point Gram took 0.40 ms at 8
# qubits x 3 layers and 6.6 ms at 12 x 2 with 64, against 0.53 and 12.1 ms
# with 32 and 1.2 and 19.9 ms with 128; at 200 points (8 x 3) 64 took 7.4 ms,
# 32 took 6.3 ms and 128 took 5.4 ms.
TILE_POINTS = 64


@dataclass(frozen=True, eq=False)
class KernelEngineConfig:
    """One quantum kernel: a feature map with its trainable angles bound.

    `params` is checked against `spec` and stored read-only. `circuit_kind`
    picks the shot model; exact values do not depend on it.
    """

    spec: FeatureMapSpec
    params: np.ndarray
    mode: str = "exact"
    shots: int | None = None
    seed: int = 0
    circuit_kind: str = "inversion"

    def __post_init__(self) -> None:
        _checks.one_of(self.mode, MODES, "mode")
        _checks.one_of(self.circuit_kind, CIRCUIT_KINDS, "circuit_kind")
        if self.mode == "shots" or self.shots is not None:
            object.__setattr__(self, "shots", _checks.whole(self.shots, "shots", 1))
        object.__setattr__(self, "seed", _checks.whole(self.seed, "seed"))
        lam = _checks.params(self.params, param_count(self.spec), "params").copy()
        lam.flags.writeable = False
        object.__setattr__(self, "params", lam)


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """A square kernel matrix of finite floats, checked when it is made."""

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _checks.square(self.values, "Gram matrix"))


def _tile(block: np.ndarray, start: int) -> np.ndarray:
    """Columns start..start + TILE_POINTS of `block` as a C-contiguous stack of
    (real, imaginary) parts, or of the one real part, zero-padded to
    TILE_POINTS columns."""
    parts = (block.real, block.imag) if np.iscomplexobj(block) else (block,)
    tile = np.zeros((len(parts), block.shape[0], TILE_POINTS))
    for copy, part in zip(tile, parts):
        columns = part[:, start:start + TILE_POINTS]
        copy[:, :columns.shape[1]] = columns
    return tile


def _tiled_products(left: np.ndarray, right: np.ndarray, product) -> np.ndarray:
    """out[i, j] for column i of `left` and column j of `right`, each block
    holding one point per column: `product(a, b)` maps the `_tile`s that hold
    them to a TILE_POINTS x TILE_POINTS block. Every BLAS call in `product`
    has one shape, whatever the sizes, so an entry has the same bits in every
    block that holds it. Only one tile of each operand is held at a time, and
    a diagonal tile of a block against itself is copied once."""
    out = np.empty((left.shape[1], right.shape[1]))
    for i in range(0, left.shape[1], TILE_POINTS):
        a = _tile(left, i)
        for j in range(0, right.shape[1], TILE_POINTS):
            b = a if left is right and i == j else _tile(right, j)
            block = out[i:i + TILE_POINTS, j:j + TILE_POINTS]
            block[...] = product(a, b)[:block.shape[0], :block.shape[1]]
    return out


def _fidelities(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact |<b_j|a_i>|^2 of two `_tile`s of states. Im is a difference of
    two products, so swapping the tiles negates it exactly."""
    (ar, ai), (br, bi) = a, b
    re = ar.T @ br + ai.T @ bi
    im = ai.T @ br - ar.T @ bi
    return np.clip(re * re + im * im, 0.0, 1.0)


def _qubit_blocks(cfg, points):
    """For each qubit q in turn, u_q(x)'s rotations as (kind, angles), in
    circuit order, and the one-qubit block of the states u_q(x_r)|0>."""
    _checked_qubits(cfg.spec.n_qubits)
    gates = _encoding_angles(cfg.spec, points, cfg.params)
    for q in range(cfg.spec.n_qubits):
        rotations = [(kind, a) for kind, t, a in gates if t == (q,)]
        states = _zero_block(len(points), 1)
        apply_gates(states, 1, [(kind, (0,), rotation_matrices(kind, a)) for kind, a in rotations])
        yield rotations, states


def _inversion_tests(cfg, points, rows, cols) -> np.ndarray:
    """Exact k(x_i, x_j) of the pairs (rows[k], cols[k]), in that order, of a
    one-layer map: the product, in qubit order, of the one-qubit inversion
    tests P(0) after u_q(x_j)^dag u_q(x_i)|0>, where u_q(x_j)^dag runs
    u_q(x_j)'s rotations in reverse at negated angles. The pairs run in
    slices of PAIR_SLICE, one per column with its own matrices, so a pair's
    operations do not depend on its slice."""
    K = np.ones(rows.size)
    for rotations, states in _qubit_blocks(cfg, points):
        inverse = [(kind, (0,), rotation_matrices(kind, -a)) for kind, a in reversed(rotations)]
        for start in range(0, rows.size, PAIR_SLICE):
            i, j = rows[start:start + PAIR_SLICE], cols[start:start + PAIR_SLICE]
            block = np.take(states, i, axis=1)
            apply_gates(block, 1, [(kind, t, m if len(m) == 1 else m[j]) for kind, t, m in inverse])
            # Bit-equal to the scalar abs(a) ** 2 of a Python complex, which is
            # hypot then libm pow; np.abs(a) ** 2 does not reproduce it.
            K[start:start + PAIR_SLICE] *= np.float_power(np.hypot(block[0].real, block[0].imag), 2.0)
    return np.clip(K, 0.0, 1.0, out=K)


def _measured(cfg, K: np.ndarray) -> np.ndarray:
    """K itself in exact mode; in shots mode one draw over every entry of K.

    The inversion count is the all-zeros cell of the full-register
    multinomial, Binomial(shots, k); the swap count is the ancilla's,
    Binomial(shots, 1/2 + k/2), read back as clamp(2 p0_hat - 1, 0, 1).
    """
    if cfg.mode == "exact":
        return K
    rng = np.random.default_rng(_checks.rng_entropy(cfg.seed))
    if cfg.circuit_kind == "inversion":
        return rng.binomial(cfg.shots, K) / cfg.shots
    successes = rng.binomial(cfg.shots, 0.5 + 0.5 * K)
    return np.clip(2.0 * successes / cfg.shots - 1.0, 0.0, 1.0)


def kernel_value(cfg: KernelEngineConfig, point_a, point_b) -> float:
    """Evaluate k(point_a, point_b) under `cfg` for two single points, each
    one flat vector of features: the 1x1 cross_gram of the two one-row
    matrices."""
    a, b = _checks.point(point_a, "point_a"), _checks.point(point_b, "point_b")
    return float(cross_gram(cfg, a.reshape(1, -1), b.reshape(1, -1))[0, 0])


def gram_matrix(cfg: KernelEngineConfig, data) -> GramMatrix:
    """Kernel matrix of a point set against itself: the entries above the diagonal
    are evaluated and measured row by row, then mirrored; the diagonal is 1."""
    points = _checks.points(data, "data")
    rows, cols = np.triu_indices(len(points), 1)
    if cfg.spec.n_layers == 1:
        exact = _inversion_tests(cfg, points, rows, cols)
    else:
        states = encode_states(cfg.spec, points, cfg.params)
        exact = _tiled_products(states, states, _fidelities)[rows, cols]
    values = np.ones((len(points), len(points)))
    values[rows, cols] = values[cols, rows] = _measured(cfg, exact)
    return GramMatrix(values=values)


def cross_gram(cfg: KernelEngineConfig, data_new, data_train) -> np.ndarray:
    """Rectangular kernel block K[i][j] = k(data_new[i], data_train[j]), from
    the overlaps of states encoded once per point (and qubit, at one layer),
    for either circuit kind."""
    new_points, train_points = _checks.cross_points(data_new, data_train)
    if cfg.spec.n_layers == 1:
        exact = np.ones((len(new_points), len(train_points)))
        for (_, new), (_, train) in zip(_qubit_blocks(cfg, new_points),
                                        _qubit_blocks(cfg, train_points)):
            exact *= _tiled_products(new, train, _fidelities)
    else:
        exact = _tiled_products(encode_states(cfg.spec, new_points, cfg.params),
                                encode_states(cfg.spec, train_points, cfg.params), _fidelities)
    return _measured(cfg, exact)
