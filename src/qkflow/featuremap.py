"""Trainable data-encoding circuits.

A feature map turns a classical point x into a circuit U(x; lambda) acting on
|0...0>. Each layer applies one trainable rotation and one data rotation per
qubit and then an optional CNOT entangler:

    for layer l:
        for qubit q:  trainable_axis(lambda[l * n_qubits + q]) on q
        for qubit q:  data_axis(data_scaling * x[(l * n_qubits + q) mod d]) on q
        entangler CNOTs (none / linear_chain / ring)

Features are consumed round-robin with a layer offset, so maps with more
rotation slots than input features reuse coordinates. Data points and
parameter vectors are plain 1-D float arrays.

The circuit is written down once, in `_encoding_angles`, as (kind, targets,
angles) for a whole block of points. `encoding_gates` turns it into
`statevector.apply_gates` triples, with 2x2 matrix stacks in place of
angles, and `encode_states` runs them on a block of |0...0> columns.
A one-layer inversion test derives U(x)^dag from these gates
(`statevector._adjoint`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .statevector import _zero_block, apply_gates, rotation_matrices, rng_entropy

__all__ = [
    "DATA_AXES",
    "TRAINABLE_AXES",
    "ENTANGLEMENTS",
    "FeatureMapSpec",
    "param_count",
    "encoding_gates",
    "encode_states",
    "random_params",
]

DATA_AXES = ("rx", "ry", "rz")
TRAINABLE_AXES = ("rx", "ry", "rz", "p")
ENTANGLEMENTS = ("none", "linear_chain", "ring")


@dataclass(frozen=True)
class FeatureMapSpec:
    """Static description of an encoding circuit family."""

    n_qubits: int = 1
    n_layers: int = 1
    data_axis: str = "rx"
    trainable_axis: str = "ry"
    entanglement: str = "linear_chain"
    data_scaling: float = 1.0

    def __post_init__(self) -> None:
        if int(self.n_qubits) < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if int(self.n_layers) < 1:
            raise ValueError(f"n_layers must be >= 1, got {self.n_layers}")
        object.__setattr__(self, "n_qubits", int(self.n_qubits))
        object.__setattr__(self, "n_layers", int(self.n_layers))
        object.__setattr__(self, "data_scaling", float(self.data_scaling))
        if self.data_axis not in DATA_AXES:
            raise ValueError(
                f"data_axis must be one of {DATA_AXES}, got {self.data_axis!r}"
            )
        if self.trainable_axis not in TRAINABLE_AXES:
            raise ValueError(
                f"trainable_axis must be one of {TRAINABLE_AXES}, got {self.trainable_axis!r}"
            )
        if self.entanglement not in ENTANGLEMENTS:
            raise ValueError(
                f"entanglement must be one of {ENTANGLEMENTS}, got {self.entanglement!r}"
            )
        if not np.isfinite(self.data_scaling):
            raise ValueError(f"data_scaling must be finite, got {self.data_scaling}")


def param_count(spec: FeatureMapSpec) -> int:
    """Number of trainable parameters: one per qubit per layer."""
    return spec.n_layers * spec.n_qubits


def _entangler_pairs(spec: FeatureMapSpec) -> tuple[tuple[int, int], ...]:
    n = spec.n_qubits
    if spec.entanglement == "none" or n == 1:
        return ()
    chain = tuple((q, q + 1) for q in range(n - 1))
    if spec.entanglement == "linear_chain":
        return chain
    return chain + ((n - 1, 0),)


def _checked_params(spec: FeatureMapSpec, params: np.ndarray) -> np.ndarray:
    lam = np.asarray(params, dtype=float).reshape(-1)
    expected = param_count(spec)
    if lam.size != expected:
        raise ValueError(
            f"parameter vector has length {lam.size}, spec needs {expected}"
        )
    if not np.all(np.isfinite(lam)):
        raise ValueError("parameter vector contains non-finite values")
    return lam


def _encoding_angles(spec: FeatureMapSpec, points: np.ndarray, params: np.ndarray) -> list:
    """The gates of U(x) for every row x of `points`.

    Each gate is (kind, targets, angles). A trainable rotation has one angle
    shared by every point, a data rotation one angle per point and a CNOT None.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] < 1:
        raise ValueError("points must be a 2-D array with at least one feature")
    if not np.all(np.isfinite(points)):
        raise ValueError("points contain non-finite values")
    lam = _checked_params(spec, params)
    gates = []
    for layer in range(spec.n_layers):
        base = layer * spec.n_qubits
        for q in range(spec.n_qubits):
            gates.append((spec.trainable_axis, (q,), lam[base + q:base + q + 1]))
        with np.errstate(over="ignore"):  # an overflow is reported below
            for q in range(spec.n_qubits):
                column = points[:, (base + q) % points.shape[1]]
                gates.append((spec.data_axis, (q,), spec.data_scaling * column))
        gates.extend(("cnot", pair, None) for pair in _entangler_pairs(spec))
    if not all(angles is None or np.all(np.isfinite(angles)) for _, _, angles in gates):
        raise ValueError("gate parameters must be finite")
    return gates


def encoding_gates(
    spec: FeatureMapSpec, points: np.ndarray, params: np.ndarray
) -> list[tuple[str, tuple[int, ...], np.ndarray | None]]:
    """`_encoding_angles` as `apply_gates` triples: every angle becomes its
    2x2 rotation matrix, so a data rotation has one matrix per point and a
    trainable rotation one matrix shared by every point."""
    return [
        (kind, targets, None if angles is None else rotation_matrices(kind, angles))
        for kind, targets, angles in _encoding_angles(spec, points, params)
    ]


def encode_states(spec: FeatureMapSpec, points: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Return U(x_r)|0...0> as column r of one C-ordered (2**n, len(points))
    block.

    Every column is evolved by the gates of its own point, in circuit order,
    so each column has the bits it would have if it were encoded on its own.
    """
    amps = _zero_block(len(points), spec.n_qubits)
    apply_gates(amps, spec.n_qubits, encoding_gates(spec, points, params))
    return amps


def random_params(spec: FeatureMapSpec, seed: int) -> np.ndarray:
    """Draw an initial parameter vector uniformly from [-pi, pi]."""
    rng = np.random.default_rng(rng_entropy(seed))
    return rng.uniform(-np.pi, np.pi, size=param_count(spec))
