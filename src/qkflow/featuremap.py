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

`build_encoding_circuit` binds one point into a `Circuit`. The kernels use
`encode_states` and `encoding_gates` instead: the same gates, as stacks of
2x2 matrices with one per point, simulated without building circuit objects.
Both read the gate order from one layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .statevector import (
    Circuit,
    Gate,
    _apply_cnot_inplace,
    _apply_single_inplace,
    _gate_scratch,
    _zero_block,
    cnot,
    rotation_matrices,
    rng_entropy,
)

__all__ = [
    "DATA_AXES",
    "TRAINABLE_AXES",
    "ENTANGLEMENTS",
    "FeatureMapSpec",
    "param_count",
    "build_encoding_circuit",
    "encoding_gates",
    "apply_encoding_gates",
    "encode_states",
    "random_params",
]

DATA_AXES = ("rx", "ry", "rz")
TRAINABLE_AXES = ("rx", "ry", "rz", "p")
ENTANGLEMENTS = ("none", "linear_chain", "ring")


@dataclass(frozen=True)
class FeatureMapSpec:
    """Static description of an encoding circuit family."""

    n_qubits: int
    n_layers: int
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


def _layout(spec: FeatureMapSpec, n_features: int):
    """Yield (kind, targets, source, index) for every gate position in order.

    `source` is "param" for a trainable rotation with angle params[index],
    "data" for a data rotation with angle data_scaling * x[index] and None
    for a CNOT (index None).
    """
    entangler = _entangler_pairs(spec)
    for layer in range(spec.n_layers):
        base = layer * spec.n_qubits
        for q in range(spec.n_qubits):
            yield spec.trainable_axis, (q,), "param", base + q
        for q in range(spec.n_qubits):
            yield spec.data_axis, (q,), "data", (base + q) % n_features
        for pair in entangler:
            yield "cnot", pair, None, None


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


def build_encoding_circuit(
    spec: FeatureMapSpec, data_point: np.ndarray, params: np.ndarray
) -> Circuit:
    """Bind one data point and one parameter vector into a concrete circuit."""
    point = np.asarray(data_point, dtype=float).reshape(-1)
    if point.size < 1:
        raise ValueError("data point must have at least one feature")
    if not np.all(np.isfinite(point)):
        raise ValueError("data point contains non-finite values")
    lam = _checked_params(spec, params)

    gates: list[Gate] = []
    for kind, targets, source, index in _layout(spec, point.size):
        if source == "param":
            gates.append(Gate(kind, targets, (float(lam[index]),)))
        elif source == "data":
            gates.append(Gate(kind, targets, (spec.data_scaling * float(point[index]),)))
        else:
            gates.append(cnot(*targets))
    return Circuit(spec.n_qubits, tuple(gates))


def encoding_gates(
    spec: FeatureMapSpec, points: np.ndarray, params: np.ndarray, inverse: bool = False
) -> list[tuple[tuple[int, ...], np.ndarray | None]]:
    """The gates of U(x), or of U(x)^dag with `inverse`, for every row x of `points`.

    Each position is (targets, matrices). A data rotation has one 2x2 matrix
    per row, a trainable rotation one matrix shared by every row, and a CNOT
    None. The matrices, angles and order are those of
    `build_encoding_circuit`, or of its `adjoint`: positions reversed and
    every angle negated.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] < 1:
        raise ValueError("points must be a 2-D array with at least one feature")
    lam = _checked_params(spec, params)
    gates = []
    for kind, targets, source, index in _layout(spec, points.shape[1]):
        if source is None:
            gates.append((targets, None))
            continue
        if source == "param":
            angles = lam[index:index + 1]
        else:
            with np.errstate(over="ignore"):  # an overflow is reported below
                angles = spec.data_scaling * points[:, index]
        if inverse:
            angles = -angles
        if not np.all(np.isfinite(angles)):
            raise ValueError("gate parameters must be finite")
        gates.append((targets, rotation_matrices(kind, angles)))
    return gates[::-1] if inverse else gates


def apply_encoding_gates(amps: np.ndarray, n_qubits: int, gates) -> None:
    """Apply `encoding_gates` positions in place to a (rows, 2**n) block.

    Every stack of matrices must hold one matrix per row or one in all.
    """
    scratch = _gate_scratch(amps)
    for targets, matrices in gates:
        if matrices is None:
            _apply_cnot_inplace(amps, n_qubits, targets[0], targets[1], scratch)
        else:
            _apply_single_inplace(amps, targets[0], matrices, scratch)


def encode_states(spec: FeatureMapSpec, points: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Return U(x_r)|0...0> as row r of one (len(points), 2**n) block.

    Each row gets exactly the arithmetic `simulate_block` gives the circuits
    `build_encoding_circuit` makes, without building them.
    """
    amps = _zero_block(len(points), spec.n_qubits)
    apply_encoding_gates(amps, spec.n_qubits, encoding_gates(spec, points, params))
    return amps


def random_params(spec: FeatureMapSpec, seed: int) -> np.ndarray:
    """Draw an initial parameter vector uniformly from [-pi, pi]."""
    rng = np.random.default_rng(rng_entropy(seed))
    return rng.uniform(-np.pi, np.pi, size=param_count(spec))
