"""Dense statevector simulation of small parameterized circuits.

Amplitudes are stored as a single complex128 vector of length ``2**n_qubits``,
or as a ``(rows, 2**n_qubits)`` block of such vectors that is evolved at once.
Qubit 0 is the least significant bit of the computational basis index, so for
two qubits the basis order is ``|q1 q0> = |00>, |01>, |10>, |11>``.  Gates are
applied by strided slicing of the amplitudes; the full ``2**n x 2**n``
operator is never materialized.

`apply_gates` is the one gate loop. It takes gates as ``(kind, targets,
matrices)`` and gives a block's rows one shared 2x2 matrix or one each.
`apply_gate` and `apply_circuit` turn their `Gate` objects into that form,
and the feature-map encoder builds it directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_QUBITS",
    "Gate",
    "Circuit",
    "StateVector",
    "h",
    "x",
    "p",
    "rx",
    "ry",
    "rz",
    "u3",
    "rotation_matrices",
    "cnot",
    "cz",
    "new_zero_state",
    "apply_gates",
    "apply_gate",
    "apply_circuit",
    "adjoint",
    "inner_product",
    "probability_all_zeros",
    "sample_measurements",
]

MAX_QUBITS = 20

_PARAM_COUNTS = {
    "h": 0,
    "x": 0,
    "p": 1,
    "rx": 1,
    "ry": 1,
    "rz": 1,
    "u3": 3,
    "cnot": 0,
    "cz": 0,
}
_TWO_QUBIT = frozenset({"cnot", "cz"})


@dataclass(frozen=True)
class Gate:
    """A named gate bound to target qubits and (possibly empty) angle parameters."""

    kind: str
    targets: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _PARAM_COUNTS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        targets = tuple(int(t) for t in self.targets)
        params = tuple(float(a) for a in self.params)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "params", params)
        arity = 2 if self.kind in _TWO_QUBIT else 1
        if len(targets) != arity:
            raise ValueError(f"gate {self.kind!r} takes {arity} target(s), got {len(targets)}")
        if len(set(targets)) != len(targets):
            raise ValueError(f"gate {self.kind!r} targets must be distinct, got {targets}")
        if any(t < 0 for t in targets):
            raise ValueError(f"gate targets must be non-negative, got {targets}")
        if len(params) != _PARAM_COUNTS[self.kind]:
            raise ValueError(
                f"gate {self.kind!r} takes {_PARAM_COUNTS[self.kind]} parameter(s), "
                f"got {len(params)}"
            )
        if any(not math.isfinite(a) for a in params):
            raise ValueError(f"gate parameters must be finite, got {params}")


def h(target: int) -> Gate:
    """Hadamard: H = (1/sqrt 2) [[1, 1], [1, -1]]."""
    return Gate("h", (target,))


def x(target: int) -> Gate:
    """Pauli X (bit flip)."""
    return Gate("x", (target,))


def p(target: int, theta: float) -> Gate:
    """Phase gate: P(theta) = diag(1, e^{i theta})."""
    return Gate("p", (target,), (theta,))


def rx(target: int, theta: float) -> Gate:
    """X rotation: RX(theta) = cos(theta/2) I - i sin(theta/2) X."""
    return Gate("rx", (target,), (theta,))


def ry(target: int, theta: float) -> Gate:
    """Y rotation: RY(theta) = cos(theta/2) I - i sin(theta/2) Y."""
    return Gate("ry", (target,), (theta,))


def rz(target: int, theta: float) -> Gate:
    """Z rotation: RZ(theta) = diag(e^{-i theta/2}, e^{i theta/2})."""
    return Gate("rz", (target,), (theta,))


def u3(target: int, theta: float, phi: float, lam: float) -> Gate:
    """General single-qubit rotation.

    U3(theta, phi, lam) =
        [[cos(theta/2),              -e^{i lam} sin(theta/2)],
         [e^{i phi} sin(theta/2),     e^{i(phi + lam)} cos(theta/2)]]
    """
    return Gate("u3", (target,), (theta, phi, lam))


def cnot(control: int, target: int) -> Gate:
    """Controlled X; flips `target` when `control` is 1."""
    return Gate("cnot", (control, target))


def cz(qubit_a: int, qubit_b: int) -> Gate:
    """Controlled Z; phase -1 on the |11> component. Symmetric in its targets."""
    return Gate("cz", (qubit_a, qubit_b))


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over a fixed qubit register."""

    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        if int(self.n_qubits) < 1:
            raise ValueError(f"circuit needs at least one qubit, got {self.n_qubits}")
        object.__setattr__(self, "n_qubits", int(self.n_qubits))
        object.__setattr__(self, "gates", tuple(self.gates))
        for gate in self.gates:
            for t in gate.targets:
                if t >= self.n_qubits:
                    raise ValueError(
                        f"gate {gate.kind!r} targets qubit {t} "
                        f"but the circuit has {self.n_qubits} qubit(s)"
                    )


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitude vector over `n_qubits` qubits (read-only)."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        n = int(self.n_qubits)
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"state must have between 1 and {MAX_QUBITS} qubits, got {n}")
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=True).reshape(-1)
        if amps.shape != (1 << n,):
            raise ValueError(
                f"amplitude vector has length {amps.shape[0]}, expected {1 << n}"
            )
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state is not normalized: sum |a|^2 = {norm!r}")
        amps.flags.writeable = False
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "amplitudes", amps)


def _zero_block(rows: int, n_qubits: int) -> np.ndarray:
    n = int(n_qubits)
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(
            f"simulator supports 1 to {MAX_QUBITS} qubits, got {n_qubits}"
        )
    amps = np.zeros((rows, 1 << n), dtype=np.complex128)
    amps[:, 0] = 1.0
    return amps


def new_zero_state(n_qubits: int) -> StateVector:
    """Return |0...0> on `n_qubits` qubits (1 to MAX_QUBITS inclusive)."""
    return StateVector(int(n_qubits), _zero_block(1, n_qubits))


def rotation_matrices(kind: str, angles) -> np.ndarray:
    """Return the (k, 2, 2) stack of `kind` rotations ("p", "rx", "ry" or "rz"),
    one per angle, with the entries the gate constructors document."""
    theta = np.asarray(angles, dtype=float).reshape(-1)
    out = np.zeros((theta.size, 2, 2), dtype=np.complex128)
    if kind == "p":
        out[:, 0, 0] = 1.0
        out[:, 1, 1] = np.exp(1j * theta)
    elif kind in ("rx", "ry"):
        c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
        out[:, 0, 0] = c
        out[:, 1, 1] = c
        if kind == "rx":
            # -1j * s has real part +0.0 and imaginary part -s for every s.
            out.imag[:, 0, 1] = -s
            out.imag[:, 1, 0] = -s
        else:
            out[:, 0, 1] = -s
            out[:, 1, 0] = s
    elif kind == "rz":
        out[:, 0, 0] = np.exp(-0.5j * theta)
        out[:, 1, 1] = np.exp(0.5j * theta)
    else:
        raise ValueError(f"{kind!r} is not a one-angle rotation")
    return out


def _single_qubit_matrix(gate: Gate) -> np.ndarray:
    kind = gate.kind
    if kind in ("p", "rx", "ry", "rz"):
        return rotation_matrices(kind, gate.params)[0]
    if kind == "h":
        s = 1.0 / math.sqrt(2.0)
        return np.array([[s, s], [s, -s]], dtype=np.complex128)
    if kind == "x":
        return np.array([[0, 1], [1, 0]], dtype=np.complex128)
    if kind == "u3":
        theta, phi, lam = gate.params
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        return np.array(
            [
                [c, -np.exp(1j * lam) * s],
                [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
            ],
            dtype=np.complex128,
        )
    raise ValueError(f"gate {kind!r} has no single-qubit matrix")


def _gate_scratch(amps: np.ndarray) -> np.ndarray:
    """Work space the gate kernels reuse for every gate applied to `amps`."""
    return np.empty((3, amps.size >> 1), dtype=np.complex128)


def _apply_single_inplace(amps: np.ndarray, q: int, u: np.ndarray,
                          scratch: np.ndarray) -> None:
    # amps is a (rows, 2**n) block, u one 2x2 matrix or one per row and
    # scratch from _gate_scratch(amps). Along the last axis of the view, the
    # first 2**q amplitudes have the target bit 0 and the next 2**q have it 1.
    # Each product reads the same operands with the same layout as
    # u00 * a0 + u01 * a1 on temporaries would (a0 a contiguous copy, a1 the
    # strided view), so every element rounds the same. Outputs are passed
    # positionally: on a few qubits the out= keyword costs more than the math.
    rows, size = amps.shape
    lo = 1 << q
    view = amps.reshape(rows, size >> (q + 1), 2 * lo)
    u = u.reshape(-1, 1, 4)
    work = scratch.reshape(3, rows, size >> (q + 1), lo)
    a0, prod0, prod1 = work[0], work[1], work[2]
    a0[...] = view[:, :, :lo]
    a1 = view[:, :, lo:]
    np.multiply(u[:, :, 0:1], a0, prod0)
    np.multiply(u[:, :, 1:2], a1, prod1)
    np.add(prod0, prod1, view[:, :, :lo])
    np.multiply(u[:, :, 2:3], a0, prod0)
    np.multiply(u[:, :, 3:4], a1, prod1)
    np.add(prod0, prod1, a1)


def _qubit_tensor(amps: np.ndarray, n: int) -> tuple[np.ndarray, list]:
    # C-order: after the row axis, axis n - q indexes qubit q.
    return amps.reshape((amps.shape[0],) + (2,) * n), [slice(None)] * (n + 1)


def _apply_cnot_inplace(amps: np.ndarray, n: int, control: int, target: int,
                        scratch: np.ndarray) -> None:
    tensor, lo = _qubit_tensor(amps, n)
    lo[n - control] = 1
    hi = list(lo)
    lo[n - target] = 0
    hi[n - target] = 1
    low, high = tensor[tuple(lo)], tensor[tuple(hi)]
    tmp = scratch[0, :low.size].reshape(low.shape)
    tmp[...] = low
    low[...] = high
    high[...] = tmp


def _apply_cz_inplace(amps: np.ndarray, n: int, qubit_a: int, qubit_b: int) -> None:
    tensor, sel = _qubit_tensor(amps, n)
    sel[n - qubit_a] = 1
    sel[n - qubit_b] = 1
    tensor[tuple(sel)] *= -1.0


def apply_gates(amps: np.ndarray, n_qubits: int, gates) -> None:
    """Apply `gates` in place, in order, to every row of a (rows, 2**n) block.

    A gate is (kind, targets, matrices): "cnot" and "cz" take None, any other
    kind a (1, 2, 2) stack shared by every row or a (rows, 2, 2) stack with
    one matrix per row.
    """
    if amps.ndim != 2 or amps.shape[1] != 1 << n_qubits:
        raise ValueError(
            f"gates act on {n_qubits} qubit(s) but the block has shape {amps.shape}"
        )
    scratch = _gate_scratch(amps)
    for kind, targets, matrices in gates:
        if kind == "cnot":
            _apply_cnot_inplace(amps, n_qubits, targets[0], targets[1], scratch)
        elif kind == "cz":
            _apply_cz_inplace(amps, n_qubits, targets[0], targets[1])
        else:
            _apply_single_inplace(amps, targets[0], matrices, scratch)


def _as_gates(gates) -> list:
    """`Gate` objects as `apply_gates` triples, each with one shared matrix."""
    return [
        (g.kind, g.targets, None if g.kind in _TWO_QUBIT else _single_qubit_matrix(g)[None])
        for g in gates
    ]


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Return the state after applying one gate (the input is unchanged)."""
    for t in gate.targets:
        if t >= state.n_qubits:
            raise IndexError(
                f"gate {gate.kind!r} targets qubit {t} on a {state.n_qubits}-qubit state"
            )
    amps = state.amplitudes.reshape(1, -1).copy()
    apply_gates(amps, state.n_qubits, _as_gates([gate]))
    return StateVector(state.n_qubits, amps)


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Return the state after applying every gate of `circuit` in order."""
    if circuit.n_qubits != state.n_qubits:
        raise ValueError(
            f"circuit acts on {circuit.n_qubits} qubit(s) "
            f"but the state has {state.n_qubits}"
        )
    amps = state.amplitudes.reshape(1, -1).copy()
    apply_gates(amps, state.n_qubits, _as_gates(circuit.gates))
    return StateVector(state.n_qubits, amps)


def _invert_gate(gate: Gate) -> Gate:
    kind = gate.kind
    if kind in ("h", "x", "cnot", "cz"):
        return gate
    if kind in ("p", "rx", "ry", "rz"):
        return Gate(kind, gate.targets, (-gate.params[0],))
    if kind == "u3":
        theta, phi, lam = gate.params
        return Gate("u3", gate.targets, (-theta, -lam, -phi))
    raise ValueError(f"cannot invert gate kind {kind!r}")


def adjoint(circuit: Circuit) -> Circuit:
    """Return the inverse circuit: gates reversed, each gate inverted."""
    return Circuit(circuit.n_qubits, tuple(_invert_gate(g) for g in reversed(circuit.gates)))


def inner_product(state_a: StateVector, state_b: StateVector) -> complex:
    """Return <a|b>."""
    if state_a.n_qubits != state_b.n_qubits:
        raise ValueError(
            f"states have different sizes: {state_a.n_qubits} vs {state_b.n_qubits} qubits"
        )
    return complex(np.vdot(state_a.amplitudes, state_b.amplitudes))


def probability_all_zeros(state: StateVector) -> float:
    """Return |<0...0|state>|^2."""
    return float(abs(state.amplitudes[0]) ** 2)


def rng_entropy(seed: int) -> int:
    """Map an arbitrary integer seed onto the non-negative range numpy accepts."""
    return int(seed) % (1 << 64)


def sample_measurements(state: StateVector, shots: int, seed: int) -> dict[str, int]:
    """Sample `shots` full-register measurements; returns bitstring -> count.

    Bitstrings spell the basis index in binary with qubit 0 as the rightmost
    character. Only observed outcomes appear in the histogram.
    """
    if shots < 1:
        raise ValueError(f"shots must be a positive integer, got {shots}")
    probs = np.abs(state.amplitudes) ** 2
    probs = probs / probs.sum()
    rng = np.random.default_rng(rng_entropy(seed))
    counts = rng.multinomial(int(shots), probs)
    n = state.n_qubits
    return {
        format(index, f"0{n}b"): int(count)
        for index, count in enumerate(counts)
        if count > 0
    }
