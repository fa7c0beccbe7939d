"""Dense statevector simulation of small parameterized circuits.

Amplitudes are stored as a ``(rows, 2**n_qubits)`` complex128 block, one
state per row, that is evolved at once. Qubit 0 is the least significant bit
of the computational basis index, so for two qubits the basis order is
``|q1 q0> = |00>, |01>, |10>, |11>``.  Gates are applied by strided slicing
of the amplitudes; the full ``2**n x 2**n`` operator is never materialized.

`apply_gates` is the one gate loop. It takes gates as ``(kind, targets,
matrices)`` and gives a block's rows one shared 2x2 matrix or one each;
`rotation_matrices` makes those matrices from angles. The feature-map
encoder builds its gates in this form.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MAX_QUBITS",
    "rotation_matrices",
    "apply_gates",
]

MAX_QUBITS = 20

_ROTATIONS = ("p", "rx", "ry", "rz")


def _zero_block(rows: int, n_qubits: int) -> np.ndarray:
    n = int(n_qubits)
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(
            f"simulator supports 1 to {MAX_QUBITS} qubits, got {n_qubits}"
        )
    amps = np.zeros((rows, 1 << n), dtype=np.complex128)
    amps[:, 0] = 1.0
    return amps


def rotation_matrices(kind: str, angles) -> np.ndarray:
    """Return the (k, 2, 2) stack of `kind` rotations, one per angle:

        P(t)  = diag(1, e^{i t})
        RX(t) = cos(t/2) I - i sin(t/2) X = [[c, -i s], [-i s, c]]
        RY(t) = cos(t/2) I - i sin(t/2) Y = [[c, -s], [s, c]]
        RZ(t) = diag(e^{-i t/2}, e^{i t/2})

    with c = cos(t/2) and s = sin(t/2).
    """
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


def _check_gates(n_qubits: int, gates) -> None:
    for kind, targets, _ in gates:
        if kind == "cnot":
            arity = 2
        elif kind in _ROTATIONS:
            arity = 1
        else:
            raise ValueError(f"unknown gate kind {kind!r}")
        if len(targets) != arity:
            raise ValueError(f"gate {kind!r} takes {arity} target(s), got {tuple(targets)}")
        for t in targets:
            if not 0 <= t < n_qubits:
                raise ValueError(
                    f"gate {kind!r} targets qubit {t} on a {n_qubits}-qubit register"
                )
        if arity == 2 and targets[0] == targets[1]:
            raise ValueError(f"gate {kind!r} targets must be distinct, got {tuple(targets)}")


def apply_gates(amps: np.ndarray, n_qubits: int, gates) -> None:
    """Apply `gates` in place, in order, to every row of a (rows, 2**n) block.

    A gate is (kind, targets, matrices): "cnot" takes (control, target) and
    None; "p", "rx", "ry" and "rz" take (qubit,) and a (1, 2, 2) stack shared
    by every row or a (rows, 2, 2) stack with one matrix per row. Every gate
    is checked before any amplitude changes; a bad one raises ValueError.
    """
    if amps.ndim != 2 or amps.shape[1] != 1 << n_qubits:
        raise ValueError(
            f"gates act on {n_qubits} qubit(s) but the block has shape {amps.shape}"
        )
    gates = list(gates)
    _check_gates(n_qubits, gates)
    scratch = _gate_scratch(amps)
    for kind, targets, matrices in gates:
        if kind == "cnot":
            _apply_cnot_inplace(amps, n_qubits, targets[0], targets[1], scratch)
        else:
            _apply_single_inplace(amps, targets[0], matrices, scratch)


def rng_entropy(seed: int) -> int:
    """Map an arbitrary integer seed onto the non-negative range numpy accepts."""
    return int(seed) % (1 << 64)
