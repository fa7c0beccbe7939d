"""Dense statevector simulation of small parameterized circuits.

Amplitudes are stored as a C-ordered ``(2**n_qubits, columns)`` complex128
block, one state per column, that is evolved at once. Qubit 0 is the least
significant bit of the computational basis index, which is the row, so for
two qubits the rows are ``|q1 q0> = |00>, |01>, |10>, |11>``. Gates are
applied by slicing rows: a gate on qubit q reads and writes contiguous runs
of ``2**q * columns`` amplitudes. The full ``2**n x 2**n`` operator is never
materialized.

`apply_gates` is the one gate loop. It takes gates as ``(kind, targets,
matrices)`` and gives a block's columns one shared 2x2 matrix or one each;
`rotation_matrices` makes those matrices from angles. The feature-map
encoder builds its gates in this form, and a one-layer kernel runs each
qubit's rotations, and their inverse at negated angles, through the same
loop on one-qubit blocks. The module imports no other qkflow module.
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


def _checked_qubits(n_qubits: int) -> int:
    n = int(n_qubits)
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(
            f"simulator supports 1 to {MAX_QUBITS} qubits, got {n_qubits}"
        )
    return n


def _zero_block(columns: int, n_qubits: int) -> np.ndarray:
    amps = np.zeros((1 << _checked_qubits(n_qubits), columns), dtype=np.complex128)
    amps[0] = 1.0
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


def _entries(u: np.ndarray) -> tuple[np.ndarray, ...]:
    """u00, u01, u10, u11 of a (k, 2, 2) stack, each a contiguous (1, 1, k)
    array, which broadcasts over the columns of a 3-axis view."""
    entries = np.ascontiguousarray(u.reshape(-1, 4).T)
    return tuple(entries.reshape(4, 1, 1, -1))


# numpy's vectorized complex multiply (a fused multiply-add on x86-64 with
# AVX2 or AVX-512) can round differently from the one-element loop it runs
# when a call has a single element and either writes over an input or
# broadcasts an operand of fewer axes. So that every element rounds the same
# in a block of any width, each product below goes to memory that none of
# its inputs occupies, and every matrix entry has as many axes as the
# amplitudes.


def _apply_single_inplace(amps: np.ndarray, q: int, u: np.ndarray,
                          scratch: np.ndarray) -> None:
    # amps is a (2**n, columns) block, u one 2x2 matrix or one per column and
    # scratch work space of amps.size complex numbers. Along the middle axis
    # of the view, the first 2**q rows have the target bit 0 and the next
    # 2**q have it 1. The new a0 is u00 * a0 + u01 * a1 and the new a1 is
    # u10 * a0 + u11 * a1; a0's rows hold u01 * a1 once a0 is read for the
    # last time. Outputs are passed positionally: on a few qubits the out=
    # keyword costs more than the math.
    size, columns = amps.shape
    lo = 1 << q
    view = amps.reshape(size >> (q + 1), 2 * lo, columns)
    u00, u01, u10, u11 = _entries(u)
    top, bottom = scratch.reshape(2, size >> (q + 1), lo, columns)
    a0, a1 = view[:, :lo], view[:, lo:]
    np.multiply(u00, a0, top)
    np.multiply(u10, a0, bottom)
    np.multiply(u01, a1, a0)
    np.add(top, a0, a0)
    np.multiply(u11, a1, top)
    np.add(bottom, top, a1)


def _apply_cnot_inplace(amps: np.ndarray, n: int, control: int, target: int,
                        scratch: np.ndarray) -> None:
    # C-order: axis n - 1 - q indexes qubit q and the last axis the columns.
    tensor = amps.reshape((2,) * n + (amps.shape[1],))
    lo = [slice(None)] * (n + 1)
    lo[n - 1 - control] = 1
    hi = list(lo)
    lo[n - 1 - target] = 0
    hi[n - 1 - target] = 1
    low, high = tensor[tuple(lo)], tensor[tuple(hi)]
    tmp = scratch[:low.size].reshape(low.shape)
    tmp[...] = low
    low[...] = high
    high[...] = tmp


def _checked_gates(amps: np.ndarray, n_qubits: int, gates) -> list:
    """`gates` as a list, once the block and every gate are checked."""
    if amps.ndim != 2 or amps.shape[0] != 1 << n_qubits or not amps.flags.c_contiguous:
        raise ValueError(
            f"gates act on {n_qubits} qubit(s) but the block is not a C-ordered "
            f"(2**{n_qubits}, columns) array: shape {amps.shape}"
        )
    gates = list(gates)
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
    return gates


def apply_gates(amps: np.ndarray, n_qubits: int, gates) -> None:
    """Apply `gates` in place, in order, to every column of a C-ordered
    (2**n, columns) block.

    A gate is (kind, targets, matrices): "cnot" takes (control, target) and
    None; "p", "rx", "ry" and "rz" take (qubit,) and a (1, 2, 2) stack shared
    by every column or a (columns, 2, 2) stack with one matrix per column.
    Every gate is checked before any amplitude changes; a bad one raises
    ValueError.
    """
    gates = _checked_gates(amps, n_qubits, gates)
    scratch = np.empty(amps.size, dtype=np.complex128)
    for kind, targets, matrices in gates:
        if kind == "cnot":
            _apply_cnot_inplace(amps, n_qubits, targets[0], targets[1], scratch)
        else:
            _apply_single_inplace(amps, targets[0], matrices, scratch)
