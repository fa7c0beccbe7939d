"""Statevector engine tests.

Expected amplitudes are closed-form values of the gate definitions, written
out in the assertions (e.g. RX(pi)|0> = [0, -i] because RX(theta) =
cos(theta/2) I - i sin(theta/2) X).
"""

import math

import numpy as np
import pytest

from oracles import apply_cnot_oracle, apply_single_oracle, rotation_matrix_oracle, run_gates_oracle
from qkflow.featuremap import FeatureMapSpec, encode_states, encoding_gates
from qkflow.statevector import MAX_QUBITS, _adjoint, _zero_block, apply_gates, rotation_matrices

INV_SQRT2 = 1.0 / math.sqrt(2.0)
ROTATIONS = ("p", "rx", "ry", "rz")


def rotation(kind, target, theta):
    """One gate with one matrix shared by every row."""
    return (kind, (target,), rotation_matrices(kind, [theta]))


def run(n_qubits, gates, start=None):
    """The amplitudes after `gates`, from |0...0> or from a copy of `start`."""
    amps = _zero_block(1, n_qubits) if start is None else np.array(start, dtype=complex)[:, None]
    apply_gates(amps, n_qubits, gates)
    return amps[:, 0]


def basis_state(n_qubits, index):
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[index] = 1.0
    return amps


def random_state(n_qubits, rng):
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return amps / np.linalg.norm(amps)


def random_gates(n_qubits, n_gates, rng):
    gates = []
    for _ in range(n_gates):
        kind = str(rng.choice(ROTATIONS + ("cnot",)))
        if kind == "cnot" and n_qubits >= 2:
            a, b = rng.choice(n_qubits, size=2, replace=False)
            gates.append(("cnot", (int(a), int(b)), None))
        else:
            kind = "rx" if kind == "cnot" else kind
            gates.append(rotation(kind, int(rng.integers(n_qubits)), rng.uniform(-np.pi, np.pi)))
    return gates


# single-gate actions on |0> and |1>


def test_zero_state():
    np.testing.assert_allclose(_zero_block(1, 2)[:, 0], [1, 0, 0, 0], atol=1e-15)
    np.testing.assert_array_equal(_zero_block(3, 1), [[1, 1, 1], [0, 0, 0]])


def test_rx_pi_on_zero():
    """RX(pi)|0> = -i|1>."""
    np.testing.assert_allclose(run(1, [rotation("rx", 0, math.pi)]), [0, -1j], atol=1e-12)


def test_ry_half_pi_on_zero():
    state = run(1, [rotation("ry", 0, math.pi / 2)])
    np.testing.assert_allclose(state, [INV_SQRT2, INV_SQRT2], atol=1e-12)


def test_rz_is_phase_on_zero():
    theta = 0.7391
    state = run(1, [rotation("rz", 0, theta)])
    np.testing.assert_allclose(state, [np.exp(-0.5j * theta), 0], atol=1e-12)


def test_p_phases_one_component():
    theta = 1.234
    state = run(1, [rotation("p", 0, theta)], start=basis_state(1, 1))
    np.testing.assert_allclose(state, [0, np.exp(1j * theta)], atol=1e-12)
    np.testing.assert_allclose(run(1, [rotation("p", 0, theta)]), [1, 0], atol=1e-15)


def test_cnot_on_basis_states():
    """Qubit 0 is the least significant bit: CNOT(1 -> 0) maps |10> to |11>."""
    state = run(2, [("cnot", (1, 0), None)], start=basis_state(2, 2))
    np.testing.assert_allclose(state, [0, 0, 0, 1], atol=1e-15)
    # control = 0 leaves the target alone
    np.testing.assert_allclose(run(2, [("cnot", (1, 0), None)]), [1, 0, 0, 0], atol=1e-15)


def test_cnot_control_zero_direction():
    state = run(2, [("cnot", (0, 1), None)], start=basis_state(2, 1))  # |01>
    np.testing.assert_allclose(state, [0, 0, 0, 1], atol=1e-15)


def test_bell_state():
    state = run(2, [rotation("ry", 0, math.pi / 2), ("cnot", (0, 1), None)])
    np.testing.assert_allclose(state, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-12)


# algebraic properties


def test_rotation_composition():
    """RX(a) then RX(b) equals RX(a+b)."""
    rng = np.random.default_rng(3)
    for _ in range(10):
        a, b = rng.uniform(-np.pi, np.pi, size=2)
        start = random_state(2, rng)
        two_step = run(2, [rotation("rx", 1, a), rotation("rx", 1, b)], start=start)
        one_step = run(2, [rotation("rx", 1, a + b)], start=start)
        np.testing.assert_allclose(two_step, one_step, atol=1e-12)


def test_norm_preserved_through_long_circuits():
    rng = np.random.default_rng(17)
    for n_qubits in (1, 2, 3):
        state = run(n_qubits, random_gates(n_qubits, 30, rng))
        assert abs(np.sum(np.abs(state) ** 2) - 1.0) <= 1e-12


def test_adjoint_round_trip():
    """The adjoint of the encoding gates undoes the encoding: U(x)^dag U(x)|0...0> = |0...0>."""
    rng = np.random.default_rng(23)
    for entanglement in ("none", "linear_chain", "ring"):
        spec = FeatureMapSpec(3, 2, "ry", "rx", entanglement, data_scaling=1.3)
        lam = rng.uniform(-np.pi, np.pi, 6)
        X = rng.uniform(-np.pi, np.pi, size=(4, 2))
        states = encode_states(spec, X, lam)
        apply_gates(states, 3, _adjoint(encoding_gates(spec, X, lam)))
        assert np.all(np.abs(states[0]) ** 2 >= 1.0 - 1e-12)


@pytest.mark.parametrize("kind", ROTATIONS)
def test_adjoint_has_the_value_of_the_negated_angles(kind):
    """`_adjoint` reverses the gates and conjugate-transposes each stack; each
    matrix equals the negated-angle rotation (assert_array_equal ignores the
    signs of zeros, which the inversion test's read-out cannot see)."""
    angles = np.concatenate([[0.0, np.pi, -np.pi, 2 * np.pi],
                             np.random.default_rng(5).uniform(-50.0, 50.0, 200)])
    gates = [("cnot", (0, 1), None), (kind, (1,), rotation_matrices(kind, angles))]
    (got_kind, targets, matrices), cnot = _adjoint(gates)
    assert (got_kind, targets, cnot) == (kind, (1,), gates[0])
    for u, theta in zip(matrices, angles):
        np.testing.assert_array_equal(u, rotation_matrix_oracle(kind, -theta))


# amplitude blocks, one state per column: a shared matrix gives every column
# the oracle's arithmetic, and one matrix per column gives each column what
# that gate alone gives it. The oracles evolve one state per row, so they run
# on the transposed block.

BLOCK_QUBITS = 4


def random_block(columns, n_qubits, rng):
    shape = (1 << n_qubits, columns)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return amps / np.linalg.norm(amps, axis=0, keepdims=True)


def on_rows(block, oracle, *args):
    """`oracle(rows, *args)` on the states of a column block, as columns again."""
    rows = np.ascontiguousarray(block.T)
    oracle(rows, *args)
    return rows.T


def block_gates():
    """Every rotation on every qubit, then cnot with the control above and
    below the target. The case ids keep the numbers the cases have always
    had: the rotations are cases 8-23 and cnot is 28-39."""
    cases = [(kind, (target,)) for kind in ROTATIONS for target in range(BLOCK_QUBITS)]
    cnots = [("cnot", (a, b)) for a in range(BLOCK_QUBITS) for b in range(BLOCK_QUBITS) if a != b]
    for first, group in ((8, cases), (28, cnots)):
        for number, (kind, targets) in enumerate(group, start=first):
            yield pytest.param(kind, targets, id=f"{kind}-targets{number}")


@pytest.mark.parametrize("kind,targets", list(block_gates()))
def test_block_with_shared_gate_matches_apply_gate(kind, targets):
    """One matrix shared by every column gives each column the oracle's arithmetic."""
    rng = np.random.default_rng(len(kind) * 10 + targets[0])
    before = random_block(5, BLOCK_QUBITS, rng)
    after = before.copy()
    if kind == "cnot":
        apply_gates(after, BLOCK_QUBITS, [(kind, targets, None)])
        expected = on_rows(before, apply_cnot_oracle, *targets)
    else:
        matrix = rotation_matrix_oracle(kind, rng.uniform(-7.0, 7.0))
        apply_gates(after, BLOCK_QUBITS, [(kind, targets, matrix[None])])
        expected = on_rows(before, apply_single_oracle, targets[0], matrix)
    np.testing.assert_array_equal(after, expected)


@pytest.mark.parametrize("kind", ROTATIONS)
def test_block_with_one_matrix_per_row_matches_apply_gate(kind):
    rng = np.random.default_rng(ROTATIONS.index(kind))
    for target in range(BLOCK_QUBITS):
        matrices = rotation_matrices(kind, rng.uniform(-7.0, 7.0, size=6))
        before = random_block(6, BLOCK_QUBITS, rng)
        after = before.copy()
        apply_gates(after, BLOCK_QUBITS, [(kind, (target,), matrices)])
        for column in range(6):
            alone = before[:, column:column + 1].copy()
            apply_gates(alone, BLOCK_QUBITS, [(kind, (target,), matrices[column:column + 1])])
            np.testing.assert_array_equal(after[:, column], alone[:, 0])


def test_block_with_per_row_circuits_matches_apply_circuit():
    """A gate list with one matrix per column gives each column what the oracle
    gives that column's own gate list."""
    rng = np.random.default_rng(83)
    layout = random_gates(BLOCK_QUBITS, 30, rng)
    angles = rng.uniform(-7.0, 7.0, size=(len(layout), 4))
    gates = [
        (kind, targets, None if kind == "cnot" else rotation_matrices(kind, row_angles))
        for (kind, targets, _), row_angles in zip(layout, angles)
    ]
    block = _zero_block(4, BLOCK_QUBITS)
    apply_gates(block, BLOCK_QUBITS, gates)
    for column in range(4):
        expected = basis_state(BLOCK_QUBITS, 0)[None]
        run_gates_oracle(expected, [
            (kind, targets, row_angles[column])
            for (kind, targets, _), row_angles in zip(layout, angles)
        ])
        np.testing.assert_array_equal(block[:, column], expected[0])


def test_block_size_mismatch():
    with pytest.raises(ValueError):
        apply_gates(np.zeros((2, 8), dtype=complex), 2, [rotation("rx", 0, 1.0)])
    with pytest.raises(ValueError):
        apply_gates(np.zeros(4, dtype=complex), 2, [])
    # one state per row, the pre-column layout, and a transposed view
    with pytest.raises(ValueError, match="C-ordered"):
        apply_gates(np.zeros((3, 4), dtype=complex), 2, [])
    with pytest.raises(ValueError, match="C-ordered"):
        apply_gates(np.zeros((3, 4), dtype=complex).T, 2, [])


# validation


def test_qubit_count_limits():
    with pytest.raises(ValueError):
        _zero_block(1, 0)
    with pytest.raises(ValueError):
        _zero_block(1, MAX_QUBITS + 1)
    with pytest.raises(ValueError, match="1 to 20 qubits"):
        encode_states(FeatureMapSpec(MAX_QUBITS + 1, 1), np.zeros((1, 1)), np.zeros(MAX_QUBITS + 1))


def test_gate_target_out_of_range():
    with pytest.raises(ValueError, match="targets qubit 1"):
        apply_gates(_zero_block(1, 1), 1, [rotation("rx", 0, 1.0), rotation("rx", 1, 1.0)])


def test_circuit_rejects_bad_targets():
    with pytest.raises(ValueError, match="targets qubit 1 on a 1-qubit register"):
        apply_gates(_zero_block(1, 1), 1, [("cnot", (0, 1), None)])


def test_gate_validation():
    block = _zero_block(1, 2)
    with pytest.raises(ValueError, match="distinct"):
        apply_gates(block, 2, [("cnot", (1, 1), None)])
    with pytest.raises(ValueError, match="takes 2 target"):
        apply_gates(block, 2, [("cnot", (0,), None)])
    with pytest.raises(ValueError, match="takes 1 target"):
        apply_gates(block, 2, [("rx", (0, 1), rotation_matrices("rx", [1.0]))])
    with pytest.raises(ValueError, match="not a one-angle rotation"):
        rotation_matrices("h", [1.0])


@pytest.mark.parametrize("gate,message", [
    (("cnot", (0, 0), None), "distinct"),
    (("cnot", (0, 3), None), "targets qubit 3"),
    (("h", (0,), None), "unknown gate kind 'h'"),
    (("rx", (-1,), rotation_matrices("rx", [1.0])), "targets qubit -1"),
], ids=["equal-targets", "target-past-the-register", "unknown-kind", "negative-target"])
def test_bad_gates_are_rejected_before_any_amplitude_changes(gate, message):
    block = _zero_block(2, 2)
    gates = [rotation("ry", 1, 0.4), gate]
    with pytest.raises(ValueError, match=message):
        apply_gates(block, 2, gates)
    np.testing.assert_array_equal(block, _zero_block(2, 2))
