"""Statevector engine tests.

Expected amplitudes are closed-form values of the gate definitions, written
out in the assertions (e.g. RX(pi)|0> = [0, -i] because RX(theta) =
cos(theta/2) I - i sin(theta/2) X).
"""

import math

import numpy as np
import pytest

from qkflow.featuremap import FeatureMapSpec, encode_states
from qkflow.statevector import (
    MAX_QUBITS,
    Circuit,
    Gate,
    StateVector,
    adjoint,
    _single_qubit_matrix,
    apply_circuit,
    apply_gate,
    apply_gates,
    cnot,
    cz,
    h,
    inner_product,
    new_zero_state,
    p,
    probability_all_zeros,
    rx,
    ry,
    rz,
    sample_measurements,
    u3,
    x,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def random_state(n_qubits, rng):
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    amps /= np.linalg.norm(amps)
    return StateVector(n_qubits, amps)


def random_circuit(n_qubits, n_gates, rng):
    gates = []
    for _ in range(n_gates):
        kind = rng.choice(["h", "x", "p", "rx", "ry", "rz", "u3", "cnot", "cz"])
        if kind in ("cnot", "cz") and n_qubits >= 2:
            a, b = rng.choice(n_qubits, size=2, replace=False)
            gates.append(cnot(int(a), int(b)) if kind == "cnot" else cz(int(a), int(b)))
        else:
            q = int(rng.integers(n_qubits))
            angles = rng.uniform(-np.pi, np.pi, size=3)
            gates.append(
                {
                    "h": h(q),
                    "x": x(q),
                    "p": p(q, angles[0]),
                    "rx": rx(q, angles[0]),
                    "ry": ry(q, angles[0]),
                    "rz": rz(q, angles[0]),
                    "u3": u3(q, *angles),
                    "cnot": rx(q, angles[0]),
                    "cz": rx(q, angles[0]),
                }[kind]
            )
    return Circuit(n_qubits, tuple(gates))


# single-gate actions on |0> and |1>


def test_zero_state():
    state = new_zero_state(2)
    np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=1e-15)


def test_hadamard_on_zero():
    state = apply_gate(new_zero_state(1), h(0))
    np.testing.assert_allclose(state.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-15)


def test_x_flips():
    state = apply_gate(new_zero_state(1), x(0))
    np.testing.assert_allclose(state.amplitudes, [0, 1], atol=1e-15)


def test_rx_pi_on_zero():
    """RX(pi)|0> = -i|1>."""
    state = apply_gate(new_zero_state(1), rx(0, math.pi))
    np.testing.assert_allclose(state.amplitudes, [0, -1j], atol=1e-12)


def test_ry_half_pi_on_zero():
    state = apply_gate(new_zero_state(1), ry(0, math.pi / 2))
    np.testing.assert_allclose(state.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-12)


def test_rz_is_phase_on_zero():
    theta = 0.7391
    state = apply_gate(new_zero_state(1), rz(0, theta))
    np.testing.assert_allclose(
        state.amplitudes, [np.exp(-0.5j * theta), 0], atol=1e-12
    )


def test_p_phases_one_component():
    theta = 1.234
    state = apply_circuit(new_zero_state(1), Circuit(1, (x(0), p(0, theta))))
    np.testing.assert_allclose(state.amplitudes, [0, np.exp(1j * theta)], atol=1e-12)


def test_u3_reduces_to_ry():
    rng = np.random.default_rng(11)
    theta = 2.1
    start = random_state(1, rng)
    via_u3 = apply_gate(start, u3(0, theta, 0.0, 0.0))
    via_ry = apply_gate(start, ry(0, theta))
    np.testing.assert_allclose(via_u3.amplitudes, via_ry.amplitudes, atol=1e-12)


def test_cnot_on_basis_states():
    """Qubit 0 is the least significant bit: CNOT(1 -> 0) maps |10> to |11>."""
    state = new_zero_state(2)
    state = apply_gate(state, x(1))  # |10>, index 2
    state = apply_gate(state, cnot(1, 0))
    np.testing.assert_allclose(state.amplitudes, [0, 0, 0, 1], atol=1e-15)
    # control = 0 leaves the target alone
    state = apply_gate(new_zero_state(2), cnot(1, 0))
    np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=1e-15)


def test_cnot_control_zero_direction():
    state = apply_gate(new_zero_state(2), x(0))  # |01>, index 1
    state = apply_gate(state, cnot(0, 1))
    np.testing.assert_allclose(state.amplitudes, [0, 0, 0, 1], atol=1e-15)


def test_cz_phase():
    state = apply_circuit(new_zero_state(2), Circuit(2, (x(0), x(1), cz(0, 1))))
    np.testing.assert_allclose(state.amplitudes, [0, 0, 0, -1], atol=1e-15)
    # symmetric in its arguments
    other = apply_circuit(new_zero_state(2), Circuit(2, (x(0), x(1), cz(1, 0))))
    np.testing.assert_allclose(state.amplitudes, other.amplitudes, atol=1e-15)


def test_bell_state():
    state = apply_circuit(new_zero_state(2), Circuit(2, (h(0), cnot(0, 1))))
    np.testing.assert_allclose(state.amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-12)


# algebraic properties


def test_rotation_composition():
    """RX(a) then RX(b) equals RX(a+b)."""
    rng = np.random.default_rng(3)
    for _ in range(10):
        a, b = rng.uniform(-np.pi, np.pi, size=2)
        start = random_state(2, rng)
        two_step = apply_gate(apply_gate(start, rx(1, a)), rx(1, b))
        one_step = apply_gate(start, rx(1, a + b))
        np.testing.assert_allclose(two_step.amplitudes, one_step.amplitudes, atol=1e-12)


def test_norm_preserved_through_long_circuits():
    rng = np.random.default_rng(17)
    for n_qubits in (1, 2, 3):
        circuit = random_circuit(n_qubits, 30, rng)
        state = apply_circuit(new_zero_state(n_qubits), circuit)
        norm = np.sum(np.abs(state.amplitudes) ** 2)
        assert abs(norm - 1.0) <= 1e-12


def test_adjoint_round_trip():
    rng = np.random.default_rng(23)
    for trial in range(10):
        n_qubits = int(rng.integers(1, 4))
        circuit = random_circuit(n_qubits, 12, rng)
        state = apply_circuit(new_zero_state(n_qubits), circuit)
        state = apply_circuit(state, adjoint(circuit))
        assert probability_all_zeros(state) >= 1.0 - 1e-12


def test_adjoint_twice_is_identity_structurally():
    rng = np.random.default_rng(5)
    circuit = random_circuit(3, 15, rng)
    assert adjoint(adjoint(circuit)) == circuit


def test_adjoint_of_u3():
    rng = np.random.default_rng(29)
    start = random_state(1, rng)
    gate = u3(0, 0.4, -1.1, 2.2)
    back = apply_circuit(
        apply_gate(start, gate), adjoint(Circuit(1, (gate,)))
    )
    np.testing.assert_allclose(back.amplitudes, start.amplitudes, atol=1e-12)


def test_gate_application_is_pure():
    state = new_zero_state(1)
    apply_gate(state, x(0))
    np.testing.assert_allclose(state.amplitudes, [1, 0], atol=1e-15)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0  # stored amplitudes are read-only


# inner products and probabilities


def test_inner_product_with_hadamard():
    zero = new_zero_state(1)
    plus = apply_gate(zero, h(0))
    value = inner_product(zero, plus)
    assert abs(value - INV_SQRT2) <= 1e-12


def test_inner_product_conjugate_symmetry():
    rng = np.random.default_rng(41)
    a, b = random_state(2, rng), random_state(2, rng)
    assert abs(inner_product(a, b) - np.conj(inner_product(b, a))) <= 1e-12


def test_probability_all_zeros():
    state = apply_gate(new_zero_state(1), rx(0, math.pi / 2))
    assert abs(probability_all_zeros(state) - 0.5) <= 1e-12
    assert probability_all_zeros(new_zero_state(3)) == 1.0


# sampling


def test_sampling_zero_state_is_all_zeros():
    counts = sample_measurements(new_zero_state(2), 1000, seed=0)
    assert counts == {"00": 1000}


def test_sampling_matches_distribution():
    state = apply_gate(new_zero_state(1), h(0))
    counts = sample_measurements(state, 10_000, seed=1234)
    assert 0.45 <= counts["0"] / 10_000 <= 0.55


def test_sampling_is_deterministic_per_seed():
    rng = np.random.default_rng(53)
    state = random_state(3, rng)
    first = sample_measurements(state, 500, seed=99)
    second = sample_measurements(state, 500, seed=99)
    assert first == second
    assert sum(first.values()) == 500


def test_sampling_accepts_negative_seed():
    state = apply_gate(new_zero_state(1), h(0))
    first = sample_measurements(state, 100, seed=-7)
    second = sample_measurements(state, 100, seed=-7)
    assert first == second


# amplitude blocks: every row gets exactly the arithmetic of apply_gate

BLOCK_QUBITS = 4
SINGLE_KINDS = ("h", "x", "p", "rx", "ry", "rz", "u3")


def random_block(rows, n_qubits, rng):
    amps = rng.normal(size=(rows, 1 << n_qubits)) + 1j * rng.normal(size=(rows, 1 << n_qubits))
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


def random_single_gate(kind, target, rng):
    count = {"h": 0, "x": 0, "u3": 3}.get(kind, 1)
    return Gate(kind, (target,), tuple(rng.uniform(-7.0, 7.0, size=count)))


def assert_rows_match_apply_gate(before, after, gates):
    for row, gate in enumerate(gates):
        expected = apply_gate(StateVector(BLOCK_QUBITS, before[row]), gate).amplitudes
        np.testing.assert_array_equal(after[row], expected)


def block_gates():
    for kind in SINGLE_KINDS:
        for target in range(BLOCK_QUBITS):
            yield kind, (target,)
    for kind in ("cnot", "cz"):
        for a in range(BLOCK_QUBITS):
            for b in range(BLOCK_QUBITS):
                if a != b:  # control above and below the target
                    yield kind, (a, b)


@pytest.mark.parametrize("kind,targets", list(block_gates()))
def test_block_with_shared_gate_matches_apply_gate(kind, targets):
    rng = np.random.default_rng(len(kind) * 10 + targets[0])
    if kind in ("cnot", "cz"):
        gate, matrices = Gate(kind, targets), None
    else:
        gate = random_single_gate(kind, targets[0], rng)
        matrices = _single_qubit_matrix(gate)[None]
    before = random_block(5, BLOCK_QUBITS, rng)
    after = before.copy()
    apply_gates(after, BLOCK_QUBITS, [(kind, targets, matrices)])
    assert_rows_match_apply_gate(before, after, [gate] * 5)


@pytest.mark.parametrize("kind", SINGLE_KINDS)
def test_block_with_one_matrix_per_row_matches_apply_gate(kind):
    rng = np.random.default_rng(SINGLE_KINDS.index(kind))
    for target in range(BLOCK_QUBITS):
        gates = [random_single_gate(kind, target, rng) for _ in range(6)]
        before = random_block(6, BLOCK_QUBITS, rng)
        after = before.copy()
        matrices = np.stack([_single_qubit_matrix(g) for g in gates])
        apply_gates(after, BLOCK_QUBITS, [(kind, (target,), matrices)])
        assert_rows_match_apply_gate(before, after, gates)


def test_block_with_per_row_circuits_matches_apply_circuit():
    rng = np.random.default_rng(83)
    layout = random_circuit(BLOCK_QUBITS, 30, rng)
    circuits = [
        Circuit(BLOCK_QUBITS, tuple(
            random_single_gate(g.kind, g.targets[0], rng) if len(g.targets) == 1 else g
            for g in layout.gates
        ))
        for _ in range(4)
    ]
    block = np.zeros((4, 1 << BLOCK_QUBITS), dtype=complex)
    block[:, 0] = 1.0
    apply_gates(block, BLOCK_QUBITS, [
        (column[0].kind, column[0].targets,
         None if column[0].kind in ("cnot", "cz")
         else np.stack([_single_qubit_matrix(g) for g in column]))
        for column in zip(*(c.gates for c in circuits))
    ])
    for row, circuit in enumerate(circuits):
        expected = apply_circuit(new_zero_state(BLOCK_QUBITS), circuit).amplitudes
        np.testing.assert_array_equal(block[row], expected)


def test_block_size_mismatch():
    with pytest.raises(ValueError):
        apply_gates(np.zeros((2, 8), dtype=complex), 2, [("x", (0,), np.eye(2)[None])])
    with pytest.raises(ValueError):
        apply_gates(np.zeros(4, dtype=complex), 2, [])


# validation


def test_qubit_count_limits():
    with pytest.raises(ValueError):
        new_zero_state(0)
    with pytest.raises(ValueError):
        new_zero_state(MAX_QUBITS + 1)
    with pytest.raises(ValueError, match="1 to 20 qubits"):
        encode_states(FeatureMapSpec(MAX_QUBITS + 1, 1), np.zeros((1, 1)), np.zeros(MAX_QUBITS + 1))


def test_state_must_be_normalized():
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))


def test_gate_target_out_of_range():
    with pytest.raises(IndexError):
        apply_gate(new_zero_state(1), x(1))


def test_circuit_rejects_bad_targets():
    with pytest.raises(ValueError):
        Circuit(1, (cnot(0, 1),))


def test_circuit_size_mismatch():
    with pytest.raises(ValueError):
        apply_circuit(new_zero_state(2), Circuit(3, (x(0),)))


def test_gate_validation():
    with pytest.raises(ValueError):
        cnot(1, 1)
    with pytest.raises(ValueError):
        Gate("rx", (0,), ())
    with pytest.raises(ValueError):
        rx(0, float("nan"))


def test_inner_product_size_mismatch():
    with pytest.raises(ValueError):
        inner_product(new_zero_state(1), new_zero_state(2))


def test_sample_shots_positive():
    with pytest.raises(ValueError):
        sample_measurements(new_zero_state(1), 0, seed=0)
