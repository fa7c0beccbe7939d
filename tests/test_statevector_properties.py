"""Property tests: the gate kernel gives the same bits as its reference.

rotation_matrices must give, byte for byte, the matrices of the scalar
math.cos/math.sin formulas in oracles.single_qubit_matrix_oracle, for any
angle including signed zeros, subnormals and |theta| up to 1e6.

Random gate lists of every gate kind on 1-10 qubits, applied by apply_gates
to blocks of 1-70 rows, once with one (1, 2, 2) matrix shared by every row
and once with a (rows, 2, 2) stack of one matrix per row, must match
oracles.apply_single_oracle and oracles.apply_two_qubit_oracle exactly. The
per-pair reference tests in test_statevector.py compare the kernel with
itself, so they cannot see a change in rounding; these can.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import apply_single_oracle, apply_two_qubit_oracle, single_qubit_matrix_oracle
from qkflow.statevector import Gate, _single_qubit_matrix, apply_gates, rotation_matrices

PARAM_COUNTS = {"h": 0, "x": 0, "p": 1, "rx": 1, "ry": 1, "rz": 1, "u3": 3, "cnot": 0, "cz": 0}


@st.composite
def layouts(draw):
    """(n_qubits, rows, [(kind, targets)], seed) for one random circuit layout."""
    n = draw(st.integers(1, 10))
    kinds = sorted(PARAM_COUNTS) if n > 1 else [k for k in PARAM_COUNTS if k not in ("cnot", "cz")]
    positions = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=12)):
        if kind in ("cnot", "cz"):
            pair = draw(st.permutations(range(n)))[:2]
            positions.append((kind, tuple(pair)))
        else:
            positions.append((kind, (draw(st.integers(0, n - 1)),)))
    return n, draw(st.integers(1, 70)), positions, draw(st.integers(0, 2**32 - 1))


def bind(positions, rng):
    return tuple(
        Gate(kind, targets, tuple(rng.uniform(-2 * np.pi, 2 * np.pi, PARAM_COUNTS[kind])))
        for kind, targets in positions
    )


def as_triples(gates):
    """Position by position; gates[p] holds position p's gate for every row."""
    return [
        (column[0].kind, column[0].targets,
         None if column[0].kind in ("cnot", "cz")
         else np.stack([_single_qubit_matrix(g) for g in column]))
        for column in gates
    ]


def oracle_apply(amps, gates):
    for kind, targets, matrices in as_triples(gates):
        if matrices is None:
            apply_two_qubit_oracle(amps, kind, *targets)
        else:
            apply_single_oracle(amps, targets[0], matrices)


@settings(max_examples=80, deadline=None)
@given(layouts())
def test_shared_circuit_matches_oracle(layout):
    n, rows, positions, seed = layout
    rng = np.random.default_rng(seed)
    gates = bind(positions, rng)
    block = rng.normal(size=(rows, 1 << n)) + 1j * rng.normal(size=(rows, 1 << n))
    expected = block.copy()
    for gate in gates:
        oracle_apply(expected, [[gate]])
    triples = as_triples([[gate] for gate in gates])
    assert all(m is None or m.shape == (1, 2, 2) for _, _, m in triples)
    apply_gates(block, n, triples)
    np.testing.assert_array_equal(block, expected)


@settings(max_examples=80, deadline=None)
@given(layouts())
def test_per_row_circuits_match_oracle(layout):
    n, rows, positions, seed = layout
    rng = np.random.default_rng(seed)
    columns = list(zip(*(bind(positions, rng) for _ in range(rows))))
    block = rng.normal(size=(rows, 1 << n)) + 1j * rng.normal(size=(rows, 1 << n))
    expected = block.copy()
    oracle_apply(expected, columns)
    apply_gates(block, n, as_triples(columns))
    np.testing.assert_array_equal(block, expected)


ANGLES = st.one_of(
    st.floats(-1e6, 1e6),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e6, 1e6]),
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["p", "rx", "ry", "rz"]), st.lists(ANGLES, min_size=1, max_size=16))
def test_rotation_matrices_are_bytewise_the_scalar_formulas(kind, angles):
    expected = np.stack([single_qubit_matrix_oracle(Gate(kind, (0,), (a,))) for a in angles])
    got = rotation_matrices(kind, angles)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
