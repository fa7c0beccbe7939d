"""Property tests: the gate kernel gives the same bits as its reference.

rotation_matrices must give, byte for byte, the matrices of the scalar
math.cos/math.sin formulas in oracles.rotation_matrix_oracle, for any
angle including signed zeros, subnormals and |theta| up to 1e6.

Random gate lists of every gate kind on 1-10 qubits, applied by apply_gates
to blocks of one state per column, 1-70 columns but never 2**n, once with one
(1, 2, 2) matrix shared by every column and once with a (columns, 2, 2) stack
of one matrix per column, must match oracles.apply_single_oracle and
oracles.apply_cnot_oracle exactly. The oracles evolve one state per row, so
they run on the transposed block.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import apply_cnot_oracle, apply_single_oracle, rotation_matrix_oracle
from qkflow.statevector import apply_gates, rotation_matrices

KINDS = ("p", "rx", "ry", "rz", "cnot")


@st.composite
def layouts(draw, max_qubits=10, max_columns=70):
    """(n_qubits, columns, [(kind, targets)], seed) for one random circuit
    layout, with a column count that is not 2**n_qubits."""
    n = draw(st.integers(1, max_qubits))
    kinds = KINDS if n > 1 else KINDS[:-1]
    positions = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=12)):
        if kind == "cnot":
            pair = draw(st.permutations(range(n)))[:2]
            positions.append((kind, tuple(pair)))
        else:
            positions.append((kind, (draw(st.integers(0, n - 1)),)))
    columns = draw(st.integers(1, max_columns).filter(lambda c: c != 1 << n))
    return n, columns, positions, draw(st.integers(0, 2**32 - 1))


def bind(positions, columns, rng):
    """apply_gates triples for `positions`, with `columns` random matrices per rotation."""
    return [
        (kind, targets, None if kind == "cnot" else np.stack([
            rotation_matrix_oracle(kind, a) for a in rng.uniform(-2 * np.pi, 2 * np.pi, columns)
        ]))
        for kind, targets in positions
    ]


def random_block(n, columns, rng):
    return rng.normal(size=(1 << n, columns)) + 1j * rng.normal(size=(1 << n, columns))


def oracle_apply(block, triples):
    """The oracles' gates on the states of a column block, as a new column block."""
    amps = np.ascontiguousarray(block.T)
    for kind, targets, matrices in triples:
        if matrices is None:
            apply_cnot_oracle(amps, *targets)
        else:
            apply_single_oracle(amps, targets[0], matrices)
    return amps.T


@settings(max_examples=80)
@given(layouts())
def test_shared_circuit_matches_oracle(layout):
    n, columns, positions, seed = layout
    rng = np.random.default_rng(seed)
    triples = bind(positions, 1, rng)
    block = random_block(n, columns, rng)
    expected = oracle_apply(block, triples)
    apply_gates(block, n, triples)
    np.testing.assert_array_equal(block, expected)


@settings(max_examples=80)
@given(layouts())
def test_per_row_circuits_match_oracle(layout):
    """One matrix per column; the name keeps the one the test has always had."""
    n, columns, positions, seed = layout
    rng = np.random.default_rng(seed)
    triples = bind(positions, columns, rng)
    block = random_block(n, columns, rng)
    expected = oracle_apply(block, triples)
    apply_gates(block, n, triples)
    np.testing.assert_array_equal(block, expected)


ANGLES = st.one_of(
    st.floats(-1e6, 1e6),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e6, 1e6]),
)


@settings(max_examples=200)
@given(st.sampled_from(["p", "rx", "ry", "rz"]), st.lists(ANGLES, min_size=1, max_size=16))
def test_rotation_matrices_are_bytewise_the_scalar_formulas(kind, angles):
    expected = np.stack([rotation_matrix_oracle(kind, a) for a in angles])
    got = rotation_matrices(kind, angles)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
