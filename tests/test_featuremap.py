"""Feature-map construction tests: exact gate order, parameter wiring, errors,
and the encoder against a gate-by-gate reference simulation."""

import itertools

import numpy as np
import pytest

from oracles import encoding_oracle, run_gates_oracle, state_oracle
from qkflow.featuremap import (
    DATA_AXES,
    ENTANGLEMENTS,
    TRAINABLE_AXES,
    FeatureMapSpec,
    _encoding_angles,
    encode_states,
    encoding_gates,
    param_count,
    random_params,
)
from qkflow.statevector import apply_gates, rotation_matrices


def inverse_gates(spec, points, params):
    """U(x)^dag for every row x of `points`, as `apply_gates` triples: the
    gates of U(x) reversed, each rotation at its negated angles."""
    return [(kind, t, None if a is None else rotation_matrices(kind, -a))
            for kind, t, a in reversed(_encoding_angles(spec, points, params))]


def kinds_and_args(spec, point, params):
    """The gates of U(point) as (kind, targets, angles), one float per angle."""
    return [
        (kind, targets, () if angles is None else (float(angles[0]),))
        for kind, targets, angles in _encoding_angles(spec, np.reshape(point, (1, -1)), params)
    ]


def test_param_count():
    assert param_count(FeatureMapSpec(2, 3)) == 6
    assert param_count(FeatureMapSpec(1, 1)) == 1


def test_single_qubit_transcription():
    spec = FeatureMapSpec(1, 1, data_axis="rx", trainable_axis="rz", entanglement="none")
    assert kinds_and_args(spec, np.array([0.5]), np.array([0.0])) == [
        ("rz", (0,), (0.0,)),
        ("rx", (0,), (0.5,)),
    ]


def test_two_qubit_ring_transcription():
    """Per layer: all trainable rotations, all data rotations, then the entangler."""
    a, b, c, d = 0.1, 0.2, 0.3, 0.4
    spec = FeatureMapSpec(2, 1, data_axis="ry", trainable_axis="rz", entanglement="ring")
    assert kinds_and_args(spec, np.array([a, b]), np.array([c, d])) == [
        ("rz", (0,), (c,)),
        ("rz", (1,), (d,)),
        ("ry", (0,), (a,)),
        ("ry", (1,), (b,)),
        ("cnot", (0, 1), ()),
        ("cnot", (1, 0), ()),
    ]


def test_linear_chain_omits_wraparound():
    spec = FeatureMapSpec(3, 1, entanglement="linear_chain")
    gates = kinds_and_args(spec, np.ones(3), np.zeros(3))
    assert [g for g in gates if g[0] == "cnot"] == [("cnot", (0, 1), ()), ("cnot", (1, 2), ())]


def test_entanglement_skipped_on_single_qubit():
    spec = FeatureMapSpec(1, 2, entanglement="ring")
    assert all(g[0] != "cnot" for g in kinds_and_args(spec, np.ones(1), np.zeros(2)))


def test_round_robin_feature_reuse_with_layer_offset():
    """Rotation slot l*n+q reads feature (l*n+q) mod d."""
    spec = FeatureMapSpec(2, 2, data_axis="rx", trainable_axis="ry", entanglement="none")
    point = np.array([10.0, 20.0, 30.0])
    data_angles = [g[2][0] for g in kinds_and_args(spec, point, np.zeros(4)) if g[0] == "rx"]
    assert data_angles == [10.0, 20.0, 30.0, 10.0]


def test_data_scaling_multiplies_angles():
    spec = FeatureMapSpec(1, 1, data_axis="ry", trainable_axis="p", data_scaling=0.5)
    assert kinds_and_args(spec, np.array([2.0]), np.array([1.0])) == [
        ("p", (0,), (1.0,)),
        ("ry", (0,), (1.0,)),
    ]


def test_construction_is_deterministic():
    spec = FeatureMapSpec(3, 2, entanglement="ring")
    point = np.array([0.3, -0.4])
    lam = np.linspace(-1, 1, 6)
    assert kinds_and_args(spec, point, lam) == kinds_and_args(spec, point, lam)
    np.testing.assert_array_equal(encode_states(spec, point[None], lam),
                                  encode_states(spec, point[None], lam))


def test_gate_count():
    spec = FeatureMapSpec(3, 2, entanglement="ring")
    # per layer: 3 trainable + 3 data + 3 ring CNOTs
    assert len(encoding_gates(spec, np.ones((1, 2)), np.zeros(6))) == 2 * (3 + 3 + 3)


def test_random_params_range_and_determinism():
    spec = FeatureMapSpec(4, 3)
    first = random_params(spec, seed=42)
    second = random_params(spec, seed=42)
    assert first.shape == (12,)
    np.testing.assert_array_equal(first, second)
    assert np.all(first >= -np.pi) and np.all(first <= np.pi)
    assert not np.array_equal(first, random_params(spec, seed=43))


def test_param_length_mismatch():
    spec = FeatureMapSpec(2, 2)
    with pytest.raises(ValueError):
        encode_states(spec, np.ones((1, 2)), np.zeros(3))


def test_empty_data_point():
    with pytest.raises(ValueError):
        encode_states(FeatureMapSpec(1, 1), np.ones((1, 0)), np.zeros(1))


def test_non_finite_rejected():
    spec = FeatureMapSpec(1, 1)
    with pytest.raises(ValueError):
        encode_states(spec, np.array([[np.nan]]), np.zeros(1))
    with pytest.raises(ValueError):
        encode_states(spec, np.ones((1, 1)), np.array([np.inf]))


def test_spec_validation():
    with pytest.raises(ValueError):
        FeatureMapSpec(0, 1)
    with pytest.raises(ValueError):
        FeatureMapSpec(1, 0)
    with pytest.raises(ValueError):
        FeatureMapSpec(1, 1, data_axis="p")
    with pytest.raises(ValueError):
        FeatureMapSpec(1, 1, trainable_axis="u3")
    with pytest.raises(ValueError):
        FeatureMapSpec(1, 1, entanglement="full")


@pytest.mark.parametrize(
    "data_axis,trainable_axis,entanglement",
    list(itertools.product(DATA_AXES, TRAINABLE_AXES, ENTANGLEMENTS)),
)
def test_encoder_is_bitwise_the_circuit_path(data_axis, trainable_axis, entanglement):
    rng = np.random.default_rng(len(data_axis + trainable_axis + entanglement))
    spec = FeatureMapSpec(3, 2, data_axis, trainable_axis, entanglement, data_scaling=0.8)
    lam = rng.uniform(-np.pi, np.pi, param_count(spec))
    X = rng.uniform(-np.pi, np.pi, size=(6, 2))
    states = encode_states(spec, X, lam)
    assert states.shape == (2**spec.n_qubits, len(X)) and states.flags.c_contiguous
    for column, x in enumerate(X):
        np.testing.assert_array_equal(states[:, column], state_oracle(spec, lam, x)[0])

    def undone(column, x):
        amps = states[:, column][None].copy()
        run_gates_oracle(amps, encoding_oracle(spec, lam, x, inverse=True))
        return amps[0]

    # the inverse gates of point 2 on every column, one shared matrix per gate,
    # against the oracle's
    got = states.copy()
    apply_gates(got, spec.n_qubits, inverse_gates(spec, X[2:3], lam))
    for column in range(len(X)):
        np.testing.assert_array_equal(got[:, column], undone(column, X[2]))

    # and every point's inverse gates at once, one matrix per column
    got = states.copy()
    apply_gates(got, spec.n_qubits, inverse_gates(spec, X, lam))
    for column, x in enumerate(X):
        np.testing.assert_array_equal(got[:, column], undone(column, x))


def test_encoder_gate_list():
    spec = FeatureMapSpec(2, 1, data_axis="ry", trainable_axis="rz", entanglement="ring")
    gates = encoding_gates(spec, np.ones((5, 1)), np.zeros(2))
    assert [(kind, t) for kind, t, _ in gates] == [
        ("rz", (0,)), ("rz", (1,)), ("ry", (0,)), ("ry", (1,)), ("cnot", (0, 1)), ("cnot", (1, 0)),
    ]
    assert [None if m is None else m.shape for _, _, m in gates] == [
        (1, 2, 2), (1, 2, 2), (5, 2, 2), (5, 2, 2), None, None,
    ]
    np.testing.assert_array_equal(gates[2][2], rotation_matrices("ry", np.ones(5)))


def test_encoder_rejects_bad_input():
    spec = FeatureMapSpec(1, 1, data_scaling=1e308)
    with pytest.raises(ValueError, match="finite"):
        encode_states(spec, np.array([[10.0]]), np.zeros(1))
    with pytest.raises(ValueError):
        encode_states(FeatureMapSpec(1, 1), np.ones(3), np.zeros(1))
    with pytest.raises(ValueError):
        encode_states(FeatureMapSpec(1, 1), np.ones((2, 1)), np.zeros(2))
