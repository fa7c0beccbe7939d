"""Tour of the statevector simulator: gates, encoded states, overlaps, sampling."""

import math

import numpy as np

from qkflow.featuremap import FeatureMapSpec, encode_states
from qkflow.statevector import apply_gates, rotation_matrices

# A Bell pair: RY(pi/2) on qubit 0, then CNOT 0 -> 1, on one |00> state.
# A block holds one state per column, so this one is a (4, 1) array.
state = np.zeros((4, 1), dtype=np.complex128)
state[0, 0] = 1.0
apply_gates(state, 2, [
    ("ry", (0,), rotation_matrices("ry", [math.pi / 2])),
    ("cnot", (0, 1), None),
])
print("Bell amplitudes:", np.round(state[:, 0], 6))
probs = np.abs(state[:, 0]) ** 2
print("P(all zeros) =", probs[0])

# Measurement statistics over 2000 shots (qubit 0 is the rightmost bit).
counts = np.random.default_rng(11).multinomial(2000, probs / probs.sum())
print("counts:", {format(i, "02b"): int(c) for i, c in enumerate(counts) if c})

# Overlap of two encoded points: one qubit, one RX data rotation, lambda = 0.
spec = FeatureMapSpec(1, 1, data_axis="rx", trainable_axis="ry", entanglement="none")
a, b = encode_states(spec, np.array([[0.7], [1.9]]), np.zeros(1)).T
overlap = np.vdot(b, a)
print("overlap:", complex(np.round(overlap, 6)))
print("|overlap|^2 =", abs(overlap) ** 2, "expected:", np.cos((0.7 - 1.9) / 2) ** 2)
