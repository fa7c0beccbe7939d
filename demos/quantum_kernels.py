"""Quantum kernel values three ways: exact inversion, exact swap, sampled."""

import dataclasses

import numpy as np

from qkflow.featuremap import FeatureMapSpec, param_count
from qkflow.qkernel import KernelEngineConfig, gram_matrix, kernel_value

spec = FeatureMapSpec(n_qubits=2, n_layers=2, data_axis="rx",
                      trainable_axis="ry", entanglement="linear_chain")
rng = np.random.default_rng(5)
lam = rng.uniform(-np.pi, np.pi, size=param_count(spec))
cfg = KernelEngineConfig(spec=spec, params=lam, mode="exact", seed=0)

x = np.array([0.4, -1.1])
x2 = np.array([-0.3, 0.8])

exact = kernel_value(cfg, x, x2)
swapped = kernel_value(dataclasses.replace(cfg, circuit_kind="swap"), x, x2)
print(f"inversion test: {exact:.12f}")
print(f"swap test:      {swapped:.12f}")

for shots in (100, 1_000, 10_000, 100_000):
    noisy_cfg = dataclasses.replace(cfg, mode="shots", shots=shots, seed=3)
    estimate = kernel_value(noisy_cfg, x, x2)
    print(f"{shots:>7} shots -> {estimate:.5f}  (error {abs(estimate - exact):.5f})")

# Gram matrix over a small dataset; the upper triangle is evaluated and mirrored.
X = rng.uniform(-np.pi, np.pi, size=(6, 2))
K = gram_matrix(cfg, X)
print("Gram diagonal:", np.diag(K.values))
print("min eigenvalue:", np.linalg.eigvalsh(K.values).min())
