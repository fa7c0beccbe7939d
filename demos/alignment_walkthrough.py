"""Kernel alignment end to end: a dataset with a hidden optimal encoding.

The labels follow sign(cos x), so a single-qubit map whose trainable
rotation collapses to the identity (lambda = 0 mod pi) is the sharpest
possible encoding. Alignment minimizes the SVM dual objective with SPSA
and should steer lambda toward that point.
"""

import dataclasses

import numpy as np

from qkflow.datasets import gen_synthetic
from qkflow.featuremap import FeatureMapSpec, random_params
from qkflow.kernel_methods import svc_fit, svc_predict
from qkflow.qkernel import KernelEngineConfig, cross_gram, gram_matrix
from qkflow.training import SpsaConfig, qka_align

train = gen_synthetic("hidden_rotation", 40, seed=7)
held_out = gen_synthetic("hidden_rotation", 40, seed=8)

spec = FeatureMapSpec(n_qubits=1, n_layers=1)
lam0 = random_params(spec, seed=21)
start = KernelEngineConfig(spec=spec, params=lam0, mode="exact", seed=7)
C = 10.0

state = qka_align(start, train.features, train.labels, C, SpsaConfig(max_iter=60, seed=22))
print(f"lambda: {lam0[0]:+.4f} -> {state.lam_best[0]:+.4f} "
      f"(mod pi: {state.lam_best[0] % np.pi:.4f})")
print(f"dual loss: {state.loss_trace[0][1]:.4f} -> {state.loss_best:.4f}")


def held_out_accuracy(lam):
    cfg = dataclasses.replace(start, params=np.asarray(lam))
    model = svc_fit(gram_matrix(cfg, train.features), train.labels, C=C)
    K_new = cross_gram(cfg, held_out.features, train.features)
    return np.mean(svc_predict(model, K_new) == held_out.labels)


print(f"held-out accuracy before: {held_out_accuracy(lam0):.3f}")
print(f"held-out accuracy after:  {held_out_accuracy(state.lam_best):.3f}")
print(f"support vectors per evaluation (last 5): {state.sv_counts[-5:]}")
