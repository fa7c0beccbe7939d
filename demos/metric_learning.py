"""Metric learning: the Gaussian kernel learns to ignore a noise feature."""

import numpy as np

from qkflow.training import MlkrrConfig, mlkrr_fit

rng = np.random.default_rng(17)
m = 30
signal = rng.uniform(-2, 2, size=m)
noise = 3.0 * rng.normal(size=m)
X = np.column_stack([signal, noise])
y = np.sin(1.5 * signal)

cfg = MlkrrConfig(gamma=1.0, reg=1e-2, outer_iters=60)
A, model, trace = mlkrr_fit(X, y, cfg)

print(f"loss: {trace[0]:.6f} -> {trace[-1]:.6f} over {len(trace) - 1} rounds")
print("learned transform A:")
print(np.round(A, 4))

# Column norms of A show how strongly each input feature enters the metric.
weights = np.linalg.norm(A, axis=0)
print(f"feature weights: signal {weights[0]:.4f}, noise {weights[1]:.4f} "
      f"(ratio {weights[1] / weights[0]:.3f})")
