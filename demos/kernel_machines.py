"""Classical kernels feeding the full set of kernel machines."""

import numpy as np

from qkflow.classical_kernels import ClassicalKernel, classical_cross, classical_gram
from qkflow.datasets import gen_synthetic
from qkflow.kernel_methods import (
    kernel_kmeans,
    kpca_fit,
    krr_fit,
    krr_predict,
    svc_fit,
    svc_predict,
    svr_fit,
    svr_predict,
)

kernel = ClassicalKernel.gaussian_metric(gamma=0.8)

# Classification on two blobs.
blobs = gen_synthetic("blobs", 30, seed=4)
K = classical_gram(kernel, blobs.features)
svc = svc_fit(K, blobs.labels, C=1.0)
train_acc = np.mean(svc_predict(svc, K.values) == blobs.labels)
print(f"svc: {len(svc.support_indices)} support vectors, train accuracy {train_acc:.3f}")

# Regression on a smooth 1-D target.
rng = np.random.default_rng(8)
X = np.sort(rng.uniform(-3, 3, size=(25, 1)), axis=0)
y = np.sin(X[:, 0])
Kr = classical_gram(kernel, X)
krr = krr_fit(Kr, y, reg=1e-8)
print("krr max train error:", np.max(np.abs(krr_predict(krr, Kr.values) - y)))

svr = svr_fit(Kr, y, C=2.0, epsilon=0.1)
inside = np.abs(svr_predict(svr, Kr.values) - y) <= 0.1 + 1e-6
print(f"svr: {np.count_nonzero(np.abs(svr.coef) > 1e-9)} active points, "
      f"{inside.sum()}/{y.size} targets inside the tube")

# Unsupervised: concentric circles separate after kernel PCA, and kernel
# k-means recovers the blobs.
circles = gen_synthetic("circles", 40, seed=2)
Kc = classical_gram(ClassicalKernel.gaussian_metric(gamma=2.0), circles.features)
pca = kpca_fit(Kc, n_components=2)
print("kpca leading eigenvalues:", np.round(pca.eigenvalues, 4))

assign, _ = kernel_kmeans(classical_gram(kernel, blobs.features), 2, seed=1)
agreement = np.mean((assign == assign[0]) == (blobs.labels == blobs.labels[0]))
print("k-means / blob agreement:", max(agreement, 1 - agreement))
