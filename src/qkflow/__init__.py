"""qkflow: variational quantum kernels with trainable feature maps.

Exact and shot-sampled quantum kernel evaluation on a dense statevector
simulator, kernel-target alignment of feature-map parameters, classical
trainable-metric kernels, and the kernel machines that consume them.
"""

from __future__ import annotations

from .classical_kernels import ClassicalKernel, classical_cross, classical_gram
from .datasets import Dataset, gen_synthetic, load_csv, normalize_unit_sphere, save_dataset
from .featuremap import FeatureMapSpec, param_count, random_params
from .kernel_methods import (
    kernel_kmeans,
    kpca_fit,
    krr_fit,
    krr_predict,
    svc_decision,
    svc_fit,
    svc_predict,
    svr_fit,
    svr_predict,
)
from .model_io import ModelFile, load_model, save_model
from .qkernel import GramMatrix, KernelEngineConfig, cross_gram, gram_matrix, kernel_value
from .training import MlkrrConfig, SpsaConfig, export_embedding, mlkrr_fit, qka_align

__version__ = "0.1.0"

__all__ = [
    "ClassicalKernel",
    "Dataset",
    "FeatureMapSpec",
    "GramMatrix",
    "KernelEngineConfig",
    "MlkrrConfig",
    "ModelFile",
    "SpsaConfig",
    "classical_cross",
    "classical_gram",
    "cross_gram",
    "export_embedding",
    "gen_synthetic",
    "gram_matrix",
    "kernel_kmeans",
    "kernel_value",
    "kpca_fit",
    "krr_fit",
    "krr_predict",
    "load_csv",
    "load_model",
    "mlkrr_fit",
    "normalize_unit_sphere",
    "param_count",
    "qka_align",
    "random_params",
    "save_dataset",
    "save_model",
    "svc_decision",
    "svc_fit",
    "svc_predict",
    "svr_fit",
    "svr_predict",
    "__version__",
]
