"""Every name a qkflow module exports in `__all__` resolves and is listed
once, and the package and simulator export exactly the pinned names."""

import importlib
import pkgutil

import pytest

import qkflow

MODULES = ["qkflow"] + [
    f"qkflow.{info.name}" for info in pkgutil.iter_modules(qkflow.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), sorted(
        n for n in exported if exported.count(n) > 1
    )
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, missing


# The public surface, pinned: a change to it shows up here as a one-line diff.

PUBLIC = {
    "qkflow": {
        "ClassicalKernel", "Dataset", "FeatureMapSpec", "GramMatrix", "KernelEngineConfig",
        "MlkrrConfig", "ModelFile", "SpsaConfig", "__version__", "classical_cross",
        "classical_gram", "cross_gram", "export_embedding", "gen_synthetic", "gram_matrix",
        "kernel_kmeans", "kernel_value", "kpca_fit", "kpca_transform", "krr_fit",
        "krr_predict", "load_csv", "load_model", "mlkrr_fit", "normalize_unit_sphere",
        "param_count", "qka_align", "random_params", "save_dataset", "save_model",
        "svc_decision", "svc_fit", "svc_loss", "svc_predict", "svr_fit", "svr_predict",
    },
    "qkflow.statevector": {"MAX_QUBITS", "apply_gates", "rotation_matrices"},
}


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_public_names_are_pinned(name):
    assert set(importlib.import_module(name).__all__) == PUBLIC[name]
