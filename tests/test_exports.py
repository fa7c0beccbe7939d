"""Every name a qkflow module exports in `__all__` resolves and is listed
once, every module exports exactly the pinned names, and only the encoder
and the kernels import the simulator."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


# The public surface of every module, one name per line, so that a change to it
# shows up here as one line per name.

PUBLIC = {
    "qkflow": {
        "ClassicalKernel",
        "Dataset",
        "FeatureMapSpec",
        "GramMatrix",
        "KernelEngineConfig",
        "MlkrrConfig",
        "ModelFile",
        "SpsaConfig",
        "__version__",
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
    },
    "qkflow._checks": set(),
    "qkflow.classical_kernels": {
        "CLASSICAL_KINDS",
        "CLASSICAL_PARAMS",
        "ClassicalKernel",
        "classical_cross",
        "classical_gram",
    },
    "qkflow.cli": {
        "main",
        "run_command",
    },
    "qkflow.datasets": {
        "Dataset",
        "SYNTHETIC_KINDS",
        "gen_synthetic",
        "load_csv",
        "normalize_unit_sphere",
        "save_dataset",
        "write_csv",
    },
    "qkflow.featuremap": {
        "DATA_AXES",
        "ENTANGLEMENTS",
        "FeatureMapSpec",
        "TRAINABLE_AXES",
        "encode_states",
        "encoding_gates",
        "param_count",
        "random_params",
    },
    "qkflow.kernel_methods": {
        "KpcaModel",
        "SUPPORT_THRESHOLD",
        "TrainedKRR",
        "TrainedSVC",
        "TrainedSVR",
        "kernel_kmeans",
        "kpca_fit",
        "krr_fit",
        "krr_predict",
        "svc_decision",
        "svc_fit",
        "svc_predict",
        "svr_fit",
        "svr_predict",
    },
    "qkflow.model_io": {
        "FORMAT_VERSION",
        "MODEL_KINDS",
        "ModelFile",
        "ModelKind",
        "embedding_from_model_file",
        "embedding_to_model_file",
        "evaluate_cross",
        "evaluate_gram",
        "kernel_from_json",
        "kernel_to_json",
        "load_model",
        "model_from_payload",
        "model_to_payload",
        "save_model",
    },
    "qkflow.qkernel": {
        "CIRCUIT_KINDS",
        "GramMatrix",
        "KernelEngineConfig",
        "MODES",
        "cross_gram",
        "gram_matrix",
        "kernel_value",
    },
    "qkflow.statevector": {
        "MAX_QUBITS",
        "apply_gates",
        "rotation_matrices",
    },
    "qkflow.training": {
        "AlignmentState",
        "EmbeddingArtifact",
        "MlkrrConfig",
        "SpsaConfig",
        "export_embedding",
        "mlkrr_fit",
        "mlkrr_loss",
        "mlkrr_loss_gradient",
        "qka_align",
        "spsa_gradient",
    },
}


@pytest.mark.parametrize("name", MODULES)
def test_public_names_are_pinned(name):
    assert set(importlib.import_module(name).__all__) == PUBLIC[name]


def qkflow_imports(name):
    """The qkflow modules that module `name` imports, relatively or not, read
    from its source."""
    found = set()
    for node in ast.walk(ast.parse(Path(importlib.import_module(name).__file__).read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["qkflow" if node.level else None, node.module]))
            found.update([base] + [f"{base}.{alias.name}" for alias in node.names])
    return found & set(MODULES)


def test_only_the_encoder_and_the_kernels_reach_the_simulator():
    """The layering: `statevector` only simulates and imports no qkflow
    module, and only `featuremap` and `qkernel` import it."""
    assert qkflow_imports("qkflow.statevector") == set()
    assert {name for name in MODULES if "qkflow.statevector" in qkflow_imports(name)} == {
        "qkflow.featuremap", "qkflow.qkernel"}
