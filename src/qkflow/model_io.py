"""Model and embedding persistence.

Everything is one JSON document: top-level fields format_version, kind,
kernel, payload, pretraining (null unless the model came from a pretrained
embedding), and seed. Serialization sorts keys and indents consistently so
save -> load -> save is byte-identical.

The schema is the objects' own dataclass fields, written by _to_fields and
read back, converted to each field's annotated type, by _build. A payload
holds the trained model's fields plus train_features and normalize. A
quantum kernel descriptor holds the FeatureMapSpec fields plus the
KernelEngineConfig fields; a classical one holds the kind and the
hyperparameters that kind reads (CLASSICAL_PARAMS). An embedding's
pretraining block holds the EmbeddingArtifact fields its kernel does not.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable, NamedTuple, get_args, get_type_hints

import numpy as np

from .classical_kernels import CLASSICAL_PARAMS, ClassicalKernel, classical_cross, classical_gram
from .kernel_methods import (
    KpcaModel,
    TrainedKRR,
    TrainedSVC,
    TrainedSVR,
    krr_predict,
    svc_predict,
    svr_predict,
)
from .qkernel import GramMatrix, KernelEngineConfig, cross_gram, gram_matrix
from .training import EmbeddingArtifact

__all__ = [
    "FORMAT_VERSION",
    "MODEL_KINDS",
    "ModelKind",
    "ModelFile",
    "save_model",
    "load_model",
    "kernel_to_json",
    "kernel_from_json",
    "evaluate_gram",
    "evaluate_cross",
    "embedding_to_model_file",
    "embedding_from_model_file",
    "model_to_payload",
    "model_from_payload",
]

FORMAT_VERSION = 1


class ModelKind(NamedTuple):
    model: type | None  # the trained-model dataclass the payload holds
    predict: Callable | None  # predict(model, K_new), for kinds `predict` accepts
    weights: str | None  # the model field predict multiplies K_new's columns by
    task: str | None  # the pretraining task an embedding should match


MODEL_KINDS = {
    "svc": ModelKind(TrainedSVC, svc_predict, "alphas", "classification"),
    "krr": ModelKind(TrainedKRR, krr_predict, "alphas", "regression"),
    "svr": ModelKind(TrainedSVR, svr_predict, "coef", "regression"),
    "kpca": ModelKind(KpcaModel, None, None, None),
    "embedding": ModelKind(None, None, None, None),
}


@dataclass(frozen=True, eq=False)
class ModelFile:
    format_version: int
    kind: str
    kernel: dict
    payload: dict
    pretraining: dict | None
    seed: int

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"kind must be one of {tuple(MODEL_KINDS)}, got {self.kind!r}")


@dataclass(frozen=True, eq=False)
class _TrainingSet:
    """What a payload holds besides the trained model's own fields."""

    train_features: np.ndarray
    normalize: bool


# the field codec: the JSON values each annotated field type accepts

_JSON_TYPES = {
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    str: (str, "a string"),
    bool: (bool, "a boolean"),
    dict: (dict, "an object"),
    np.ndarray: (list, "a list of finite numbers"),
}


def _require(mapping, field: str):
    if not isinstance(mapping, dict) or field not in mapping:
        raise ValueError(f"model file missing field {field!r}")
    return mapping[field]


def _to_fields(obj, names=None, skip=()) -> dict:
    """JSON values of a dataclass's fields (all, or `names`), nested ones inlined."""
    out = {}
    for f in fields(obj):
        if f.name in skip or (names is not None and f.name not in names):
            continue
        value = getattr(obj, f.name)
        if is_dataclass(value):
            out.update(_to_fields(value))
        elif isinstance(value, (np.ndarray, np.generic)):
            out[f.name] = value.tolist()
        else:
            out[f.name] = value
    return out


def _decode(f, hint, value):
    """One JSON value as its field's type; a ValueError names the field."""
    if type(None) in get_args(hint):
        if value is None:
            return None
        hint = get_args(hint)[0]
    json_type, description = _JSON_TYPES[hint]
    if isinstance(value, json_type):
        try:
            if hint is not np.ndarray:
                decoded = hint(value)
            else:
                decoded = np.asarray(value, dtype=f.metadata.get("dtype", float))
            if hint not in (float, np.ndarray) or np.all(np.isfinite(decoded)):
                return decoded
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(
        f"model file field {f.name!r} must be {description}, got {reprlib.repr(value)}"
    )


def _build(cls, mapping, names=None, **given):
    """cls(**given), its other fields (all, or `names`) decoded from mapping."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        if f.name in given or (names is not None and f.name not in names):
            continue
        hint = hints[f.name]
        if is_dataclass(hint):
            given[f.name] = _build(hint, mapping)
        else:
            given[f.name] = _decode(f, hint, _require(mapping, f.name))
    return cls(**given)


def save_model(model_file: ModelFile, path) -> None:
    doc = _to_fields(model_file)
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def load_model(path) -> ModelFile:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: model file must be a JSON object")
    version = _require(doc, "format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported format_version {version!r}, this build reads {FORMAT_VERSION}"
        )
    try:
        return _build(ModelFile, doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# kernel descriptors


def kernel_to_json(kernel) -> dict:
    """Serialize a classical kernel or a quantum kernel config."""
    if isinstance(kernel, ClassicalKernel):
        names = ("kind",) + CLASSICAL_PARAMS[kernel.kind]
        return {"type": "classical", **_to_fields(kernel, names)}
    if isinstance(kernel, KernelEngineConfig):
        return {"type": "quantum", **_to_fields(kernel)}
    raise TypeError(f"cannot serialize kernel of type {type(kernel).__name__}")


def kernel_from_json(desc: dict):
    """Rebuild the kernel object a descriptor dict describes."""
    kind = _require(desc, "type")
    if kind == "classical":
        name = _require(desc, "kind")
        names = CLASSICAL_PARAMS.get(name) if isinstance(name, str) else None
        if names is None:
            raise ValueError(f"unknown classical kernel kind {name!r}")
        return _build(ClassicalKernel, desc, names, kind=name)
    if kind == "quantum":
        return _build(KernelEngineConfig, desc)
    raise ValueError(f"unknown kernel type {kind!r}")


def evaluate_gram(kernel, data) -> GramMatrix:
    if isinstance(kernel, ClassicalKernel):
        return classical_gram(kernel, data)
    return gram_matrix(kernel, data)


def evaluate_cross(kernel, data_new, data_train) -> np.ndarray:
    if isinstance(kernel, ClassicalKernel):
        return classical_cross(kernel, data_new, data_train)
    return cross_gram(kernel, data_new, data_train)


# embedding files and model payloads


def embedding_to_model_file(artifact: EmbeddingArtifact, seed: int) -> ModelFile:
    bound = KernelEngineConfig(spec=artifact.spec, params=artifact.lam)
    return ModelFile(
        format_version=FORMAT_VERSION,
        kind="embedding",
        kernel=kernel_to_json(bound),
        payload={},
        pretraining=_to_fields(artifact, skip=("spec", "lam")),
        seed=int(seed),
    )


def embedding_from_model_file(model_file: ModelFile) -> EmbeddingArtifact:
    if model_file.kind != "embedding":
        raise ValueError(f"expected an embedding file, got kind {model_file.kind!r}")
    kernel = kernel_from_json(model_file.kernel)
    if not isinstance(kernel, KernelEngineConfig):
        raise ValueError("embedding file must describe a quantum kernel")
    return _build(EmbeddingArtifact, model_file.pretraining or {},
                  spec=kernel.spec, lam=kernel.params)


def model_to_payload(model, train_features: np.ndarray, normalize: bool) -> dict:
    """A trained model's fields plus the training points its kernel needs."""
    data = _TrainingSet(np.asarray(train_features, dtype=float), bool(normalize))
    return {**_to_fields(model), **_to_fields(data)}


def model_from_payload(kind: str, payload: dict) -> tuple[object, np.ndarray, bool]:
    """(model, train_features, normalize) from the payload of a `kind` file."""
    model_type = MODEL_KINDS[kind].model if kind in MODEL_KINDS else None
    if model_type is None:
        raise ValueError(f"a {kind!r} model file holds no trained model")
    model = _build(model_type, payload)
    data = _build(_TrainingSet, payload)
    return model, data.train_features, data.normalize
