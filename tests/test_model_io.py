import json
from dataclasses import fields

import numpy as np
import pytest

from qkflow.classical_kernels import ClassicalKernel, classical_gram, eval_classical
from qkflow.featuremap import FeatureMapSpec
from qkflow.kernel_methods import kpca_fit, kpca_transform, krr_fit, svc_fit, svr_fit
from qkflow.kernel_methods import krr_predict, svc_decision, svr_predict
from qkflow.model_io import (
    FORMAT_VERSION,
    MODEL_KINDS,
    ModelFile,
    embedding_from_model_file,
    embedding_to_model_file,
    evaluate_cross,
    evaluate_gram,
    kernel_from_json,
    kernel_to_json,
    load_model,
    model_from_payload,
    model_to_payload,
    save_model,
)
from qkflow.qkernel import KernelEngineConfig, kernel_value
from qkflow.training import EmbeddingArtifact

SPEC = FeatureMapSpec(n_qubits=2, n_layers=2, data_axis="ry", trainable_axis="rz",
                      entanglement="ring", data_scaling=0.8)


def small_svc_model_file():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(6, 2))
    y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    kern = ClassicalKernel.gaussian_metric(gamma=0.5)
    model = svc_fit(classical_gram(kern, X), y, C=1.0)
    return ModelFile(
        format_version=FORMAT_VERSION,
        kind="svc",
        kernel=kernel_to_json(kern),
        payload=model_to_payload(model, X, normalize=False),
        pretraining=None,
        seed=3,
    ), model, X


def test_save_load_save_byte_identical(tmp_path):
    mf, _, _ = small_svc_model_file()
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_model(mf, first)
    save_model(load_model(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_load_rejects_truncated_file(tmp_path):
    mf, _, _ = small_svc_model_file()
    path = tmp_path / "m.json"
    save_model(mf, path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(ValueError, match="JSON"):
        load_model(path)


def test_load_rejects_wrong_version(tmp_path):
    mf, _, _ = small_svc_model_file()
    path = tmp_path / "m.json"
    save_model(mf, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="format_version"):
        load_model(path)


def test_load_names_missing_field(tmp_path):
    mf, _, _ = small_svc_model_file()
    path = tmp_path / "m.json"
    save_model(mf, path)
    doc = json.loads(path.read_text())
    del doc["payload"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="payload"):
        load_model(path)


def test_model_file_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        ModelFile(format_version=1, kind="forest", kernel={}, payload={},
                  pretraining=None, seed=0)


@pytest.mark.parametrize("kern", [
    ClassicalKernel.linear(c=0.5),
    ClassicalKernel.polynomial(c=1.0, degree=3),
    ClassicalKernel.exponential(sigma=2.0),
    ClassicalKernel.gaussian_metric(gamma=0.7),
    ClassicalKernel.gaussian_metric(gamma=0.7, transform=np.array([[1.0, 0.2], [0.0, 0.5]])),
])
def test_classical_kernel_descriptor_round_trip(kern):
    back = kernel_from_json(kernel_to_json(kern))
    a = np.array([0.3, -0.4])
    b = np.array([0.1, 0.2])
    assert eval_classical(back, a, b) == eval_classical(kern, a, b)


def test_quantum_kernel_descriptor_round_trip():
    cfg = KernelEngineConfig(spec=SPEC, params=np.array([0.1, -0.3, 0.7, 2.1]),
                             mode="exact", seed=5, circuit_kind="swap")
    back = kernel_from_json(kernel_to_json(cfg))
    assert back.spec == SPEC
    assert np.array_equal(back.params, cfg.params)
    assert back.circuit_kind == "swap"
    a = np.array([0.4, 1.2])
    b = np.array([-0.9, 0.3])
    assert kernel_value(back, a, b) == kernel_value(cfg, a, b)


def test_unbound_template_not_serializable():
    desc = kernel_to_json(KernelEngineConfig(spec=SPEC, params=np.zeros(4)))
    desc["params"] = None
    with pytest.raises(ValueError, match="'params'"):
        kernel_from_json(desc)


def test_unknown_descriptor_type_rejected():
    with pytest.raises(ValueError, match="type"):
        kernel_from_json({"type": "wavelet"})


def test_embedding_model_file_round_trip(tmp_path):
    spec = FeatureMapSpec(n_qubits=1, n_layers=2, data_axis="rx", trainable_axis="ry",
                          entanglement="none")
    artifact = EmbeddingArtifact(spec=spec, lam=np.array([0.3, -1.1]), loss_best=2.5,
                                 task="classification", seed=7, iterations=40)
    mf = embedding_to_model_file(artifact, seed=7)
    assert mf.kind == "embedding"
    assert mf.pretraining == {"task": "classification", "loss_best": 2.5,
                              "seed": 7, "iterations": 40}
    path = tmp_path / "emb.json"
    save_model(mf, path)
    back = embedding_from_model_file(load_model(path))
    assert back.spec == spec
    assert np.array_equal(back.lam, artifact.lam)
    assert back.loss_best == 2.5
    assert back.task == "classification"
    # the exported parameters reproduce identical kernel values
    x = np.array([0.8])
    z = np.array([-0.4])
    before = kernel_value(KernelEngineConfig(spec=spec, params=artifact.lam), x, z)
    after = kernel_value(KernelEngineConfig(spec=back.spec, params=back.lam), x, z)
    assert before == after


def test_embedding_loader_rejects_other_kinds():
    mf, _, _ = small_svc_model_file()
    with pytest.raises(ValueError, match="embedding"):
        embedding_from_model_file(mf)


def test_svc_payload_round_trip():
    mf, model, X = small_svc_model_file()
    back, train, normalize = model_from_payload("svc", mf.payload)
    assert np.array_equal(train, X)
    assert normalize is False
    kern = kernel_from_json(mf.kernel)
    K_new = evaluate_cross(kern, X, train)
    assert np.array_equal(svc_decision(back, K_new), svc_decision(model, K_new))
    assert back.dual_objective == model.dual_objective


def test_krr_payload_round_trip():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(5, 2))
    y = rng.normal(size=5)
    kern = ClassicalKernel.gaussian_metric(gamma=1.2)
    model = krr_fit(classical_gram(kern, X), y, reg=1e-3)
    payload = model_to_payload(model, X, normalize=True)
    back, train, normalize = model_from_payload("krr", payload)
    assert normalize is True
    assert np.array_equal(back.alphas, model.alphas)
    assert back.reg == model.reg
    K = evaluate_cross(kern, X, train)
    assert np.array_equal(krr_predict(back, K), krr_predict(model, K))


def test_svr_payload_round_trip():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(6, 2))
    y = rng.normal(size=6)
    kern = ClassicalKernel.gaussian_metric(gamma=0.9)
    model = svr_fit(classical_gram(kern, X), y, C=2.0, epsilon=0.1)
    back, train, _ = model_from_payload("svr", model_to_payload(model, X, normalize=False))
    K = evaluate_cross(kern, X, train)
    assert np.array_equal(svr_predict(back, K), svr_predict(model, K))


def test_kpca_payload_round_trip():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(7, 3))
    kern = ClassicalKernel.gaussian_metric(gamma=0.6)
    model = kpca_fit(classical_gram(kern, X), n_components=3)
    back, train, _ = model_from_payload("kpca", model_to_payload(model, X, normalize=False))
    K = evaluate_cross(kern, X, train)
    assert np.allclose(kpca_transform(back, K), kpca_transform(model, K), atol=0)
    assert np.array_equal(back.train_projections, model.train_projections)


def test_evaluate_gram_dispatch():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(4, 2))
    classical = evaluate_gram(ClassicalKernel.linear(), X)
    assert classical.values.shape == (4, 4)
    cfg = KernelEngineConfig(
        spec=FeatureMapSpec(n_qubits=1, n_layers=1, entanglement="none"),
        params=np.array([0.0]),
    )
    quantum = evaluate_gram(cfg, X[:, :1])
    assert quantum.values.shape == (4, 4)
    assert quantum.kernel_id.startswith("quantum:")


# the file schema is the objects' own fields: pin it kind by kind

TOP_LEVEL_KEYS = {"format_version", "kind", "kernel", "payload", "pretraining", "seed"}
PAYLOAD_KEYS = {
    "svc": {"alphas", "labels", "bias", "support_indices", "C", "dual_objective", "kernel_id"},
    "krr": {"alphas", "reg", "kernel_id"},
    "svr": {"coef", "bias", "epsilon", "C", "kernel_id"},
    "kpca": {"eigenvalues", "eigenvectors", "col_means", "total_mean", "n_components",
             "train_projections", "kernel_id"},
}
QUANTUM_KEYS = {"type", "n_qubits", "n_layers", "data_axis", "trainable_axis", "entanglement",
                "data_scaling", "params", "mode", "shots", "seed", "circuit_kind"}
DESCRIPTORS = [
    (ClassicalKernel.linear(c=0.5), {"type", "kind", "c"}),
    (ClassicalKernel.polynomial(c=1.0, degree=3), {"type", "kind", "c", "degree"}),
    (ClassicalKernel.exponential(sigma=2.0), {"type", "kind", "sigma"}),
    (ClassicalKernel.gaussian_metric(gamma=0.7), {"type", "kind", "gamma", "transform"}),
    (ClassicalKernel.gaussian_metric(gamma=0.7, transform=np.array([[1.0, 0.2], [0.0, 0.5]])),
     {"type", "kind", "gamma", "transform"}),
    (KernelEngineConfig(spec=SPEC, params=np.array([0.1, -0.3, 0.7, 2.1]), seed=5,
                        circuit_kind="swap"), QUANTUM_KEYS),
    (KernelEngineConfig(spec=SPEC, params=np.array([0.1, -0.3, 0.7, 2.1]), mode="shots",
                        shots=300, seed=8), QUANTUM_KEYS),
]


def fitted_models():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(8, 2))
    labels = np.array([1.0, -1.0] * 4)
    targets = rng.normal(size=8)
    K = classical_gram(ClassicalKernel.gaussian_metric(gamma=0.5), X)
    return X, {
        "svc": svc_fit(K, labels, C=1.0),
        "krr": krr_fit(K, targets, reg=1e-3),
        "svr": svr_fit(K, targets, C=2.0, epsilon=0.1),
        "kpca": kpca_fit(K, n_components=2),
    }


def assert_same_fields(back, original):
    """Equal values; arrays float64 (support_indices integer), scalars builtin."""
    for f in fields(original):
        got, want = getattr(back, f.name), getattr(original, f.name)
        if isinstance(want, np.ndarray):
            expected = np.dtype(int) if f.name == "support_indices" else np.dtype(np.float64)
            assert got.dtype == expected, f.name
            assert np.array_equal(got, want), f.name
        elif isinstance(want, FeatureMapSpec):
            assert got == want
        else:
            assert type(got) is type(want) and got == want, f.name


def save_load_save(model_file, tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_model(model_file, first)
    loaded = load_model(first)
    save_model(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert set(json.loads(first.read_text())) == TOP_LEVEL_KEYS
    return loaded


@pytest.mark.parametrize("kind", sorted(PAYLOAD_KEYS))
def test_model_file_schema_and_round_trip(kind, tmp_path):
    X, models = fitted_models()
    model = models[kind]
    mf = ModelFile(format_version=FORMAT_VERSION, kind=kind,
                   kernel=kernel_to_json(ClassicalKernel.gaussian_metric(gamma=0.5)),
                   payload=model_to_payload(model, X, normalize=True), pretraining=None, seed=3)
    assert set(mf.payload) == PAYLOAD_KEYS[kind] | {"train_features", "normalize"}
    assert isinstance(model, MODEL_KINDS[kind].model)
    loaded = save_load_save(mf, tmp_path)
    back, train, normalize = model_from_payload(kind, loaded.payload)
    assert_same_fields(back, model)
    assert train.dtype == np.float64 and np.array_equal(train, X)
    assert normalize is True


def test_embedding_file_schema_and_round_trip(tmp_path):
    artifact = EmbeddingArtifact(spec=SPEC, lam=np.array([0.3, -1.1, 0.2, 0.9]),
                                 loss_best=2.5, task="classification", seed=7, iterations=40)
    mf = embedding_to_model_file(artifact, seed=7)
    assert set(mf.kernel) == QUANTUM_KEYS
    assert mf.payload == {}
    assert set(mf.pretraining) == {"task", "loss_best", "seed", "iterations"}
    assert_same_fields(embedding_from_model_file(save_load_save(mf, tmp_path)), artifact)


@pytest.mark.parametrize("kernel, keys", DESCRIPTORS)
def test_descriptor_schema_and_round_trip(kernel, keys):
    desc = kernel_to_json(kernel)
    assert set(desc) == keys
    text = json.dumps(desc, sort_keys=True)
    back = kernel_from_json(json.loads(text))
    assert json.dumps(kernel_to_json(back), sort_keys=True) == text
    assert_same_fields(back, kernel)


@pytest.mark.parametrize("kind, key, value", [
    ("svc", "alphas", None),
    ("svc", "alphas", [1.0, None]),
    ("svc", "support_indices", "0"),
    ("svc", "bias", [0.5]),
    ("svc", "bias", "0.5"),
    ("svc", "kernel_id", 3),
    ("krr", "reg", None),
    ("svr", "normalize", 1),
    ("kpca", "n_components", {}),
    ("kpca", "n_components", 2.5),
    ("kpca", "train_features", 2.0),
])
def test_payload_field_of_wrong_type_names_the_field(kind, key, value):
    X, models = fitted_models()
    payload = model_to_payload(models[kind], X, normalize=False)
    payload[key] = value
    with pytest.raises(ValueError, match=f"field '{key}'"):
        model_from_payload(kind, payload)


def test_payload_of_a_kind_without_a_model_rejected():
    with pytest.raises(ValueError, match="embedding"):
        model_from_payload("embedding", {})
