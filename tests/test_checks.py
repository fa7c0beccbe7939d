"""One rule per kind of input: every public entry point that takes an input of
a kind refuses a bad one with that kind's one message, naming the input.

The table crosses each rule's bad values with every entry point that takes
such an input, so a site that kept its own copy of a rule shows up as a
case whose message differs."""

import numpy as np
import pytest

from qkflow import (
    ClassicalKernel,
    Dataset,
    FeatureMapSpec,
    GramMatrix,
    KernelEngineConfig,
    MlkrrConfig,
    ModelFile,
    SpsaConfig,
    classical_cross,
    classical_gram,
    cross_gram,
    gen_synthetic,
    gram_matrix,
    kernel_kmeans,
    kernel_value,
    kpca_fit,
    krr_fit,
    krr_predict,
    mlkrr_fit,
    qka_align,
    random_params,
    svc_decision,
    svc_fit,
    svr_fit,
    svr_predict,
)
from qkflow._checks import rng_entropy
from qkflow.featuremap import encode_states, encoding_gates
from qkflow.model_io import embedding_to_model_file, kernel_from_json, kernel_to_json
from qkflow.training import EmbeddingArtifact, mlkrr_loss, mlkrr_loss_gradient, spsa_gradient

SPEC = FeatureMapSpec(n_qubits=1, n_layers=1)
CFG = KernelEngineConfig(spec=SPEC, params=np.zeros(1))
POINTS = np.array([[0.1], [0.4], [0.7]])
LABELS = np.array([1.0, -1.0, 1.0])
GRAM = np.eye(3)
LINEAR = ClassicalKernel.linear()
NO_STEPS = SpsaConfig(max_iter=0)
NO_ROUNDS = MlkrrConfig(outer_iters=0)


def mlkrr_with(function, X=POINTS, y=LABELS, alpha=LABELS, gamma=1.0, reg=0.1):
    """mlkrr_loss or mlkrr_loss_gradient on the identity metric, one input swapped."""
    return function(X, y, alpha, np.eye(1), gamma, reg)


def table(bad_values, entry_points):
    """One case per bad value and entry point: the call, the bad value and the
    whole message the call must raise."""
    return [
        pytest.param(call, bad, f"{name} must be {rule}, got {got}", id=f"{entry}-{bad_id}")
        for bad_id, (bad, got) in bad_values.items()
        for entry, (name, rule, call) in entry_points.items()
    ]


def points_rule(name):
    return name, "a non-empty 2-D matrix of finite numbers"


POINT_CASES = table(
    {
        "1-D": (np.array([0.1, 0.2, 0.3]), "shape (3,)"),
        "empty": (np.zeros((0, 1)), "shape (0, 1)"),
        "3-D": (np.zeros((2, 1, 1)), "shape (2, 1, 1)"),
        "nan": (np.array([[0.1], [np.nan], [0.3]]), "a non-finite entry"),
    },
    {
        "Dataset": (*points_rule("features"), lambda X: Dataset(X)),
        "gram_matrix": (*points_rule("data"), lambda X: gram_matrix(CFG, X)),
        "cross_gram-new": (*points_rule("data_new"), lambda X: cross_gram(CFG, X, POINTS)),
        "cross_gram-train": (*points_rule("data_train"), lambda X: cross_gram(CFG, POINTS, X)),
        "classical_gram": (*points_rule("data"), lambda X: classical_gram(LINEAR, X)),
        "classical_cross-new": (*points_rule("data_new"),
                                lambda X: classical_cross(LINEAR, X, POINTS)),
        "classical_cross-train": (*points_rule("data_train"),
                                  lambda X: classical_cross(LINEAR, POINTS, X)),
        "encode_states": (*points_rule("points"), lambda X: encode_states(SPEC, X, np.zeros(1))),
        "mlkrr_fit": (*points_rule("X"), lambda X: mlkrr_fit(X, LABELS, NO_ROUNDS)),
        "mlkrr_loss": (*points_rule("X"), lambda X: mlkrr_with(mlkrr_loss, X=X)),
        "mlkrr_loss_gradient": (*points_rule("X"),
                                lambda X: mlkrr_with(mlkrr_loss_gradient, X=X)),
        "qka_align": (*points_rule("X"), lambda X: qka_align(CFG, X, LABELS, 1.0, NO_STEPS)),
    },
)


def point_rule(name):
    return name, "a non-empty flat vector of finite numbers"


POINT_ARGUMENT_CASES = table(
    {
        "2-D": (np.array([[0.1], [0.2]]), "shape (2, 1)"),
        "0-D": (np.float64(0.1), "shape ()"),
        "empty": (np.zeros(0), "shape (0,)"),
        "nan": (np.array([np.nan]), "a non-finite entry"),
    },
    {
        "kernel_value-a": (*point_rule("point_a"), lambda x: kernel_value(CFG, x, [0.3])),
        "kernel_value-b": (*point_rule("point_b"), lambda x: kernel_value(CFG, [0.3], x)),
    },
)


def params_rule(name):
    return name, "a finite flat parameter vector of length 1"


def embedding(lam, seed=0, iterations=0):
    return EmbeddingArtifact(spec=SPEC, lam=lam, loss_best=0.0, task="classification",
                             seed=seed, iterations=iterations)


PARAMS_ENTRY_POINTS = {
    "KernelEngineConfig": (*params_rule("params"),
                           lambda lam: KernelEngineConfig(spec=SPEC, params=lam)),
    "encode_states": (*params_rule("params"), lambda lam: encode_states(SPEC, POINTS, lam)),
    "encoding_gates": (*params_rule("params"), lambda lam: encoding_gates(SPEC, POINTS, lam)),
    "EmbeddingArtifact": (*params_rule("lam"), embedding),
}
# a kernel descriptor holds JSON, whose codec refuses a bare number or NaN by
# itself; a nested list reaches the rule
PARAMS_CASES = table(
    {"nested": (np.array([[0.3]]), "shape (1, 1)")},
    {**PARAMS_ENTRY_POINTS,
     "kernel_from_json": (*params_rule("params"),
                          lambda lam: kernel_from_json({**kernel_to_json(CFG),
                                                        "params": lam.tolist()}))},
) + table(
    {"0-D": (np.float64(0.3), "shape ()"), "nan": (np.array([np.nan]), "a non-finite entry")},
    PARAMS_ENTRY_POINTS,
)


WHOLE_CASES = table(
    {"2.5": (2.5, "2.5")},
    {
        "FeatureMapSpec-n_qubits": ("n_qubits", "an integer >= 1",
                                    lambda n: FeatureMapSpec(n_qubits=n)),
        "FeatureMapSpec-n_layers": ("n_layers", "an integer >= 1",
                                    lambda n: FeatureMapSpec(n_layers=n)),
        "KernelEngineConfig-shots": ("shots", "an integer >= 1", lambda n: KernelEngineConfig(
            spec=SPEC, params=np.zeros(1), mode="shots", shots=n)),
        "KernelEngineConfig-exact-shots": ("shots", "an integer >= 1",
                                           lambda n: KernelEngineConfig(
                                               spec=SPEC, params=np.zeros(1), shots=n)),
        "KernelEngineConfig-seed": ("seed", "an integer", lambda n: KernelEngineConfig(
            spec=SPEC, params=np.zeros(1), seed=n)),
        "ClassicalKernel-degree": ("degree", "an integer >= 1",
                                   lambda n: ClassicalKernel.polynomial(degree=n)),
        "SpsaConfig-max_iter": ("max_iter", "an integer >= 0", lambda n: SpsaConfig(max_iter=n)),
        "SpsaConfig-seed": ("seed", "an integer", lambda n: SpsaConfig(seed=n)),
        "MlkrrConfig-outer_iters": ("outer_iters", "an integer >= 0",
                                    lambda n: MlkrrConfig(outer_iters=n)),
        "kpca_fit": ("n_components", "an integer >= 1", lambda n: kpca_fit(GRAM, n)),
        "kernel_kmeans-n_clusters": ("n_clusters", "an integer in [1, 3]",
                                     lambda n: kernel_kmeans(GRAM, n, 0)),
        "kernel_kmeans-seed": ("seed", "an integer", lambda n: kernel_kmeans(GRAM, 1, n)),
        "gen_synthetic-m": ("m", "an integer >= 2", lambda n: gen_synthetic("blobs", n, 0)),
        "gen_synthetic-seed": ("seed", "an integer", lambda n: gen_synthetic("blobs", 4, n)),
        "random_params": ("seed", "an integer", lambda n: random_params(SPEC, n)),
        "EmbeddingArtifact-seed": ("seed", "an integer", lambda n: embedding([0.0], seed=n)),
        "EmbeddingArtifact-iterations": ("iterations", "an integer >= 0",
                                         lambda n: embedding([0.0], iterations=n)),
        "ModelFile-seed": ("seed", "an integer", lambda n: ModelFile(1, "svc", {}, {}, None, n)),
        "embedding_to_model_file": ("seed", "an integer",
                                    lambda n: embedding_to_model_file(embedding([0.0]), n)),
    },
)


POSITIVE, NON_NEGATIVE, FINITE = "positive and finite", "finite and non-negative", "finite"
SCALAR_ENTRY_POINTS = {
    "ClassicalKernel-c": ("c", FINITE, lambda v: ClassicalKernel.polynomial(c=v)),
    "ClassicalKernel-sigma": ("sigma", POSITIVE, lambda v: ClassicalKernel.exponential(v)),
    "ClassicalKernel-gamma": ("gamma", POSITIVE, lambda v: ClassicalKernel.gaussian_metric(v)),
    "FeatureMapSpec-data_scaling": ("data_scaling", FINITE,
                                    lambda v: FeatureMapSpec(data_scaling=v)),
    "SpsaConfig-a0": ("a0", POSITIVE, lambda v: SpsaConfig(a0=v)),
    "spsa_gradient-c_k": ("c_k", POSITIVE,
                          lambda v: spsa_gradient(lambda lam: 0.0, [0.0], v, [1.0])),
    "MlkrrConfig-gamma": ("gamma", POSITIVE, lambda v: MlkrrConfig(gamma=v)),
    "MlkrrConfig-reg": ("reg", NON_NEGATIVE, lambda v: MlkrrConfig(reg=v)),
    "mlkrr_loss-gamma": ("gamma", POSITIVE, lambda v: mlkrr_with(mlkrr_loss, gamma=v)),
    "mlkrr_loss-reg": ("reg", NON_NEGATIVE, lambda v: mlkrr_with(mlkrr_loss, reg=v)),
    "mlkrr_loss_gradient-gamma": ("gamma", POSITIVE,
                                  lambda v: mlkrr_with(mlkrr_loss_gradient, gamma=v)),
    "mlkrr_loss_gradient-reg": ("reg", NON_NEGATIVE,
                                lambda v: mlkrr_with(mlkrr_loss_gradient, reg=v)),
    "gen_synthetic-theta_star": ("theta_star", FINITE, lambda v: gen_synthetic(
        "hidden_rotation", 4, 0, {"theta_star": v})),
    "gen_synthetic-spread": ("spread", FINITE, lambda v: gen_synthetic(
        "blobs", 4, 0, {"spread": v})),
    "gen_synthetic-inner_radius": ("inner_radius", FINITE, lambda v: gen_synthetic(
        "circles", 4, 0, {"inner_radius": v})),
    "gen_synthetic-outer_radius": ("outer_radius", FINITE, lambda v: gen_synthetic(
        "circles", 4, 0, {"outer_radius": v})),
    "gen_synthetic-noise": ("noise", FINITE, lambda v: gen_synthetic(
        "circles", 4, 0, {"noise": v})),
    "svc_fit-C": ("C", POSITIVE, lambda v: svc_fit(GRAM, LABELS, v)),
    "krr_fit-reg": ("reg", NON_NEGATIVE, lambda v: krr_fit(GRAM, LABELS, v)),
    "svr_fit-C": ("C", POSITIVE, lambda v: svr_fit(GRAM, LABELS, v, 0.1)),
    "svr_fit-epsilon": ("epsilon", NON_NEGATIVE, lambda v: svr_fit(GRAM, LABELS, 1.0, v)),
}
SCALAR_CASES = table(
    {"inf": (np.inf, "inf"), "nan": (np.nan, "nan"), "None": (None, "None"),
     "list": ([1.0], "[1.0]"), "array": (np.array([1.0, 2.0]), "[1. 2.]"),
     "complex": (1 + 2j, "(1+2j)")},
    SCALAR_ENTRY_POINTS,
)
# a negative value, for every scalar that has a lower bound
SIGN_CASES = table(
    {"negative": (-5.0, "-5.0")},
    {entry: rule for entry, rule in SCALAR_ENTRY_POINTS.items() if rule[1] != FINITE},
)


def choice(name, choices):
    return name, f"one of {choices}"


ONE_OF_CASES = table(
    {"bogus": ("bogus", "'bogus'")},
    {
        "FeatureMapSpec-data_axis": (*choice("data_axis", ("rx", "ry", "rz")),
                                     lambda v: FeatureMapSpec(data_axis=v)),
        "FeatureMapSpec-trainable_axis": (*choice("trainable_axis", ("rx", "ry", "rz", "p")),
                                          lambda v: FeatureMapSpec(trainable_axis=v)),
        "FeatureMapSpec-entanglement": (*choice("entanglement", ("none", "linear_chain", "ring")),
                                        lambda v: FeatureMapSpec(entanglement=v)),
        "KernelEngineConfig-mode": (*choice("mode", ("exact", "shots")), lambda v:
                                    KernelEngineConfig(spec=SPEC, params=np.zeros(1), mode=v)),
        "KernelEngineConfig-circuit_kind": (
            *choice("circuit_kind", ("inversion", "swap")),
            lambda v: KernelEngineConfig(spec=SPEC, params=np.zeros(1), circuit_kind=v)),
        "ClassicalKernel-kind": (
            *choice("kind", ("linear", "polynomial", "exponential", "gaussian_metric")),
            lambda v: ClassicalKernel(kind=v)),
        "ModelFile-kind": (*choice("kind", ("svc", "krr", "svr", "embedding")),
                           lambda v: ModelFile(1, v, {}, {}, None, 0)),
        "gen_synthetic-kind": (*choice("kind", ("blobs", "circles", "hidden_rotation")),
                               lambda v: gen_synthetic(v, 4, 0)),
        "kernel_from_json-type": (*choice("type", ("classical", "quantum")),
                                  lambda v: kernel_from_json({"type": v})),
        "kernel_from_json-kind": (
            *choice("kind", ("linear", "polynomial", "exponential", "gaussian_metric")),
            lambda v: kernel_from_json({"type": "classical", "kind": v})),
    },
)


def targets_rule(name):
    return name, "one finite number per point (3 points)"


TARGET_CASES = table(
    {"short": (np.array([1.0, -1.0]), "shape (2,)"),
     "one": (np.array([1.0]), "shape (1,)"),
     "nan": (np.array([1.0, np.nan, -1.0]), "a non-finite entry")},
    {
        "Dataset": (*targets_rule("labels"), lambda y: Dataset(POINTS, labels=y)),
        "svc_fit": (*targets_rule("labels"), lambda y: svc_fit(GRAM, y, 1.0)),
        "krr_fit": (*targets_rule("y"), lambda y: krr_fit(GRAM, y, 1.0)),
        "svr_fit": (*targets_rule("y"), lambda y: svr_fit(GRAM, y, 1.0, 0.1)),
        "mlkrr_fit": (*targets_rule("y"), lambda y: mlkrr_fit(POINTS, y, NO_ROUNDS)),
        "mlkrr_loss-y": (*targets_rule("y"), lambda y: mlkrr_with(mlkrr_loss, y=y)),
        "mlkrr_loss-alpha": (*targets_rule("alpha"), lambda a: mlkrr_with(mlkrr_loss, alpha=a)),
        "mlkrr_loss_gradient-y": (*targets_rule("y"),
                                  lambda y: mlkrr_with(mlkrr_loss_gradient, y=y)),
        "mlkrr_loss_gradient-alpha": (*targets_rule("alpha"),
                                      lambda a: mlkrr_with(mlkrr_loss_gradient, alpha=a)),
    },
)


def square_rule(name):
    return name, "a non-empty square matrix of finite numbers"


SQUARE_CASES = table(
    {"3x2": (np.ones((3, 2)), "shape (3, 2)"),
     "empty": (np.zeros((0, 0)), "shape (0, 0)"),
     "nan": (np.diag([1.0, np.nan, 1.0]), "a non-finite entry")},
    {
        "GramMatrix": (*square_rule("Gram matrix"), lambda K: GramMatrix(K)),
        "ClassicalKernel-transform": (*square_rule("transform"),
                                      lambda A: ClassicalKernel.gaussian_metric(transform=A)),
        "svc_fit": (*square_rule("K"), lambda K: svc_fit(K, LABELS, 1.0)),
        "krr_fit": (*square_rule("K"), lambda K: krr_fit(K, LABELS, 1.0)),
        "svr_fit": (*square_rule("K"), lambda K: svr_fit(K, LABELS, 1.0, 0.1)),
        "kpca_fit": (*square_rule("K"), lambda K: kpca_fit(K, 1)),
        "kernel_kmeans": (*square_rule("K"), lambda K: kernel_kmeans(K, 1, 0)),
    },
)


CROSS_BLOCK_RULE = "a matrix of finite numbers, one column per training point (3)"
# a flat vector is read as one row; a GramMatrix is read as its values
CROSS_BLOCK_CASES = table(
    {"2-columns": (np.ones((1, 2)), "shape (1, 2)"),
     "flat-2": (np.ones(2), "shape (1, 2)"),
     "3-D": (np.ones((1, 1, 3)), "shape (1, 1, 3)"),
     "GramMatrix-2x2": (GramMatrix(np.eye(2)), "shape (2, 2)"),
     "nan": (np.array([[0.1, np.nan, 0.3]]), "a non-finite entry"),
     "flat-nan": (np.array([0.1, np.nan, 0.3]), "a non-finite entry")},
    {
        "svc_decision": ("K_new", CROSS_BLOCK_RULE,
                         lambda K: svc_decision(svc_fit(GRAM, LABELS, 1.0), K)),
        "krr_predict": ("K_new", CROSS_BLOCK_RULE,
                        lambda K: krr_predict(krr_fit(GRAM, LABELS, 1.0), K)),
        "svr_predict": ("K_new", CROSS_BLOCK_RULE,
                        lambda K: svr_predict(svr_fit(GRAM, LABELS, 1.0, 0.1), K)),
    },
)


@pytest.mark.parametrize("call, bad, message", [
    *POINT_CASES, *POINT_ARGUMENT_CASES, *PARAMS_CASES, *WHOLE_CASES, *SCALAR_CASES,
    *SIGN_CASES, *ONE_OF_CASES, *TARGET_CASES, *SQUARE_CASES, *CROSS_BLOCK_CASES,
])
def test_every_entry_point_refuses_a_bad_input_with_its_rules_message(call, bad, message):
    with pytest.raises(ValueError) as refused:
        call(bad)
    assert str(refused.value) == message


def test_a_whole_number_is_taken_as_an_int_and_a_seed_stays_signed():
    """An integral float is accepted as its int; a seed keeps its sign in a
    config and is reduced mod 2**64 only where a generator is seeded."""
    spec = FeatureMapSpec(n_qubits=2.0, n_layers=np.int64(3))
    assert (spec.n_qubits, spec.n_layers) == (2, 3)
    assert type(spec.n_qubits) is int and type(spec.n_layers) is int
    assert SpsaConfig(max_iter=4.0, seed=-1).seed == -1
    assert KernelEngineConfig(spec=SPEC, params=np.zeros(1), seed=-1.0).seed == -1
    assert rng_entropy(-1) == 2**64 - 1
    np.testing.assert_array_equal(random_params(SPEC, -1), random_params(SPEC, 2**64 - 1))


@pytest.mark.parametrize("call, message", [
    (lambda: FeatureMapSpec(n_qubits="2"), "n_qubits must be an integer >= 1, got '2'"),
    (lambda: SpsaConfig(a0="0.3"), "a0 must be positive and finite, got '0.3'"),
    (lambda: svc_fit(GRAM, LABELS, "1"), "C must be positive and finite, got '1'"),
], ids=["whole", "SpsaConfig", "svc_fit"])
def test_a_numeric_string_is_not_a_number(call, message):
    """Counts and scalars are numbers: "2" is refused, not parsed, and shown quoted."""
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message


@pytest.mark.parametrize("fit, predict", [
    (lambda: svc_fit(GRAM, LABELS, 1.0), svc_decision),
    (lambda: krr_fit(GRAM, LABELS, 1.0), krr_predict),
    (lambda: svr_fit(GRAM, LABELS, 1.0, 0.1), svr_predict),
], ids=["svc_decision", "krr_predict", "svr_predict"])
def test_a_flat_cross_block_is_one_row(fit, predict):
    """A new-versus-training block given as a flat vector is one new point."""
    model, row = fit(), np.array([0.2, 0.5, 0.9])
    assert np.array_equal(predict(model, row), predict(model, row.reshape(1, -1)))
    assert predict(model, row).shape == (1,)
