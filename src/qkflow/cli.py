"""Command-line front end for the two-stage kernel workflow.

Subcommands cover dataset synthesis (gen-data), kernel matrix export
(kernel), quantum kernel alignment (align), model training (train, mlkrr),
prediction with metrics (predict), and the unsupervised consumers (kpca,
cluster). Exit codes: 0 success, 1 usage error, 2 data or validation error.

Every command takes a single --seed; where a command needs several
independent random streams they are derived from that seed by role.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import _checks
from .classical_kernels import CLASSICAL_KINDS, CLASSICAL_PARAMS, ClassicalKernel
from .datasets import (
    SYNTHETIC_KINDS,
    Dataset,
    gen_synthetic,
    load_csv,
    normalize_unit_sphere,
    save_dataset,
    write_csv,
)
from .featuremap import (
    DATA_AXES,
    ENTANGLEMENTS,
    TRAINABLE_AXES,
    FeatureMapSpec,
    param_count,
    random_params,
)
from .kernel_methods import kernel_kmeans, kpca_fit, krr_fit, svc_fit, svr_fit
from .model_io import (
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
from .qkernel import CIRCUIT_KINDS, MODES, GramMatrix, KernelEngineConfig
from .training import MlkrrConfig, SpsaConfig, export_embedding, mlkrr_fit, qka_align

__all__ = ["run_command", "main"]

# `--kernel gaussian` selects the gaussian_metric kind
CLASSICAL_CHOICES = {kind.removesuffix("_metric"): kind for kind in CLASSICAL_KINDS}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage()}")


def _role_seed(seed: int, role: int) -> int:
    stream = np.random.SeedSequence(_checks.rng_entropy(seed), spawn_key=(role,))
    return int(stream.generate_state(1, np.uint64)[0])


def _write_trace_csv(path, losses) -> None:
    """Loss trace rows: iteration, the evaluated loss, and the running best."""
    rows, best = [], math.inf
    for iteration, loss in losses:
        best = min(best, loss)
        rows.append((iteration, loss, best))
    write_csv(path, rows, header=("iteration", "loss_eval", "loss_best"))


def _derived_path(out, suffix: str) -> Path:
    out = Path(out)
    return out.with_name(out.stem + suffix)


def _load_dataset(path, label_column, normalize: bool, need_labels: bool = False) -> Dataset:
    ds = load_csv(path, label_column=label_column)
    if need_labels and ds.labels is None:
        raise ValueError(f"{path}: a label column is required for this command")
    if normalize:
        ds = normalize_unit_sphere(ds)
    return ds


# Every flag that sets a library dataclass field is stored under that field's
# name and defaults to None, so a flag left unset keeps the dataclass default
# (`_given`) and a set one can be told apart. Rows: flag, field, keywords.

_FEATURE_MAP_FLAGS = (
    ("--qubits", "n_qubits", {"type": int}),
    ("--layers", "n_layers", {"type": int}),
    ("--data-axis", "data_axis", {"choices": DATA_AXES}),
    ("--trainable-axis", "trainable_axis", {"choices": TRAINABLE_AXES}),
    ("--entanglement", "entanglement", {"choices": ENTANGLEMENTS}),
    ("--data-scaling", "data_scaling", {"type": float}),
)
_KERNEL_FLAGS = (
    ("--c", "c", {"type": float, "help": "linear/polynomial offset"}),
    ("--degree", "degree", {"type": int, "help": "polynomial degree"}),
    ("--sigma", "sigma", {"type": float, "help": "exponential kernel width"}),
    ("--gamma", "gamma", {"type": float, "help": "gaussian kernel width"}),
    *_FEATURE_MAP_FLAGS,
    ("--params", "params", {"help": "comma-separated trainable angles (default all 0)"}),
    ("--mode", "mode", {"choices": MODES}),
    ("--shots", "shots", {"type": int}),
    ("--circuit", "circuit_kind", {"choices": CIRCUIT_KINDS}),
)
_KERNEL_OPTIONS = {field: flag for flag, field, _ in _KERNEL_FLAGS}

_MEASUREMENT = tuple(f.name for f in fields(KernelEngineConfig)
                     if f.name not in ("spec", "params", "seed"))
# the kernel flags (by field) each kernel choice reads; any other one is refused
KERNEL_READS = {
    **{choice: CLASSICAL_PARAMS[kind] for choice, kind in CLASSICAL_CHOICES.items()},
    "quantum": (*(f.name for f in fields(FeatureMapSpec)), "params", *_MEASUREMENT),
    "embedding": _MEASUREMENT,
}


def _add_kernel_flags(parser) -> None:
    group = parser.add_argument_group("kernel selection")
    group.add_argument("--kernel", choices=(*CLASSICAL_CHOICES, "quantum"),
                       help="kernel family; or use --embedding")
    group.add_argument("--embedding", help="path to a pretrained embedding JSON")
    for flag, field, keywords in _KERNEL_FLAGS:
        group.add_argument(flag, dest=field, **keywords)


def _given(args, cls, **fixed):
    """`cls` built from `fixed` and from every flag that was set for one of
    its other fields."""
    given = {f.name: getattr(args, f.name, None) for f in fields(cls) if f.name not in fixed}
    return cls(**fixed, **{name: value for name, value in given.items() if value is not None})


def _kernel_choice(args) -> str:
    """The chosen kernel ("embedding" for --embedding), once every kernel flag
    that was set is one the choice reads and --shots comes with --mode shots."""
    if args.embedding is not None and args.kernel is not None:
        raise _UsageError("--embedding supplies the kernel; drop --kernel")
    if args.embedding is None and args.kernel is None:
        raise _UsageError("choose a kernel with --kernel or --embedding")
    choice = args.kernel or "embedding"
    stray = [flag for field, flag in _KERNEL_OPTIONS.items()
             if getattr(args, field) is not None and field not in KERNEL_READS[choice]]
    if stray:
        chosen = "--embedding" if args.kernel is None else f"--kernel {choice}"
        raise _UsageError(f"{chosen} does not read {', '.join(stray)}")
    if args.shots is not None and args.mode != "shots":
        raise _UsageError("--shots needs --mode shots")
    return choice


def _params_from_flag(text: str) -> np.ndarray:
    try:
        return np.array([float(p) for p in text.split(",")])
    except ValueError:
        raise ValueError(f"--params must be comma-separated numbers, got {text!r}") from None


def _kernel_from_args(args):
    """Build the kernel object plus pretraining metadata (embedding only)."""
    choice = _kernel_choice(args)
    if choice in CLASSICAL_CHOICES:
        return _given(args, ClassicalKernel, kind=CLASSICAL_CHOICES[choice]), None
    pretraining = None
    if choice == "embedding":
        model_file = load_model(args.embedding)
        artifact = embedding_from_model_file(model_file)
        spec, lam, pretraining = artifact.spec, artifact.lam, dict(model_file.pretraining or {})
    else:
        spec = _given(args, FeatureMapSpec)
        lam = np.zeros(param_count(spec)) if args.params is None else _params_from_flag(args.params)
    return _given(args, KernelEngineConfig, spec=spec, params=lam, seed=args.seed), pretraining


def _training_gram(kernel, features) -> GramMatrix:
    """The Gram that train, kpca and cluster fit on. A shot-sampled quantum
    Gram can have negative eigenvalues, which krr's Cholesky refuses; they are
    clipped to 0 and the matrix made symmetric again (Hubregtsen et al.,
    arXiv:2105.02276). Every other Gram is used as it is."""
    gram = evaluate_gram(kernel, features)
    if not isinstance(kernel, KernelEngineConfig) or kernel.mode != "shots":
        return gram
    eigenvalues, vectors = np.linalg.eigh(gram.values)
    clipped = (vectors * np.maximum(eigenvalues, 0.0)) @ vectors.T
    return GramMatrix(values=(clipped + clipped.T) / 2.0)


# subcommands

# gen-data passes on only the generator parameters that were set
_GENERATOR_PARAMS = ("theta_star", "spread", "inner_radius", "outer_radius", "noise")


def _cmd_gen_data(args) -> int:
    params = {name: getattr(args, name) for name in _GENERATOR_PARAMS
              if getattr(args, name) is not None}
    ds = gen_synthetic(args.kind, args.m, args.seed, params)
    save_dataset(ds, args.out)
    print(f"wrote {args.out}: {ds.n_points} points, {ds.n_features} features")
    return 0


def _cmd_kernel(args) -> int:
    kernel, _ = _kernel_from_args(args)
    ds = _load_dataset(args.data, args.label_column, args.normalize)
    if args.data2 is not None:
        other = _load_dataset(args.data2, args.label_column, args.normalize)
        matrix, name = evaluate_cross(kernel, other.features, ds.features), "cross-Gram"
    else:
        matrix, name = evaluate_gram(kernel, ds.features).values, "Gram"
    write_csv(args.out, matrix)
    print(f"wrote {args.out}: {matrix.shape[0]}x{matrix.shape[1]} {name}")
    return 0


def _cmd_align(args) -> int:
    ds = _load_dataset(args.data, args.label_column, args.normalize, need_labels=True)
    spec = _given(args, FeatureMapSpec)
    spsa = _given(args, SpsaConfig, seed=_role_seed(args.seed, 1))
    cfg = KernelEngineConfig(spec=spec, params=random_params(spec, _role_seed(args.seed, 0)),
                             seed=args.seed)
    state = qka_align(cfg, ds.features, ds.labels, args.C, spsa)
    artifact = export_embedding(state, spec)
    save_model(embedding_to_model_file(artifact, seed=args.seed), args.out)
    trace_path = args.trace_out or _derived_path(args.out, "_trace.csv")
    _write_trace_csv(trace_path, state.loss_trace)
    print(f"wrote {args.out}: loss {state.loss_trace[0][1]:.6f} -> best "
          f"{state.loss_best:.6f} in {len(state.loss_trace) - 1} iterations")
    return 0


def _warn_task_mismatch(pretraining, method) -> None:
    down_task = MODEL_KINDS[method].task
    if pretraining and pretraining.get("task") != down_task:
        print(f"warning: embedding was pretrained for {pretraining.get('task')!r}, which "
              f"does not match the downstream {down_task!r} task", file=sys.stderr)


def _save_trained(path, kind: str, kernel, model, ds: Dataset, args, pretraining) -> None:
    payload = model_to_payload(model, ds.features, args.normalize)
    save_model(ModelFile(format_version=FORMAT_VERSION, kind=kind, kernel=kernel_to_json(kernel),
                         payload=payload, pretraining=pretraining, seed=args.seed), path)


def _cmd_train(args) -> int:
    kernel, pretraining = _kernel_from_args(args)
    ds = _load_dataset(args.data, args.label_column, args.normalize, need_labels=True)
    _warn_task_mismatch(pretraining, args.method)
    gram = _training_gram(kernel, ds.features)
    if args.method == "svc":
        model = svc_fit(gram, ds.labels, C=args.C)
    elif args.method == "krr":
        model = krr_fit(gram, ds.labels, reg=args.reg)
    else:
        model = svr_fit(gram, ds.labels, C=args.C, epsilon=args.epsilon)
    _save_trained(args.out, args.method, kernel, model, ds, args, pretraining)
    print(f"wrote {args.out}: {args.method} model on {ds.n_points} points")
    return 0


def _cmd_mlkrr(args) -> int:
    ds = _load_dataset(args.data, args.label_column, args.normalize, need_labels=True)
    cfg = _given(args, MlkrrConfig)
    A, model, trace = mlkrr_fit(ds.features, ds.labels, cfg)
    kernel = ClassicalKernel.gaussian_metric(gamma=cfg.gamma, transform=A)
    _save_trained(args.out, "krr", kernel, model, ds, args, None)
    matrix_path = args.matrix_out or _derived_path(args.out, "_A.csv")
    write_csv(matrix_path, A)
    if args.trace_out:
        _write_trace_csv(args.trace_out, list(enumerate(trace)))
    print(f"wrote {args.out}: loss {trace[0]:.6f} -> {trace[-1]:.6f} "
          f"in {len(trace) - 1} rounds")
    return 0


def _cmd_predict(args) -> int:
    model_file = load_model(args.model)
    kind = MODEL_KINDS[model_file.kind]
    kernel = kernel_from_json(model_file.kernel)
    model, train, normalize = model_from_payload(model_file.kind, model_file.payload)
    ds = _load_dataset(args.data, args.label_column, normalize)
    _checks.cross_points(ds.features, train)
    # A kernel entry depends on its own two points alone, so only columns with
    # a nonzero weight are evaluated and the rest stay 0: a zero weight adds a
    # signed zero, which cannot change a nonzero sum.
    used = np.flatnonzero(getattr(model, kind.weights))
    K_new = np.zeros((ds.n_points, len(train)))
    if used.size:
        K_new[:, used] = evaluate_cross(kernel, ds.features, train[used])
    predictions = kind.predict(model, K_new)
    write_csv(args.out, predictions[:, None], header=["prediction"])
    note = f"wrote {args.out}: {predictions.size} predictions"
    if ds.labels is not None:
        if kind.task == "classification":
            names = ["accuracy"]
            values = [float(np.mean(predictions == ds.labels))]
        else:
            errors = predictions - ds.labels
            names = ["rmse", "mae"]
            values = [float(np.sqrt(np.mean(errors**2))), float(np.mean(np.abs(errors)))]
        if args.metrics_out:
            write_csv(args.metrics_out, [values], header=names)
        note += "; " + ", ".join(f"{n}={v:.6f}" for n, v in zip(names, values))
    print(note)
    return 0


def _cmd_kpca(args) -> int:
    kernel, _ = _kernel_from_args(args)
    ds = _load_dataset(args.data, args.label_column, args.normalize)
    gram = _training_gram(kernel, ds.features)
    model = kpca_fit(gram, n_components=args.components)
    write_csv(args.out, model.train_projections)
    print(f"wrote {args.out}: {ds.n_points} points x {args.components} components")
    return 0


def _cmd_cluster(args) -> int:
    kernel, _ = _kernel_from_args(args)
    ds = _load_dataset(args.data, args.label_column, args.normalize)
    gram = _training_gram(kernel, ds.features)
    assign, trace = kernel_kmeans(gram, n_clusters=args.clusters,
                                  seed=_role_seed(args.seed, 2))
    write_csv(args.out, assign[:, None], header=["cluster"])
    if args.trace_out:
        _write_trace_csv(args.trace_out, list(enumerate(trace)))
    print(f"wrote {args.out}: {args.clusters} clusters over {ds.n_points} points")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="qkflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # the dataset and seed flags of every command that reads a dataset to
    # train or evaluate on it
    dataset = argparse.ArgumentParser(add_help=False)
    dataset.add_argument("--data", required=True)
    dataset.add_argument("--label-column")
    dataset.add_argument("--normalize", action="store_true")
    dataset.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gen-data", help="generate a seeded synthetic dataset CSV")
    p.add_argument("--kind", choices=SYNTHETIC_KINDS, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    for name in _GENERATOR_PARAMS:
        p.add_argument("--" + name.replace("_", "-"), type=float)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("kernel", parents=[dataset], help="write a Gram or cross-Gram matrix CSV")
    p.add_argument("--data2", help="second dataset for a cross-Gram")
    p.add_argument("--out", required=True)
    _add_kernel_flags(p)
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("align", parents=[dataset], help="quantum kernel alignment pretraining")
    for flag, field, keywords in _FEATURE_MAP_FLAGS:
        p.add_argument(flag, dest=field, **keywords)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--spsa-iters", dest="max_iter", type=int)
    p.add_argument("--a0", type=float)
    p.add_argument("--out", required=True)
    p.add_argument("--trace-out")
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("train", parents=[dataset],
                       help="train svc, krr, or svr on a kernel or embedding")
    p.add_argument("--method", choices=("svc", "krr", "svr"), required=True)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--reg", type=float, default=1e-6)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--out", default="model.json")
    _add_kernel_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("mlkrr", parents=[dataset],
                       help="metric learning for kernel ridge regression")
    p.add_argument("--gamma", type=float)
    p.add_argument("--reg", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--rounds", dest="outer_iters", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--matrix-out")
    p.add_argument("--trace-out")
    p.set_defaults(func=_cmd_mlkrr)

    p = sub.add_parser("predict", help="predict with a trained model file")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--label-column")
    p.add_argument("--out", default="predictions.csv")
    p.add_argument("--metrics-out")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("kpca", parents=[dataset], help="kernel PCA projections")
    p.add_argument("--components", type=int, default=2)
    p.add_argument("--out", required=True)
    _add_kernel_flags(p)
    p.set_defaults(func=_cmd_kpca)

    p = sub.add_parser("cluster", parents=[dataset], help="kernel k-means assignments")
    p.add_argument("--clusters", type=int, default=2)
    p.add_argument("--out", required=True)
    p.add_argument("--trace-out")
    _add_kernel_flags(p)
    p.set_defaults(func=_cmd_cluster)

    return parser


def run_command(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
