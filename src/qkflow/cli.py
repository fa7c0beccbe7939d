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
import csv
import sys
from pathlib import Path

import numpy as np

from .classical_kernels import ClassicalKernel
from .datasets import (
    SYNTHETIC_KINDS,
    Dataset,
    gen_synthetic,
    load_csv,
    normalize_unit_sphere,
    save_dataset,
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
from .qkernel import KernelEngineConfig
from .statevector import rng_entropy
from .training import MlkrrConfig, SpsaConfig, export_embedding, mlkrr_fit, qka_align

__all__ = ["run_command", "main"]

FLOAT_FORMAT = "%.17g"

CLASSICAL_CHOICES = ("linear", "polynomial", "exponential", "gaussian")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage()}")


def _role_seed(seed: int, role: int) -> int:
    stream = np.random.SeedSequence(rng_entropy(seed), spawn_key=(role,))
    return int(stream.generate_state(1, np.uint64)[0])


def _write_matrix_csv(path, matrix) -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        for row in matrix:
            writer.writerow([FLOAT_FORMAT % v for v in row])


def _write_column_csv(path, header: str, values, fmt=FLOAT_FORMAT) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([header])
        for v in values:
            writer.writerow([fmt % v if fmt else v])


def _write_trace_csv(path, losses) -> None:
    """Loss trace rows: iteration, the evaluated loss, and the running best."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["iteration", "loss_eval", "loss_best"])
        best = float("inf")
        for iteration, loss in losses:
            best = min(best, loss)
            writer.writerow([iteration, FLOAT_FORMAT % loss, FLOAT_FORMAT % best])


def _write_metrics_csv(path, names, values) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        writer.writerow([FLOAT_FORMAT % v for v in values])


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


# flags shared by subcommands: the feature map (align and every kernel
# selection) and the kernel selection (kernel/train/kpca/cluster)


def _add_feature_map_flags(container) -> None:
    container.add_argument("--qubits", type=int, default=1)
    container.add_argument("--layers", type=int, default=1)
    container.add_argument("--data-axis", choices=DATA_AXES, default="rx")
    container.add_argument("--trainable-axis", choices=TRAINABLE_AXES, default="ry")
    container.add_argument("--entanglement", choices=ENTANGLEMENTS, default="linear_chain")
    container.add_argument("--data-scaling", type=float, default=1.0)


def _add_kernel_flags(parser) -> None:
    group = parser.add_argument_group("kernel selection")
    group.add_argument("--kernel", choices=CLASSICAL_CHOICES + ("quantum",),
                       help="kernel family; or use --embedding")
    group.add_argument("--embedding", help="path to a pretrained embedding JSON")
    group.add_argument("--c", type=float, default=0.0, help="linear/polynomial offset")
    group.add_argument("--degree", type=int, default=2, help="polynomial degree")
    group.add_argument("--sigma", type=float, default=1.0, help="exponential kernel width")
    group.add_argument("--gamma", type=float, default=1.0, help="gaussian kernel width")
    _add_feature_map_flags(group)
    group.add_argument("--params", help="comma-separated trainable angles (default all 0)")
    group.add_argument("--mode", choices=("exact", "shots"), default="exact")
    group.add_argument("--shots", type=int, default=None)
    group.add_argument("--circuit", choices=("inversion", "swap"), default="inversion")


def _quantum_spec_from_args(args) -> FeatureMapSpec:
    return FeatureMapSpec(
        n_qubits=args.qubits,
        n_layers=args.layers,
        data_axis=args.data_axis,
        trainable_axis=args.trainable_axis,
        entanglement=args.entanglement,
        data_scaling=args.data_scaling,
    )


def _kernel_from_args(args, seed: int):
    """Build the kernel object plus pretraining metadata (embedding only); an
    embedding takes the measurement flags like `--kernel quantum`."""
    if args.shots is not None and args.mode != "shots":
        raise _UsageError("--shots needs --mode shots")
    if args.embedding is not None and (args.kernel is not None or args.params is not None):
        raise _UsageError("--embedding supplies the kernel and its angles; "
                          "drop --kernel and --params")
    if args.embedding is None and args.kernel is None:
        raise _UsageError("choose a kernel with --kernel or --embedding")
    if args.kernel == "linear":
        return ClassicalKernel.linear(c=args.c), None
    if args.kernel == "polynomial":
        return ClassicalKernel.polynomial(c=args.c, degree=args.degree), None
    if args.kernel == "exponential":
        return ClassicalKernel.exponential(sigma=args.sigma), None
    if args.kernel == "gaussian":
        return ClassicalKernel.gaussian_metric(gamma=args.gamma), None
    pretraining = None
    if args.embedding is not None:
        model_file = load_model(args.embedding)
        artifact = embedding_from_model_file(model_file)
        spec, lam, pretraining = artifact.spec, artifact.lam, dict(model_file.pretraining or {})
    elif args.params is not None:
        spec = _quantum_spec_from_args(args)
        lam = np.array([float(p) for p in args.params.split(",")], dtype=float)
    else:
        spec = _quantum_spec_from_args(args)
        lam = np.zeros(param_count(spec))
    cfg = KernelEngineConfig(spec=spec, params=lam, mode=args.mode,
                             shots=args.shots, seed=seed, circuit_kind=args.circuit)
    return cfg, pretraining


# subcommands


def _cmd_gen_data(args) -> int:
    params = {}
    for name in ("theta_star", "spread", "inner_radius", "outer_radius", "noise"):
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    ds = gen_synthetic(args.kind, args.m, args.seed, params)
    save_dataset(ds, args.out)
    print(f"wrote {args.out}: {ds.n_points} points, {ds.n_features} features")
    return 0


def _cmd_kernel(args) -> int:
    ds = _load_dataset(args.data, args.label_column, args.normalize)
    kernel, _ = _kernel_from_args(args, seed=args.seed)
    if args.data2 is not None:
        other = _load_dataset(args.data2, args.label_column, args.normalize)
        matrix = evaluate_cross(kernel, other.features, ds.features)
        shape_note = f"{matrix.shape[0]}x{matrix.shape[1]} cross-Gram"
    else:
        matrix = evaluate_gram(kernel, ds.features).values
        shape_note = f"{matrix.shape[0]}x{matrix.shape[1]} Gram"
    _write_matrix_csv(args.out, matrix)
    print(f"wrote {args.out}: {shape_note}")
    return 0


def _cmd_align(args) -> int:
    ds = _load_dataset(args.data, args.label_column, args.normalize, need_labels=True)
    spec = _quantum_spec_from_args(args)
    spsa = SpsaConfig(a0=args.a0, c0=args.c0, A_stab=args.stability,
                      max_iter=args.spsa_iters, seed=_role_seed(args.seed, 1))
    cfg = KernelEngineConfig(spec=spec, params=random_params(spec, _role_seed(args.seed, 0)),
                             mode="exact", seed=args.seed)
    state = qka_align(cfg, ds.features, ds.labels, args.C, spsa)
    artifact = export_embedding(state, spec)
    save_model(embedding_to_model_file(artifact, seed=args.seed), args.out)
    trace_path = args.trace_out or _derived_path(args.out, "_trace.csv")
    _write_trace_csv(trace_path, state.loss_trace)
    print(
        f"wrote {args.out}: loss {state.loss_trace[0][1]:.6f} -> best "
        f"{state.loss_best:.6f} in {state.iteration} iterations"
    )
    return 0


def _warn_task_mismatch(pretraining, method) -> None:
    if not pretraining:
        return
    pre_task = pretraining.get("task")
    down_task = MODEL_KINDS[method].task
    if pre_task != down_task:
        print(
            f"warning: embedding was pretrained for {pre_task!r}, which does not "
            f"match the downstream {down_task!r} task",
            file=sys.stderr,
        )


def _save_trained(path, kind: str, kernel, model, ds: Dataset, args, pretraining) -> None:
    model_file = ModelFile(
        format_version=FORMAT_VERSION,
        kind=kind,
        kernel=kernel_to_json(kernel),
        payload=model_to_payload(model, ds.features, args.normalize),
        pretraining=pretraining,
        seed=args.seed,
    )
    save_model(model_file, path)


def _cmd_train(args) -> int:
    ds = _load_dataset(args.data, args.label_column, args.normalize, need_labels=True)
    kernel, pretraining = _kernel_from_args(args, seed=args.seed)
    _warn_task_mismatch(pretraining, args.method)
    gram = evaluate_gram(kernel, ds.features)
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
    cfg = MlkrrConfig(gamma=args.gamma, reg=args.reg, lr=args.lr, outer_iters=args.rounds)
    A, model, trace = mlkrr_fit(ds.features, ds.labels, cfg)
    kernel = ClassicalKernel.gaussian_metric(gamma=args.gamma, transform=A)
    _save_trained(args.out, "krr", kernel, model, ds, args, None)
    matrix_path = args.matrix_out or _derived_path(args.out, "_A.csv")
    _write_matrix_csv(matrix_path, A)
    if args.trace_out:
        _write_trace_csv(args.trace_out, list(enumerate(trace)))
    print(f"wrote {args.out}: loss {trace[0]:.6f} -> {trace[-1]:.6f} "
          f"in {len(trace) - 1} rounds")
    return 0


def _cmd_predict(args) -> int:
    model_file = load_model(args.model)
    kind = MODEL_KINDS[model_file.kind]
    if kind.predict is None:
        raise ValueError(f"cannot predict with a {model_file.kind!r} model file")
    kernel = kernel_from_json(model_file.kernel)
    model, train, normalize = model_from_payload(model_file.kind, model_file.payload)
    ds = _load_dataset(args.data, args.label_column, normalize)
    weights = getattr(model, kind.weights)
    if weights.size != len(train):
        raise ValueError(f"model file holds {weights.size} weights for {len(train)} training points")
    if ds.features.shape[1] != train.shape[1]:
        raise ValueError(f"feature dimensions differ: {ds.features.shape[1]} vs {train.shape[1]}")
    # A kernel entry depends on its own two points alone, so only columns with
    # a nonzero weight are evaluated and the rest stay 0: a zero weight adds a
    # signed zero, which cannot change a nonzero sum.
    used = np.flatnonzero(weights != 0)
    K_new = np.zeros((ds.n_points, len(train)))
    if used.size:
        K_new[:, used] = evaluate_cross(kernel, ds.features, train[used])
    predictions = kind.predict(model, K_new)
    _write_column_csv(args.out, "prediction", predictions)
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
            _write_metrics_csv(args.metrics_out, names, values)
        note += "; " + ", ".join(f"{n}={v:.6f}" for n, v in zip(names, values))
    print(note)
    return 0


def _cmd_kpca(args) -> int:
    ds = _load_dataset(args.data, args.label_column, args.normalize)
    kernel, _ = _kernel_from_args(args, seed=args.seed)
    gram = evaluate_gram(kernel, ds.features)
    model = kpca_fit(gram, n_components=args.components)
    _write_matrix_csv(args.out, model.train_projections)
    print(f"wrote {args.out}: {ds.n_points} points x {args.components} components")
    return 0


def _cmd_cluster(args) -> int:
    ds = _load_dataset(args.data, args.label_column, args.normalize)
    kernel, _ = _kernel_from_args(args, seed=args.seed)
    gram = evaluate_gram(kernel, ds.features)
    assign, trace = kernel_kmeans(gram, n_clusters=args.clusters,
                                  seed=_role_seed(args.seed, 2))
    _write_column_csv(args.out, "cluster", assign, fmt="%d")
    if args.trace_out:
        _write_trace_csv(args.trace_out, list(enumerate(trace)))
    print(f"wrote {args.out}: {args.clusters} clusters over {ds.n_points} points")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="qkflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a seeded synthetic dataset CSV")
    p.add_argument("--kind", choices=SYNTHETIC_KINDS, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--theta-star", type=float, default=None)
    p.add_argument("--spread", type=float, default=None)
    p.add_argument("--inner-radius", type=float, default=None)
    p.add_argument("--outer-radius", type=float, default=None)
    p.add_argument("--noise", type=float, default=None)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("kernel", help="write a Gram or cross-Gram matrix CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--data2", default=None, help="second dataset for a cross-Gram")
    p.add_argument("--label-column", default=None)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_kernel_flags(p)
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("align", help="quantum kernel alignment pretraining")
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", default=None)
    p.add_argument("--normalize", action="store_true")
    _add_feature_map_flags(p)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--spsa-iters", type=int, default=100)
    p.add_argument("--a0", type=float, default=0.25)
    p.add_argument("--c0", type=float, default=0.15)
    p.add_argument("--stability", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--trace-out", default=None)
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("train", help="train svc, krr, or svr on a kernel or embedding")
    p.add_argument("--method", choices=("svc", "krr", "svr"), required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", default=None)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--reg", type=float, default=1e-6)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="model.json")
    _add_kernel_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("mlkrr", help="metric learning for kernel ridge regression")
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", default=None)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--reg", type=float, default=1e-6)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--rounds", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--matrix-out", default=None)
    p.add_argument("--trace-out", default=None)
    p.set_defaults(func=_cmd_mlkrr)

    p = sub.add_parser("predict", help="predict with a trained model file")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", default=None)
    p.add_argument("--out", default="predictions.csv")
    p.add_argument("--metrics-out", default=None)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("kpca", help="kernel PCA projections")
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", default=None)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--components", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_kernel_flags(p)
    p.set_defaults(func=_cmd_kpca)

    p = sub.add_parser("cluster", help="kernel k-means assignments")
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", default=None)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--clusters", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--trace-out", default=None)
    _add_kernel_flags(p)
    p.set_defaults(func=_cmd_cluster)

    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
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
