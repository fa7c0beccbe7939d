"""Kernel training loops.

Two trainers live here. Quantum kernel alignment picks encoding parameters
lambda by minimizing the maximized SVM dual: the inner maximization is
solved exactly by the SVC solver and the outer minimization runs SPSA, a
two-evaluation stochastic gradient scheme with decaying gain schedules.
Classical metric learning (MLKRR) alternates a ridge solve for the model
weights with backtracked gradient steps on the transformation matrix inside
a Gaussian kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _checks
from .classical_kernels import ClassicalKernel, classical_gram
from .featuremap import FeatureMapSpec, param_count
from .kernel_methods import TrainedKRR, krr_fit, svc_fit
from .qkernel import KernelEngineConfig, gram_matrix

__all__ = [
    "SpsaConfig",
    "AlignmentState",
    "MlkrrConfig",
    "EmbeddingArtifact",
    "spsa_gradient",
    "qka_align",
    "mlkrr_loss",
    "mlkrr_loss_gradient",
    "mlkrr_fit",
    "export_embedding",
]


# SPSA gain schedule: Spall's standard exponents (IEEE Trans. Aerosp.
# Electron. Syst. 34(3), 1998), the perturbation size c0 and the step
# schedule's stability offset A_stab
SPSA_ALPHA = 0.602
SPSA_GAMMA = 0.101
SPSA_C0 = 0.15
SPSA_A_STAB = 5.0


@dataclass(frozen=True)
class SpsaConfig:
    """Step size and budget for the SPSA optimizer.

    Step sizes follow a_k = a0 / (k + 1 + SPSA_A_STAB)^SPSA_ALPHA and
    perturbation sizes c_k = SPSA_C0 / (k + 1)^SPSA_GAMMA.
    """

    a0: float = 0.25
    max_iter: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "a0", _checks.positive(self.a0, "a0"))
        object.__setattr__(self, "max_iter", _checks.whole(self.max_iter, "max_iter", 0))
        object.__setattr__(self, "seed", _checks.whole(self.seed, "seed"))


@dataclass(frozen=True, eq=False)
class AlignmentState:
    """Result of a quantum kernel alignment run, read off its record of
    evaluations: the start, then the two probes of each SPSA step.

    loss_best and lam_best are the first least loss of the record and its
    candidate. loss_trace holds (iteration, loss) rows: row 0 is the loss at
    the initial parameters, row k the smaller of the two probes of SPSA step
    k, so a run took len(loss_trace) - 1 steps. sv_counts is the support
    vector count of every evaluation, in order.
    """

    lam_current: np.ndarray
    lam_best: np.ndarray
    loss_best: float
    loss_trace: tuple[tuple[int, float], ...]
    sv_counts: tuple[int, ...]
    seed: int

    def __post_init__(self) -> None:
        for name in ("lam_current", "lam_best"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def spsa_gradient(f, lam, c_k: float, delta) -> np.ndarray:
    """Two-evaluation simultaneous-perturbation gradient estimate.

    ghat_j = [f(lam + c_k*delta) - f(lam - c_k*delta)] / (2 c_k delta_j)
    with delta a Rademacher +-1 vector. Symmetric differencing makes the
    estimate exact on one-dimensional quadratics.
    """
    lam = np.asarray(lam, dtype=float).reshape(-1)
    delta = np.asarray(delta, dtype=float).reshape(-1)
    c_k = _checks.positive(c_k, "c_k")
    if delta.shape != lam.shape:
        raise ValueError(f"delta shape {delta.shape} does not match lam {lam.shape}")
    if not np.all(np.abs(delta) == 1.0):
        raise ValueError("delta entries must be +1 or -1")
    f_plus = float(f(lam + c_k * delta))
    f_minus = float(f(lam - c_k * delta))
    return (f_plus - f_minus) / (2.0 * c_k * delta)


def _dead_map(spec: FeatureMapSpec) -> bool:
    """True when no choice of trainable angles moves the kernel of the map.

    Z data rotations with Z or P trainable ones keep |0...0> up to a phase,
    since CNOTs only permute basis states. X rotations and CNOTs keep the X
    basis, so with both axes X the angles cancel in every overlap. In one
    layer a trainable Z or P acts on |0> as a phase, and one on the data axis
    adds to the data angle and cancels between the two points; the same
    happens on every layer of a product map (one qubit, or no entangler).
    """
    data, trainable = spec.data_axis, spec.trainable_axis
    product = spec.n_qubits == 1 or spec.entanglement == "none"
    return ((data == "rz" and trainable in ("rz", "p"))
            or data == trainable == "rx"
            or (spec.n_layers == 1 and trainable in ("rz", "p", data))
            or (product and trainable == data))


def qka_align(cfg: KernelEngineConfig, X, y, C: float, spsa: SpsaConfig) -> AlignmentState:
    """Minimize the maximized SVM dual over the encoding parameters.

    SPSA starts from cfg.params. Each objective evaluation binds a candidate
    vector to cfg, builds the Gram on X, and solves the SVM dual at capacity
    C; the loss is its dual_objective, lower when the kernel separates the
    labels with a larger margin. Each evaluation appends (loss, candidate,
    support count) to one record, from which the AlignmentState is read.
    Parameters move by lam <- lam - a_k * ghat with no projection, since every
    rotation angle is periodic. A map whose kernel no angle can move is
    refused with a ValueError.
    """
    X = _checks.points(X, "X")
    spec = cfg.spec
    if _dead_map(spec):
        raise ValueError(
            f"no trainable angle moves the kernel of a {spec.n_layers}-layer map with "
            f"data axis {spec.data_axis}, trainable axis {spec.trainable_axis} and "
            f"entanglement {spec.entanglement}: there is nothing to align")
    lam = cfg.params.copy()
    rng = np.random.default_rng(_checks.rng_entropy(spsa.seed))
    record: list[tuple[float, np.ndarray, int]] = []  # (loss, candidate, support count)

    def objective(candidate: np.ndarray) -> float:
        model = svc_fit(gram_matrix(replace(cfg, params=candidate), X), y, C)
        record.append((model.dual_objective, candidate, int(model.support_indices.size)))
        return model.dual_objective

    objective(lam)
    for k in range(spsa.max_iter):
        a_k = spsa.a0 / (k + 1 + SPSA_A_STAB) ** SPSA_ALPHA
        c_k = SPSA_C0 / (k + 1) ** SPSA_GAMMA
        delta = rng.integers(0, 2, size=lam.size).astype(float) * 2.0 - 1.0
        lam = lam - a_k * spsa_gradient(objective, lam, c_k, delta)

    losses = [loss for loss, _, _ in record]
    loss_best, lam_best, _ = min(record, key=lambda entry: entry[0])  # the first least
    return AlignmentState(
        lam_current=lam,
        lam_best=lam_best,
        loss_best=float(loss_best),
        loss_trace=((0, losses[0]), *((k, min(losses[2 * k - 1], losses[2 * k]))
                                      for k in range(1, spsa.max_iter + 1))),
        sv_counts=tuple(count for _, _, count in record),
        seed=spsa.seed,
    )


# classical metric learning for kernel ridge regression

MLKRR_STEP = 0.05  # the trial step of the first MLKRR round on A (see MlkrrConfig)


@dataclass(frozen=True, eq=False)
class MlkrrConfig:
    """Kernel width, ridge and round budget for MLKRR.

    A round halves its trial step on A up to 10 times until the loss does not
    increase, else keeps A. The first round tries MLKRR_STEP, and each later
    one twice the step the round before accepted: Armijo, warm-started.
    """

    gamma: float = 1.0
    reg: float = 1e-6
    outer_iters: int = 30

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", _checks.positive(self.gamma, "gamma"))
        object.__setattr__(self, "reg", _checks.non_negative(self.reg, "reg"))
        object.__setattr__(self, "outer_iters", _checks.whole(self.outer_iters, "outer_iters", 0))


def _metric_gram(X: np.ndarray, A, gamma: float) -> np.ndarray:
    return classical_gram(ClassicalKernel.gaussian_metric(gamma, A), X).values


def _ridge_loss(K: np.ndarray, y: np.ndarray, alpha: np.ndarray, reg: float) -> float:
    r = K @ alpha - y
    return float(r @ r + reg * alpha @ K @ alpha)


def _ridge_gradient(K, X, y, alpha, A, gamma: float, reg: float) -> np.ndarray:
    """Gradient of _ridge_loss in A, for K the Gram of A on X. With d_ij = x_i - x_j,
    dk_ij/dA = -2 gamma k_ij A d_ij d_ij^T, and the chain rule over pairs collapses
    to a weighted pairwise-difference covariance with no m^2 x d^2 intermediate.
    """
    r = K @ alpha - y
    S = (2.0 * np.outer(r, alpha) + reg * np.outer(alpha, alpha)) * K
    diag_part = X.T @ (X * (S.sum(axis=1) + S.sum(axis=0))[:, None])
    cross_part = X.T @ (S + S.T) @ X
    return -2.0 * gamma * A @ (diag_part - cross_part)


def _mlkrr_inputs(X, y, alpha, gamma, reg) -> tuple:
    X = _checks.points(X, "X")
    m = X.shape[0]
    return (X, _checks.targets(y, m, "y"), _checks.targets(alpha, m, "alpha"),
            _checks.positive(gamma, "gamma"), _checks.non_negative(reg, "reg"))


def mlkrr_loss(X, y, alpha, A, gamma: float, reg: float) -> float:
    """Ridge loss ||K_A alpha - y||^2 + reg * alpha^T K_A alpha."""
    X, y, alpha, gamma, reg = _mlkrr_inputs(X, y, alpha, gamma, reg)
    return _ridge_loss(_metric_gram(X, A, gamma), y, alpha, reg)


def mlkrr_loss_gradient(X, y, alpha, A, gamma: float, reg: float) -> np.ndarray:
    """Gradient of mlkrr_loss with respect to the transformation matrix A."""
    X, y, alpha, gamma, reg = _mlkrr_inputs(X, y, alpha, gamma, reg)
    K, A = _metric_gram(X, A, gamma), np.asarray(A, dtype=float)
    return _ridge_gradient(K, X, y, alpha, A, gamma, reg)


def mlkrr_fit(X, y, cfg: MlkrrConfig) -> tuple[np.ndarray, TrainedKRR, list[float]]:
    """Alternate ridge solves for alpha with backtracked steps on A (see
    MlkrrConfig), from A = I. Each metric's Gram is built once: the accepted
    candidate's serves the refit, the trace loss and the next gradient. The
    trace has one loss per round boundary, from the initial fit on, and never
    increases.
    """
    X = _checks.points(X, "X")
    m, d = X.shape
    if m < 2:
        raise ValueError(f"X must have at least 2 rows, got {m}")
    y = _checks.targets(y, m, "y")
    A, step = np.eye(d), MLKRR_STEP
    K = _metric_gram(X, A, cfg.gamma)
    model = krr_fit(K, y, cfg.reg)
    trace = [_ridge_loss(K, y, model.alphas, cfg.reg)]
    for _ in range(cfg.outer_iters):
        grad = _ridge_gradient(K, X, y, model.alphas, A, cfg.gamma, cfg.reg)
        for _ in range(10 if np.any(grad) else 0):  # no step to try at a stationary A
            candidate = A - step * grad
            K_candidate = _metric_gram(X, candidate, cfg.gamma)
            if _ridge_loss(K_candidate, y, model.alphas, cfg.reg) <= trace[-1]:
                A, K, step = candidate, K_candidate, 2.0 * step
                model = krr_fit(K, y, cfg.reg)
                break
            step /= 2.0
        trace.append(_ridge_loss(K, y, model.alphas, cfg.reg))
    return A, model, trace


# pretraining artifact


@dataclass(frozen=True, eq=False)
class EmbeddingArtifact:
    """A trained encoding: feature-map structure plus the best parameters.

    This is what the pretraining stage hands to downstream models; task
    names the pretraining objective for task-matching audits.
    """

    spec: FeatureMapSpec
    lam: np.ndarray
    loss_best: float
    task: str
    seed: int
    iterations: int

    def __post_init__(self) -> None:
        lam = _checks.params(np.array(self.lam, dtype=float), param_count(self.spec), "lam")
        lam.flags.writeable = False
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "seed", _checks.whole(self.seed, "seed"))
        object.__setattr__(self, "iterations", _checks.whole(self.iterations, "iterations", 0))


def export_embedding(state: AlignmentState, spec: FeatureMapSpec) -> EmbeddingArtifact:
    """Bundle the best aligned parameters for persistence and reuse."""
    if not state.loss_trace:
        raise ValueError("alignment state has no evaluated losses to export")
    return EmbeddingArtifact(
        spec=spec,
        lam=state.lam_best,
        loss_best=float(state.loss_best),
        task="classification",
        seed=state.seed,
        iterations=len(state.loss_trace) - 1,
    )
