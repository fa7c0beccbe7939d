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

import math
from dataclasses import dataclass, replace

import numpy as np

from .classical_kernels import ClassicalKernel, classical_gram
from .featuremap import FeatureMapSpec, param_count
from .kernel_methods import SUPPORT_THRESHOLD, TrainedKRR, krr_fit, svc_fit
from .qkernel import KernelEngineConfig, gram_matrix
from .statevector import rng_entropy

__all__ = [
    "SpsaConfig",
    "AlignmentState",
    "MlkrrConfig",
    "EmbeddingArtifact",
    "svc_loss",
    "spsa_gradient",
    "qka_align",
    "mlkrr_loss",
    "mlkrr_loss_gradient",
    "mlkrr_fit",
    "export_embedding",
]


def svc_loss(K, y, C: float) -> tuple[float, np.ndarray]:
    """Maximized SVM dual value for a fixed kernel, plus the maximizing alphas.

    This is the inner max of the alignment min-max problem; lower values
    mean the kernel separates the labels with a larger margin.
    """
    model = svc_fit(K, y, C)
    return model.dual_objective, model.alphas


# SPSA gain-schedule exponents: Spall's standard values (IEEE Trans. Aerosp.
# Electron. Syst. 34(3), 1998)
SPSA_ALPHA = 0.602
SPSA_GAMMA = 0.101


@dataclass(frozen=True)
class SpsaConfig:
    """Gain schedule and budget for the SPSA optimizer.

    Step sizes follow a_k = a0 / (k + 1 + A_stab)^SPSA_ALPHA and perturbation
    sizes c_k = c0 / (k + 1)^SPSA_GAMMA, the standard slowly decaying pair.
    """

    a0: float = 0.25
    c0: float = 0.15
    A_stab: float = 5.0
    max_iter: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("a0", "c0", "A_stab"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not (self.a0 > 0 and self.c0 > 0):
            raise ValueError("a0 and c0 must be positive")
        if self.A_stab < 0:
            raise ValueError(f"A_stab must be non-negative, got {self.A_stab}")
        if int(self.max_iter) != self.max_iter or self.max_iter < 0:
            raise ValueError(f"max_iter must be a non-negative integer, got {self.max_iter}")
        object.__setattr__(self, "max_iter", int(self.max_iter))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True, eq=False)
class AlignmentState:
    """Result of a quantum kernel alignment run.

    loss_trace holds (iteration, loss) rows: row 0 is the loss at the
    initial parameters, row k the smaller of the two probe evaluations of
    SPSA step k. lam_best/loss_best track the best parameters over every
    objective evaluation, probes included. sv_counts records the number of
    support vectors seen at each evaluation, in order.
    """

    lam_current: np.ndarray
    lam_best: np.ndarray
    loss_best: float
    loss_trace: tuple[tuple[int, float], ...]
    iteration: int
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
    if not c_k > 0:
        raise ValueError(f"c_k must be positive, got {c_k}")
    if delta.shape != lam.shape:
        raise ValueError(f"delta shape {delta.shape} does not match lam {lam.shape}")
    if not np.all(np.abs(delta) == 1.0):
        raise ValueError("delta entries must be +1 or -1")
    f_plus = float(f(lam + c_k * delta))
    f_minus = float(f(lam - c_k * delta))
    return (f_plus - f_minus) / (2.0 * c_k * delta)


def qka_align(cfg: KernelEngineConfig, X, y, C: float, spsa: SpsaConfig) -> AlignmentState:
    """Minimize the maximized SVM dual over the encoding parameters.

    SPSA starts from cfg.params. Each objective evaluation binds a candidate
    vector to cfg, builds the Gram on X, and solves the SVM dual at capacity
    C. Parameters move by lam <- lam - a_k * ghat with no projection, since
    every rotation angle is periodic.
    """
    X = np.asarray(X, dtype=float)
    lam = cfg.params.copy()

    rng = np.random.default_rng(rng_entropy(spsa.seed))
    sv_counts: list[int] = []
    best = {"loss": np.inf, "lam": lam.copy()}

    def objective(candidate: np.ndarray) -> float:
        bound = replace(cfg, params=np.asarray(candidate, dtype=float))
        loss, alphas = svc_loss(gram_matrix(bound, X), y, C)
        sv_counts.append(int(np.sum(alphas > SUPPORT_THRESHOLD)))
        if loss < best["loss"]:
            best["loss"] = loss
            best["lam"] = np.array(candidate, dtype=float)
        return loss

    trace: list[tuple[int, float]] = [(0, objective(lam))]
    for k in range(spsa.max_iter):
        a_k = spsa.a0 / (k + 1 + spsa.A_stab) ** SPSA_ALPHA
        c_k = spsa.c0 / (k + 1) ** SPSA_GAMMA
        delta = rng.integers(0, 2, size=lam.size).astype(float) * 2.0 - 1.0
        probes: list[float] = []

        def probe(candidate: np.ndarray) -> float:
            value = objective(candidate)
            probes.append(value)
            return value

        ghat = spsa_gradient(probe, lam, c_k, delta)
        lam = lam - a_k * ghat
        trace.append((k + 1, min(probes)))

    return AlignmentState(
        lam_current=lam,
        lam_best=best["lam"],
        loss_best=float(best["loss"]),
        loss_trace=tuple(trace),
        iteration=spsa.max_iter,
        sv_counts=tuple(sv_counts),
        seed=spsa.seed,
    )


# classical metric learning for kernel ridge regression


@dataclass(frozen=True, eq=False)
class MlkrrConfig:
    gamma: float = 1.0
    reg: float = 1e-6
    lr: float = 0.05
    outer_iters: int = 30

    def __post_init__(self) -> None:
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if self.reg < 0:
            raise ValueError(f"reg must be non-negative, got {self.reg}")
        if int(self.outer_iters) != self.outer_iters or self.outer_iters < 0:
            raise ValueError(
                f"outer_iters must be a non-negative integer, got {self.outer_iters}"
            )
        object.__setattr__(self, "outer_iters", int(self.outer_iters))


def mlkrr_loss(X, y, alpha, A, gamma: float, reg: float) -> float:
    """Ridge loss ||K_A alpha - y||^2 + reg * alpha^T K_A alpha."""
    y = np.asarray(y, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    K = classical_gram(ClassicalKernel.gaussian_metric(gamma, A), X).values
    r = K @ alpha - y
    return float(r @ r + reg * alpha @ K @ alpha)


def mlkrr_loss_gradient(X, y, alpha, A, gamma: float, reg: float) -> np.ndarray:
    """Gradient of mlkrr_loss with respect to the transformation matrix A.

    Each kernel entry differentiates as dk_ij/dA = -2 gamma k_ij A d_ij d_ij^T
    with d_ij = x_i - x_j; summing the chain rule over pairs collapses to a
    weighted pairwise-difference covariance, assembled here without forming
    any m^2 x d^2 intermediate.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    kernel = ClassicalKernel.gaussian_metric(gamma, A)
    K = classical_gram(kernel, X).values
    r = K @ alpha - y
    weights = 2.0 * np.outer(r, alpha) + reg * np.outer(alpha, alpha)
    S = weights * K
    row = S.sum(axis=1)
    col = S.sum(axis=0)
    diag_part = X.T @ (X * (row + col)[:, None])
    cross_part = X.T @ (S + S.T) @ X
    return -2.0 * gamma * kernel.transform @ (diag_part - cross_part)


def mlkrr_fit(X, y, cfg: MlkrrConfig) -> tuple[np.ndarray, TrainedKRR, list[float]]:
    """Alternate ridge solves for alpha with gradient steps on A, from A = I.

    Each round refits alpha on the current metric, then takes one gradient
    step on A at fixed alpha, halving the step up to 10 times if the loss
    would increase (and keeping A unchanged when every halving fails). The
    returned trace has one loss entry per round boundary, starting at the
    initial fit, and is non-increasing.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError(f"X must be a 2-D matrix with at least 2 rows, got shape {X.shape}")
    m, d = X.shape
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != m:
        raise ValueError(f"got {y.size} targets for {m} points")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("X and y must be finite")
    A = np.eye(d)

    def fit_alpha(current: np.ndarray) -> TrainedKRR:
        K = classical_gram(ClassicalKernel.gaussian_metric(cfg.gamma, current), X)
        # the bare values keep the saved model's kernel_id "precomputed"
        return krr_fit(K.values, y, cfg.reg)

    model = fit_alpha(A)
    trace = [mlkrr_loss(X, y, model.alphas, A, cfg.gamma, cfg.reg)]
    for _ in range(cfg.outer_iters):
        alpha = model.alphas
        base = trace[-1]
        grad = mlkrr_loss_gradient(X, y, alpha, A, cfg.gamma, cfg.reg)
        lr = cfg.lr
        for _ in range(10):
            candidate = A - lr * grad
            if mlkrr_loss(X, y, alpha, candidate, cfg.gamma, cfg.reg) <= base:
                A = candidate
                break
            lr /= 2.0
        model = fit_alpha(A)
        trace.append(mlkrr_loss(X, y, model.alphas, A, cfg.gamma, cfg.reg))
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
        lam = np.array(self.lam, dtype=float).reshape(-1)
        if lam.size != param_count(self.spec):
            raise ValueError(
                f"lam has length {lam.size}, spec needs {param_count(self.spec)}"
            )
        lam.flags.writeable = False
        object.__setattr__(self, "lam", lam)


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
        iterations=state.iteration,
    )
