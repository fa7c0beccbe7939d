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
    """Result of a quantum kernel alignment run.

    loss_trace holds (iteration, loss) rows: row 0 is the loss at the
    initial parameters, row k the smaller of the two probe evaluations of
    SPSA step k, so a run took len(loss_trace) - 1 steps. lam_best/loss_best
    track the best parameters over every objective evaluation, probes
    included. sv_counts records the number of support vectors seen at each
    evaluation, in order.
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
    labels with a larger margin. Parameters move by lam <- lam - a_k * ghat
    with no projection, since every rotation angle is periodic. A map whose
    kernel no angle can move is refused with a ValueError.
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
    sv_counts: list[int] = []
    best = {"loss": np.inf, "lam": lam.copy()}

    def objective(candidate: np.ndarray) -> float:
        bound = replace(cfg, params=np.asarray(candidate, dtype=float))
        model = svc_fit(gram_matrix(bound, X), y, C)
        sv_counts.append(int(model.support_indices.size))
        if model.dual_objective < best["loss"]:
            best["loss"] = model.dual_objective
            best["lam"] = np.array(candidate, dtype=float)
        return model.dual_objective

    trace: list[tuple[int, float]] = [(0, objective(lam))]
    for k in range(spsa.max_iter):
        a_k = spsa.a0 / (k + 1 + SPSA_A_STAB) ** SPSA_ALPHA
        c_k = SPSA_C0 / (k + 1) ** SPSA_GAMMA
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
        object.__setattr__(self, "gamma", _checks.positive(self.gamma, "gamma"))
        object.__setattr__(self, "reg", _checks.non_negative(self.reg, "reg"))
        object.__setattr__(self, "lr", _checks.positive(self.lr, "lr"))
        object.__setattr__(self, "outer_iters", _checks.whole(self.outer_iters, "outer_iters", 0))


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
    X = _checks.points(X, "X")
    m, d = X.shape
    if m < 2:
        raise ValueError(f"X must have at least 2 rows, got {m}")
    y = _checks.targets(y, m, "y")
    A = np.eye(d)

    def fit_alpha(current: np.ndarray) -> TrainedKRR:
        return krr_fit(classical_gram(ClassicalKernel.gaussian_metric(cfg.gamma, current), X),
                       y, cfg.reg)

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
