"""Kernel machines over precomputed Gram matrices.

Every fit function takes a square training Gram (a GramMatrix or a plain
array) and returns a small trained-model record that holds the fitted
numbers alone; which kernel made the Gram is recorded once, by the caller
(a model file's kernel descriptor). Prediction functions take rectangular
new-versus-training kernel blocks. Nothing here evaluates kernels, so
quantum and classical kernels plug in interchangeably.

The SVC and the SVR share one SMO solver for the box-constrained dual

    max_a  sum_k z_k r_k a_k - 1/2 sum_kl a_k a_l z_k z_l K_(k mod m)(l mod m)
    s.t.   0 <= a_k <= C,  sum_k z_k a_k = 0,  z_k = +-1,

whose multiplier k, one of sides * m, reads point k mod m of the m x m
Gram K. It updates the maximally KKT-violating pair. On some rank-deficient
Grams those pairs zigzag with the violation stuck just above the stopping
gap; when SMO_MAX_ITER such steps do not converge, the solver starts again
and keeps one end of that pair, whichever gives the larger second-order
gain, and picks the other end by its gain. Both passes treat the two ends
alike, so on a symmetric K negating z and r mirrors every step bit for
bit. The SVC is one side, z = r = y. The epsilon-insensitive SVR is, as in
LIBSVM, two sides (alpha, alpha*) of one Gram: z = [1, -1],
r = [y - eps, y + eps] and coefficients alpha - alpha*; y is taken less its
lower median, which the intercept gets back. KRR solves (K + reg I) a = y
directly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import _checks
from .qkernel import GramMatrix

__all__ = [
    "SUPPORT_THRESHOLD",
    "TrainedSVC",
    "TrainedKRR",
    "TrainedSVR",
    "KpcaModel",
    "svc_fit",
    "svc_decision",
    "svc_predict",
    "krr_fit",
    "krr_predict",
    "svr_fit",
    "svr_predict",
    "kpca_fit",
    "kernel_kmeans",
]

SUPPORT_THRESHOLD = 1e-9

# SMO stops once the maximal KKT violation is at most SMO_GAP; SMO_MAX_ITER
# bounds the steps of each of its two passes
SMO_GAP = 1e-6
SMO_MAX_ITER = 200_000


def _gram_values(K) -> np.ndarray:
    values = _checks.square(K.values if isinstance(K, GramMatrix) else K, "K")
    if np.max(np.abs(values - values.T)) > 1e-8:
        raise ValueError("K is not symmetric")
    return values


def _cross_values(K_new, m: int, name: str = "K_new") -> np.ndarray:
    if isinstance(K_new, GramMatrix):
        K_new = K_new.values
    values = np.asarray(K_new, dtype=float)
    if values.ndim == 1:
        values = values.reshape(1, -1)
    if values.ndim != 2 or values.shape[1] != m:
        raise ValueError(
            f"{name} must have one column per training point ({m}), got shape {values.shape}"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} contains non-finite entries")
    return values


def _binary_labels(y, m: int) -> np.ndarray:
    labels = _checks.targets(y, m, "labels")
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ValueError("labels must be exactly +1 or -1")
    if np.all(labels == 1.0) or np.all(labels == -1.0):
        raise ValueError("labels must hold both classes, +1 and -1")
    return labels


def _within(values, low: float, high: float, name: str) -> None:
    if not np.all((low <= values) & (values <= high)):
        raise ValueError(f"{name} must lie in [{low:g}, {high:g}]")


# support vector classification


@dataclass(frozen=True, eq=False)
class TrainedSVC:
    alphas: np.ndarray
    labels: np.ndarray
    bias: float
    C: float
    dual_objective: float

    def check(self) -> None:
        """Raise ValueError, naming the field, unless svc_fit could return this
        record; model_io checks every record it loads."""
        _binary_labels(self.labels, np.size(self.labels))
        _within(self.alphas, 0.0, _checks.positive(self.C, "C"), "alphas")

    @property
    def support_indices(self) -> np.ndarray:
        """Indices of the multipliers above SUPPORT_THRESHOLD."""
        return np.flatnonzero(self.alphas > SUPPORT_THRESHOLD)


def _movable(a, z, C: float):
    """Masks of the multipliers that can move up (z_i a_i rises) and down."""
    up = ((z > 0) & (a < C)) | ((z < 0) & (a > 0))
    low = ((z > 0) & (a > 0)) | ((z < 0) & (a < C))
    return up, low


def _second_order_pair(K: np.ndarray, i: int, j: int, score_up: np.ndarray,
                       score_low: np.ndarray) -> tuple[int, int]:
    """The pair of largest second-order gain b^2 / quad, with
    b = score_up[p] - score_low[q] > 0 and quad = Q_pp + Q_qq - 2 Q_pq floored
    at 1e-12, Q_pq = K_(p mod m)(q mod m), that keeps i, the maximal violator
    that can move up, or j, the maximal violator that can move down
    (``score_up`` is -inf and ``score_low`` +inf where a multiplier cannot
    move that way): WSS2 of Fan, Chen & Lin, JMLR 6 (2005), from either end.
    Within one end the first index wins ties; between the two ends, the pair
    of smaller sorted indices, so that swapping the ends swaps the choice."""
    m, sides = len(K), score_up.size // len(K)
    diag = np.tile(K.diagonal(), sides)

    def best(fixed: int, b: np.ndarray) -> tuple[int, float]:
        quad = np.maximum(diag[fixed] + diag - 2.0 * np.tile(K[fixed % m], sides), 1e-12)
        gain = np.where(b > 0.0, b * b / quad, -np.inf)
        k = int(gain.argmax())
        return k, gain.item(k)

    low, gain_low = best(i, score_up.item(i) - score_low)
    up, gain_up = best(j, score_up - score_low.item(j))
    if gain_low > gain_up or (gain_low == gain_up and sorted((i, low)) <= sorted((up, j))):
        return i, low
    return up, j


def _smo_steps(K: np.ndarray, z: np.ndarray, r: np.ndarray, C: float,
               second_order: bool) -> tuple[list[float], bool]:
    """At most SMO_MAX_ITER SMO steps from a = 0, each on the maximally
    KKT-violating pair or, with ``second_order``, on the pair of
    _second_order_pair. Returns the multipliers and whether the
    violation fell to SMO_GAP before the cap.

    A first-order step allocates nothing. ``up_r`` holds r_k where
    multiplier k can move up and -inf elsewhere, ``low_r`` holds r_k where
    it can move down and +inf elsewhere, so ``up_r - g`` and ``low_r - g``
    equal np.where(up, r - g, -inf) and np.where(low, r - g, inf) entry for
    entry, first-index ties included. Only the entries of the pair that
    moved change after a step, and every scalar of a step is a Python float.
    Column k of Q is column k mod m of K repeated once per side; the m such
    columns are held once and shared by every side.
    """
    n, sides = z.size, z.size // len(K)
    # out= keeps C order, so that cols[k], which is Q[:, k], is contiguous
    cols = list(np.concatenate((K.T,) * sides, axis=1, out=np.empty((len(K), n)))) * sides
    diag = K.diagonal().tolist() * sides
    zs, rs = z.tolist(), r.tolist()
    a = [0.0] * n
    g = np.zeros(n)  # g_k = sum_l a_l z_l Q_kl
    up, low = _movable(np.zeros(n), z, C)
    up_r, low_r = np.where(up, r, -np.inf), np.where(low, r, np.inf)
    # -z_i grad_i of the minimization form where multiplier i can move, or +-inf
    score_up, score_low, step = np.empty(n), np.empty(n), np.empty(n)
    for _ in range(SMO_MAX_ITER):
        np.subtract(up_r, g, score_up)
        np.subtract(low_r, g, score_low)
        i = int(score_up.argmax())  # the first index on ties
        j = int(score_low.argmin())
        # (r_i - g_i) - (r_j - g_j); -inf when the up or the low set is empty
        gap = score_up.item(i) - score_low.item(j)
        if gap <= SMO_GAP:
            return a, True
        if second_order:
            i, j = _second_order_pair(K, i, j, score_up, score_low)
            gap = score_up.item(i) - score_low.item(j)  # the pair's own violation
        quad = diag[i] + diag[j] - 2.0 * cols[j].item(i)
        quad = max(quad, 1e-12)
        # move t along the feasible pair direction: a_i += z_i t, a_j -= z_j t
        zi, zj = zs[i], zs[j]
        head_i = C - a[i] if zi > 0 else a[i]
        head_j = a[j] if zj > 0 else C - a[j]
        t = min(gap / quad, head_i, head_j)
        ai = a[i] = a[i] + zi * t
        aj = a[j] = a[j] - zj * t
        np.subtract(cols[i], cols[j], step)
        np.multiply(step, t, step)
        np.add(g, step, g)  # g += t (Q[:, i] - Q[:, j])
        # _movable's two flags of each moved multiplier
        up_r[i] = rs[i] if (ai < C if zi > 0 else ai > 0) else -np.inf
        low_r[i] = rs[i] if (ai > 0 if zi > 0 else ai < C) else np.inf
        up_r[j] = rs[j] if (aj < C if zj > 0 else aj > 0) else -np.inf
        low_r[j] = rs[j] if (aj > 0 if zj > 0 else aj < C) else np.inf
    return a, False


def _smo(K: np.ndarray, z: np.ndarray, r: np.ndarray, C: float,
         caller: str) -> tuple[np.ndarray, np.ndarray, float]:
    """Solve max_a sum_k z_k r_k a_k - 1/2 sum_kl a_k a_l z_k z_l Q_kl
    subject to 0 <= a_k <= C and sum_k z_k a_k = 0, with every z_k = +-1
    and Q_kl = K_(k mod m)(l mod m) on the m x m Gram K.

    First-order SMO from a = 0; if it hits its cap, second-order SMO from
    a = 0 again. Returns the multipliers, the products g = Q (a z), taken
    once per point and repeated once per side, and the intercept b of the
    decision sum_l a_l z_l Q_kl + b: the mean of r_k - g_k over the free
    multipliers or, with none free, the midpoint of the interval the KKT
    conditions leave open with each multiplier at its nearer bound.
    """
    a, converged = _smo_steps(K, z, r, C, second_order=False)
    if not converged:
        # first-order pairs can zigzag along a flat direction of a
        # rank-deficient Gram with the violation just above SMO_GAP; the
        # second-order pass starts afresh, since from that point it crawls too
        a, converged = _smo_steps(K, z, r, C, second_order=True)
    if not converged:
        warnings.warn(f"{caller} hit the iteration cap before reaching tolerance")

    a = np.clip(a, 0.0, C)
    g = np.tile(K @ (a * z).reshape(-1, len(K)).sum(axis=0), z.size // len(K))
    score = r - g
    free = (a > SUPPORT_THRESHOLD) & (a < C - SUPPORT_THRESHOLD)
    if free.any():
        bias = float(np.mean(score[free]))
    else:
        # KKT: b >= score_i over the up set and b <= score_i over the low set.
        # Every multiplier is within SUPPORT_THRESHOLD of a bound and counts
        # as at it: a residue such as C - 2e-18 would otherwise put it in both
        # sets and pin the interval to its own score
        up, low = _movable(np.where(a < C / 2.0, 0.0, C), z, C)
        bias = float((np.max(score[up]) + np.min(score[low])) / 2.0)
    return a, g, bias


def svc_fit(K, y, C: float) -> TrainedSVC:
    """Train a soft-margin SVM on a precomputed Gram matrix."""
    values = _gram_values(K)
    m = values.shape[0]
    labels = _binary_labels(y, m)
    C = _checks.positive(C, "C")

    alpha, g, bias = _smo(values, labels, labels, C, "svc_fit")
    objective = float(alpha.sum() - 0.5 * np.dot(alpha * labels, g))
    alpha.flags.writeable = False
    return TrainedSVC(alphas=alpha, labels=labels, bias=bias, C=C, dual_objective=objective)


def svc_decision(model: TrainedSVC, K_new) -> np.ndarray:
    """Decision values sum_i a_i y_i K(x, x_i) + b for each row of K_new."""
    values = _cross_values(K_new, model.alphas.size)
    return values @ (model.alphas * model.labels) + model.bias


def svc_predict(model: TrainedSVC, K_new) -> np.ndarray:
    """Class predictions in {-1, +1}; a decision value of 0 maps to +1."""
    return np.where(svc_decision(model, K_new) >= 0.0, 1.0, -1.0)


# kernel ridge regression


@dataclass(frozen=True, eq=False)
class TrainedKRR:
    alphas: np.ndarray
    reg: float

    def check(self) -> None:
        """Raise ValueError, naming the field, unless krr_fit could return this
        record; model_io checks every record it loads."""
        _checks.non_negative(self.reg, "reg")


def krr_fit(K, y, reg: float) -> TrainedKRR:
    """Solve (K + reg I) a = y through a symmetric positive-definite factorization."""
    values = _gram_values(K)
    m = values.shape[0]
    targets = _checks.targets(y, m, "y")
    reg = _checks.non_negative(reg, "reg")
    system = values + reg * np.eye(m)
    try:
        lower = np.linalg.cholesky(system)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"kernel system is singular: K + reg*I is not positive definite at reg={reg:g}"
        ) from exc

    def solve(rhs: np.ndarray) -> np.ndarray:
        return np.linalg.solve(lower.T, np.linalg.solve(lower, rhs))

    alpha = solve(targets)
    # one refinement pass keeps the residual at solver precision
    residual = targets - system @ alpha
    if np.max(np.abs(residual)) > 1e-11:
        alpha = alpha + solve(residual)
    alpha.flags.writeable = False
    return TrainedKRR(alphas=alpha, reg=reg)


def krr_predict(model: TrainedKRR, K_new) -> np.ndarray:
    values = _cross_values(K_new, model.alphas.size)
    return values @ model.alphas


# epsilon-insensitive support vector regression


@dataclass(frozen=True, eq=False)
class TrainedSVR:
    coef: np.ndarray  # beta_i = alpha_i - alpha*_i
    bias: float
    epsilon: float
    C: float

    def check(self) -> None:
        """Raise ValueError, naming the field, unless svr_fit could return this
        record; model_io checks every record it loads."""
        _checks.non_negative(self.epsilon, "epsilon")
        C = _checks.positive(self.C, "C")
        _within(self.coef, -C, C, "coef")


def svr_fit(K, y, C: float, epsilon: float) -> TrainedSVR:
    """Train epsilon-insensitive SVR by SMO on its 2m-variable dual."""
    values = _gram_values(K)
    m = values.shape[0]
    targets = _checks.targets(y, m, "y")
    C = _checks.positive(C, "C")
    epsilon = _checks.non_negative(epsilon, "epsilon")

    # the intercept absorbs a common offset, so SMO runs on the targets less
    # their lower median, one of them: shifting every target exactly then
    # leaves every step's bits, and the scores r - g keep the digits of the
    # targets' spread rather than of their offset
    offset = np.partition(targets, (m - 1) // 2).item((m - 1) // 2)
    centered = targets - offset
    z = np.concatenate([np.ones(m), -np.ones(m)])
    r = np.concatenate([centered - epsilon, centered + epsilon])
    a, _, bias = _smo(values, z, r, C, "svr_fit")
    beta = a[:m] - a[m:]
    beta.flags.writeable = False
    return TrainedSVR(coef=beta, bias=bias + offset, epsilon=epsilon, C=C)


def svr_predict(model: TrainedSVR, K_new) -> np.ndarray:
    values = _cross_values(K_new, model.coef.size)
    return values @ model.coef + model.bias


# kernel principal component analysis


@dataclass(frozen=True, eq=False)
class KpcaModel:
    eigenvalues: np.ndarray  # kept components, descending
    train_projections: np.ndarray  # one column per kept component


EIGENVALUE_CUTOFF = 1e-10


def kpca_fit(K, n_components: int) -> KpcaModel:
    """Eigendecompose the doubly centered Gram and keep the top components."""
    values = _gram_values(K)
    n_components = _checks.whole(n_components, "n_components", 1)
    col_means = values.mean(axis=0)
    centered = values - col_means[None, :] - col_means[:, None] + float(values.mean())
    eigenvalues, eigenvectors = np.linalg.eigh((centered + centered.T) / 2.0)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    eigenvectors = eigenvectors[:, order]
    available = int(np.sum(eigenvalues > EIGENVALUE_CUTOFF))
    if n_components > available:
        raise ValueError(
            f"requested {n_components} components but the centered kernel "
            f"has rank {available}"
        )
    kept_values = eigenvalues[:n_components]
    projections = centered @ eigenvectors[:, :n_components] / np.sqrt(kept_values)
    return KpcaModel(eigenvalues=kept_values, train_projections=projections)


# kernel k-means

KMEANS_MAX_ITER = 100  # Lloyd rounds after the kmeans++ start


def kernel_kmeans(K, n_clusters: int, seed: int) -> tuple[np.ndarray, list[float]]:
    """Lloyd iterations with implicit feature-space centroids.

    Squared distance of point i to the centroid of cluster c is
    K_ii - (2/|c|) sum_{j in c} K_ij + (1/|c|^2) sum_{j,l in c} K_jl.
    Initial centers come from a seeded kmeans++ pass on kernel distances;
    clusters that empty out are re-seeded with the farthest point. Returns
    the assignment and the objective after each of at most KMEANS_MAX_ITER
    rounds, starting at the initial assignment.
    """
    values = _gram_values(K)
    m = values.shape[0]
    n_clusters = _checks.whole(n_clusters, "n_clusters", 1, m)
    rng = np.random.default_rng(_checks.rng_entropy(seed))
    diag = np.diag(values).copy()

    def point_dists(index: int) -> np.ndarray:
        return np.maximum(diag + diag[index] - 2.0 * values[:, index], 0.0)

    chosen = [int(rng.integers(m))]
    closest = point_dists(chosen[0])
    while len(chosen) < n_clusters:
        total = closest.sum()
        if total <= 1e-15:
            nxt = next(i for i in range(m) if i not in chosen)
        else:
            nxt = int(rng.choice(m, p=closest / total))
        chosen.append(nxt)
        closest = np.minimum(closest, point_dists(nxt))

    centers = np.asarray(chosen)
    assign = np.argmin(
        diag[:, None] + diag[centers][None, :] - 2.0 * values[:, centers], axis=1
    )

    def centroid_dists(assignment: np.ndarray) -> np.ndarray:
        dists = np.full((m, n_clusters), np.inf)
        for c in range(n_clusters):
            members = np.flatnonzero(assignment == c)
            if members.size == 0:
                continue
            sums = values[:, members].sum(axis=1)
            total = values[np.ix_(members, members)].sum()
            dists[:, c] = diag - 2.0 * sums / members.size + total / members.size**2
        return np.maximum(dists, 0.0)

    def repair_empty(assignment: np.ndarray) -> np.ndarray:
        assignment = assignment.copy()
        while True:
            present = set(assignment.tolist())
            empty = [c for c in range(n_clusters) if c not in present]
            if not empty:
                return assignment
            dists = centroid_dists(assignment)
            contrib = dists[np.arange(m), assignment]
            sizes = np.bincount(assignment, minlength=n_clusters)
            movable = sizes[assignment] >= 2
            candidates = np.flatnonzero(movable)
            farthest = int(candidates[np.argmax(contrib[candidates])])
            assignment[farthest] = empty[0]

    assign = repair_empty(assign)
    dists = centroid_dists(assign)
    trace = [float(dists[np.arange(m), assign].sum())]
    for _ in range(KMEANS_MAX_ITER):
        new_assign = repair_empty(np.argmin(dists, axis=1))
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        dists = centroid_dists(assign)
        trace.append(float(dists[np.arange(m), assign].sum()))
    return assign, trace
