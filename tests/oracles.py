"""Independent brute-force references used by the test suite.

These are deliberately slow and written from the optimality conditions
rather than from the library's own algorithms.
"""

import itertools

import numpy as np


def svc_dual_oracle(K, y, C, tol=1e-9):
    """Globally solve the SVM dual for tiny problems by active-set enumeration.

    Every multiplier is either 0, C, or free. For each of the 3^m patterns
    the free block plus the equality constraint gives a linear system; the
    best feasible stationary point is the global optimum of the concave dual.
    Returns (alphas, objective).
    """
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    m = y.size
    best_obj = -np.inf
    best_alpha = None
    for pattern in itertools.product((0, 1, 2), repeat=m):
        free = [i for i in range(m) if pattern[i] == 2]
        alpha = np.array([C if pattern[i] == 1 else 0.0 for i in range(m)])
        nf = len(free)
        if nf:
            A = np.zeros((nf + 1, nf + 1))
            b = np.zeros(nf + 1)
            for r, i in enumerate(free):
                for c, j in enumerate(free):
                    A[r, c] = y[j] * K[i, j]
                A[r, nf] = 1.0
                b[r] = y[i] - sum(alpha[j] * y[j] * K[i, j] for j in range(m) if pattern[j] != 2)
            A[nf, :nf] = y[free]
            b[nf] = -sum(alpha[j] * y[j] for j in range(m) if pattern[j] != 2)
            sol, residual, *_ = np.linalg.lstsq(A, b, rcond=None)
            if np.max(np.abs(A @ sol - b)) > 1e-8:
                continue
            alpha[free] = sol[:nf]
        if np.any(alpha < -tol) or np.any(alpha > C + tol):
            continue
        alpha = np.clip(alpha, 0.0, C)
        if abs(np.dot(alpha, y)) > 1e-8:
            continue
        obj = alpha.sum() - 0.5 * np.einsum("i,j,ij->", alpha * y, alpha * y, K)
        if obj > best_obj:
            best_obj = obj
            best_alpha = alpha
    return best_alpha, best_obj


def svc_kkt_violation(K, y, alphas, bias, C):
    """Largest violation of the KKT margin conditions at a candidate solution.

    With bias=None the certificate multiplier is chosen for the caller: the
    dual alphas are optimal iff SOME intercept satisfies the margin system,
    so the midpoint of the feasible intercept interval is used.
    """
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    g = K @ (alphas * y)
    if bias is None:
        lower, upper = -np.inf, np.inf
        for i in range(y.size):
            target = y[i] - g[i]
            if alphas[i] < 1e-8:
                at_zero = True
            elif alphas[i] > C - 1e-8:
                at_zero = False
            else:
                lower = max(lower, target)
                upper = min(upper, target)
                continue
            if (y[i] > 0) == at_zero:
                lower = max(lower, target)
            else:
                upper = min(upper, target)
        if not np.isfinite(lower):
            lower = upper
        if not np.isfinite(upper):
            upper = lower
        bias = 0.5 * (lower + upper)
    margins = y * (g + bias)
    worst = 0.0
    for i in range(y.size):
        if alphas[i] < 1e-8:
            worst = max(worst, 1.0 - margins[i])
        elif alphas[i] > C - 1e-8:
            worst = max(worst, margins[i] - 1.0)
        else:
            worst = max(worst, abs(margins[i] - 1.0))
    return worst


def svr_kkt_violation(K, y, beta, bias, C, epsilon):
    """Largest violation of the epsilon-SVR optimality conditions.

    With residual s_i = y_i - f(x_i) and f = K beta + bias, an optimal
    solution has beta_i = 0 inside the tube (|s_i| <= eps), beta_i = C above
    it (s_i >= eps), beta_i = -C below it (s_i <= -eps) and 0 < |beta_i| < C
    only on an edge (s_i = eps sign(beta_i)); also sum beta = 0, |beta| <= C.
    """
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    beta = np.asarray(beta, dtype=float)
    slack = y - (K @ beta + bias)
    worst = max(abs(beta.sum()), float(np.max(np.abs(beta))) - C, 0.0)
    for i in range(y.size):
        if abs(beta[i]) < 1e-8:
            worst = max(worst, abs(slack[i]) - epsilon)
        elif beta[i] > C - 1e-8:
            worst = max(worst, epsilon - slack[i])
        elif beta[i] < -C + 1e-8:
            worst = max(worst, slack[i] + epsilon)
        else:
            worst = max(worst, abs(slack[i] - epsilon * np.sign(beta[i])))
    return worst


def svr_dual_objective(K, y, beta, epsilon):
    """Value of the epsilon-insensitive regression dual at beta."""
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(beta @ y - epsilon * np.abs(beta).sum() - 0.5 * beta @ K @ beta)


def two_blobs(m_per_blob, spread, seed):
    """Two Gaussian point clouds in the plane with +1/-1 labels."""
    rng = np.random.default_rng(seed)
    a = rng.normal(loc=(-2.0, 0.0), scale=spread, size=(m_per_blob, 2))
    b = rng.normal(loc=(2.0, 0.0), scale=spread, size=(m_per_blob, 2))
    X = np.vstack([a, b])
    y = np.concatenate([np.full(m_per_blob, 1.0), np.full(m_per_blob, -1.0)])
    return X, y
