"""Independent brute-force references used by the test suite.

These are deliberately slow and written from the optimality conditions
rather than from the library's own algorithms. The gate-kernel, SMO and
classical-kernel references are the library's first straightforward
versions, kept so that a faster rewrite can be checked against them.
"""

import itertools
import math

import numpy as np

from qkflow.classical_kernels import _check_exponential_domain, _pair
from qkflow.kernel_methods import SMO_GAP, SMO_MAX_ITER, SUPPORT_THRESHOLD


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


def single_qubit_matrix_oracle(gate):
    """The 2x2 matrix of a one-qubit gate, one math.cos/math.sin call per entry."""
    kind = gate.kind
    if kind == "h":
        s = 1.0 / math.sqrt(2.0)
        return np.array([[s, s], [s, -s]], dtype=np.complex128)
    if kind == "x":
        return np.array([[0, 1], [1, 0]], dtype=np.complex128)
    if kind == "p":
        (theta,) = gate.params
        return np.array([[1.0, 0.0], [0.0, np.exp(1j * theta)]], dtype=np.complex128)
    if kind == "rx":
        (theta,) = gate.params
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)
    if kind == "ry":
        (theta,) = gate.params
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    if kind == "rz":
        (theta,) = gate.params
        return np.array(
            [[np.exp(-0.5j * theta), 0.0], [0.0, np.exp(0.5j * theta)]],
            dtype=np.complex128,
        )
    if kind == "u3":
        theta, phi, lam = gate.params
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        return np.array(
            [
                [c, -np.exp(1j * lam) * s],
                [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
            ],
            dtype=np.complex128,
        )
    raise ValueError(f"gate {kind!r} has no single-qubit matrix")


def apply_single_oracle(amps, q, u):
    """Apply a 2x2 matrix, or one per row, to qubit q of a (rows, 2**n) block
    in place, with temporaries for every product and sum."""
    rows, size = amps.shape
    view = amps.reshape(rows, size >> (q + 1), 2, 1 << q)
    u = u.reshape(-1, 1, 2, 2, 1)
    a0 = view[:, :, 0, :].copy()
    a1 = view[:, :, 1, :]
    view[:, :, 0, :] = u[:, :, 0, 0] * a0 + u[:, :, 0, 1] * a1
    view[:, :, 1, :] = u[:, :, 1, 0] * a0 + u[:, :, 1, 1] * a1


def apply_two_qubit_oracle(amps, kind, qubit_a, qubit_b):
    """cnot (control qubit_a, target qubit_b) or cz in place, on basis indices:
    cnot moves amplitude k to k with bit b flipped when bit a is set, cz
    negates every amplitude with both bits set."""
    index = np.arange(amps.shape[1])
    bit_a = (index >> qubit_a) & 1
    if kind == "cnot":
        amps[:] = amps[:, index ^ (bit_a << qubit_b)]
    else:
        amps[:, (bit_a & (index >> qubit_b) & 1).astype(bool)] *= -1.0


def _movable_oracle(a, z, C):
    up = ((z > 0) & (a < C)) | ((z < 0) & (a > 0))
    low = ((z > 0) & (a > 0)) | ((z < 0) & (a < C))
    return up, low


def smo_oracle(Q, z, r, C):
    """Maximal-violating-pair SMO for max sum z r a - 1/2 (a z)' Q (a z),
    0 <= a <= C, z . a = 0, rebuilding both candidate masks every step.

    Returns the multipliers, g = Q (a z) and the intercept, as the library's
    solver does.
    """
    a = np.zeros(z.size)
    g = np.zeros(z.size)
    for _ in range(SMO_MAX_ITER):
        score = r - g
        up, low = _movable_oracle(a, z, C)
        if not up.any() or not low.any():
            break
        i = int(np.flatnonzero(up)[np.argmax(score[up])])
        j = int(np.flatnonzero(low)[np.argmin(score[low])])
        gap = score[i] - score[j]
        if gap <= SMO_GAP:
            break
        quad = Q[i, i] + Q[j, j] - 2.0 * Q[i, j]
        quad = max(quad, 1e-12)
        head_i = C - a[i] if z[i] > 0 else a[i]
        head_j = a[j] if z[j] > 0 else C - a[j]
        t = min(gap / quad, head_i, head_j)
        a[i] += z[i] * t
        a[j] -= z[j] * t
        g += t * (Q[:, i] - Q[:, j])

    a = np.clip(a, 0.0, C)
    g = Q @ (a * z)
    score = r - g
    free = (a > SUPPORT_THRESHOLD) & (a < C - SUPPORT_THRESHOLD)
    if free.any():
        bias = float(np.mean(score[free]))
    else:
        up, low = _movable_oracle(a, z, C)
        bias = float((np.max(score[up]) + np.min(score[low])) / 2.0)
    return a, g, bias


def classical_entry_oracle(kernel, point_a, point_b):
    """One classical kernel entry from its two points alone, one np.dot per pair."""
    a, b = _pair(point_a, point_b)
    if kernel.kind == "linear":
        return float(np.dot(a, b) + kernel.c)
    if kernel.kind == "polynomial":
        return float((np.dot(a, b) + kernel.c) ** kernel.degree)
    if kernel.kind == "exponential":
        dot = np.array(np.dot(a, b), dtype=float)
        return float(_check_exponential_domain(dot, kernel.sigma))
    diff = a - b
    if kernel.transform is not None:
        if kernel.transform.shape[1] != a.size:
            raise ValueError(
                f"transform is {kernel.transform.shape[0]}x{kernel.transform.shape[1]} "
                f"but points have {a.size} features"
            )
        diff = kernel.transform @ diff
    return float(np.exp(-kernel.gamma * np.dot(diff, diff)))
