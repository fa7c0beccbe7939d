"""Independent brute-force references used by the test suite.

These are deliberately slow and written from the optimality conditions
rather than from the library's own algorithms. The gate-kernel, SMO and
classical-kernel references are the library's first straightforward
versions, kept so that a faster rewrite can be checked against them. The
encoding references simulate one point or one pair at a time from the
feature-map description, with no library gate code.
"""

import itertools
import math

import numpy as np

from qkflow.classical_kernels import _check_exponential_domain
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


def rotation_matrix_oracle(kind, theta):
    """The 2x2 matrix of a one-angle rotation, one math.cos/math.sin call per entry."""
    if kind == "p":
        return np.array([[1.0, 0.0], [0.0, np.exp(1j * theta)]], dtype=np.complex128)
    if kind == "rx":
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)
    if kind == "ry":
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    if kind == "rz":
        return np.array(
            [[np.exp(-0.5j * theta), 0.0], [0.0, np.exp(0.5j * theta)]],
            dtype=np.complex128,
        )
    raise ValueError(f"{kind!r} is not a one-angle rotation")


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


def apply_cnot_oracle(amps, control, target):
    """CNOT in place on basis indices: amplitude k moves to k with the target
    bit flipped when the control bit is set."""
    index = np.arange(amps.shape[1])
    amps[:] = amps[:, index ^ (((index >> control) & 1) << target)]


def encoding_oracle(spec, params, x, inverse=False):
    """The gates of U(x), or of U(x)^dag, as (kind, targets, angle) with one
    float angle per rotation and None for a CNOT, transcribed from the
    featuremap docstring: per layer l, trainable_axis(lambda[l n + q]) on
    every qubit q, then data_axis(data_scaling * x[(l n + q) mod d]) on every
    qubit q, then the CNOTs (q, q + 1) for a linear chain, plus (n - 1, 0) for
    a ring. The adjoint reverses the order and negates every angle."""
    n = spec.n_qubits
    gates = []
    for layer in range(spec.n_layers):
        for q in range(n):
            gates.append((spec.trainable_axis, (q,), float(params[layer * n + q])))
        for q in range(n):
            feature = float(x[(layer * n + q) % len(x)])
            gates.append((spec.data_axis, (q,), spec.data_scaling * feature))
        if spec.entanglement != "none" and n > 1:
            gates.extend(("cnot", (q, q + 1), None) for q in range(n - 1))
            if spec.entanglement == "ring":
                gates.append(("cnot", (n - 1, 0), None))
    if inverse:
        return [(kind, t, None if a is None else -a) for kind, t, a in reversed(gates)]
    return gates


def run_gates_oracle(amps, gates):
    """Apply (kind, targets, angle) gates in place to every row of a block."""
    for kind, targets, angle in gates:
        if kind == "cnot":
            apply_cnot_oracle(amps, *targets)
        else:
            apply_single_oracle(amps, targets[0], rotation_matrix_oracle(kind, angle))


def state_oracle(spec, params, x):
    """U(x)|0...0> as a (1, 2**n) block, simulated gate by gate."""
    amps = np.zeros((1, 1 << spec.n_qubits), dtype=np.complex128)
    amps[0, 0] = 1.0
    run_gates_oracle(amps, encoding_oracle(spec, params, x))
    return amps


def inversion_oracle(spec, params, xa, xb):
    """One inversion test: U(xb)^dag U(xa)|0...0>, then |amplitude 0|^2."""
    amps = state_oracle(spec, params, xa)
    run_gates_oracle(amps, encoding_oracle(spec, params, xb, inverse=True))
    return abs(complex(amps[0, 0])) ** 2


def swap_oracle(spec, params, xa, xb):
    """One swap-test fidelity: |<b|a>|^2 of two separately simulated states."""
    overlap = np.vdot(state_oracle(spec, params, xb), state_oracle(spec, params, xa))
    return abs(complex(overlap)) ** 2


def one_layer_gram_oracle(spec, params, X):
    """Closed-form Gram matrix of a one-layer feature map.

    With one layer, U(x) = E D(x) T, where T = (x)_q T(lambda_q) is the
    trainable layer, D(x) = (x)_q R_a(s x_q) the data layer on axis a, with
    s = data_scaling and x_q = x[q mod d], and E the CNOT entangler, which does
    not depend on x. E cancels in <psi(x')|psi(x)>, and rotations about one
    axis compose, so the overlap is a product over qubits of
    <phi_q| R_a(s (x_q - x'_q)) |phi_q> with phi_q = T(lambda_q)|0>. Since
    R_a(t) = cos(t/2) I - i sin(t/2) sigma_a, that factor is
    cos(t/2) - i sin(t/2) b_q, where b_q = <phi_q|sigma_a|phi_q> is the
    a-component of the Bloch vector of phi_q:

        ry(l)|0>: (sin l, 0, cos l)    rx(l)|0>: (0, -sin l, cos l)
        rz(l)|0> and p(l)|0>: (0, 0, 1)

    Hence k(x, x') = prod_q [1 - sin^2(s (x_q - x'_q) / 2) (1 - b_q^2)].
    """
    X = np.asarray(X, dtype=float)
    n = spec.n_qubits
    if spec.n_layers != 1:
        raise ValueError("the closed form holds for one layer only")
    bloch = {
        "ry": lambda lam: (math.sin(lam), 0.0, math.cos(lam)),
        "rx": lambda lam: (0.0, -math.sin(lam), math.cos(lam)),
        "rz": lambda lam: (0.0, 0.0, 1.0),
        "p": lambda lam: (0.0, 0.0, 1.0),
    }[spec.trainable_axis]
    axis = "xyz".index(spec.data_axis[1])
    b = np.array([bloch(float(lam))[axis] for lam in params])
    cols = X[:, np.arange(n) % X.shape[1]]
    half = spec.data_scaling * (cols[:, None, :] - cols[None, :, :]) / 2.0
    return np.prod(1.0 - np.sin(half) ** 2 * (1.0 - b ** 2), axis=2)


def _movable_oracle(a, z, C):
    up = ((z > 0) & (a < C)) | ((z < 0) & (a > 0))
    low = ((z > 0) & (a > 0)) | ((z < 0) & (a < C))
    return up, low


def _smo_steps_oracle(Q, z, r, C, second_order):
    """At most SMO_MAX_ITER SMO steps from a = 0, rebuilding both candidate
    masks every step. i maximizes score = r - g over the up set and j
    minimizes it over the low set. With second_order, the step keeps i and
    takes the low-set partner k of largest b^2 / quad, b = score_i - score_k
    > 0, quad = Q_ii + Q_kk - 2 Q_ik floored at 1e-12 (WSS2 of Fan, Chen &
    Lin, 2005), or keeps j and takes the up-set partner of largest gain
    with b = score_k - score_j and quad = Q_jj + Q_kk - 2 Q_jk, whichever
    gain is larger; on a tie, the pair of smaller sorted indices. Returns
    the multipliers and whether the violation fell to SMO_GAP."""
    a = np.zeros(z.size)
    g = np.zeros(z.size)
    for _ in range(SMO_MAX_ITER):
        score = r - g
        up, low = _movable_oracle(a, z, C)
        if not up.any() or not low.any():
            return a, True
        i = int(np.flatnonzero(up)[np.argmax(score[up])])
        j = int(np.flatnonzero(low)[np.argmin(score[low])])
        gap = score[i] - score[j]
        if gap <= SMO_GAP:
            return a, True
        if second_order:
            partners = np.flatnonzero(low & (score[i] - score > 0))
            b = score[i] - score[partners]
            quad = np.maximum(Q[i, i] + Q[partners, partners] - 2.0 * Q[i, partners], 1e-12)
            best = int(np.argmax(b * b / quad))
            keep_i = ((i, int(partners[best])), (b * b / quad)[best])
            partners = np.flatnonzero(up & (score - score[j] > 0))
            b = score[partners] - score[j]
            quad = np.maximum(Q[j, j] + Q[partners, partners] - 2.0 * Q[j, partners], 1e-12)
            best = int(np.argmax(b * b / quad))
            keep_j = ((int(partners[best]), j), (b * b / quad)[best])
            if keep_i[1] != keep_j[1]:
                i, j = max(keep_i, keep_j, key=lambda pair: pair[1])[0]
            else:
                i, j = min(keep_i, keep_j, key=lambda pair: sorted(pair[0]))[0]
            gap = score[i] - score[j]
        quad = Q[i, i] + Q[j, j] - 2.0 * Q[i, j]
        quad = max(quad, 1e-12)
        head_i = C - a[i] if z[i] > 0 else a[i]
        head_j = a[j] if z[j] > 0 else C - a[j]
        t = min(gap / quad, head_i, head_j)
        a[i] += z[i] * t
        a[j] -= z[j] * t
        g += t * (Q[:, i] - Q[:, j])
    return a, False


def _smo_passes_oracle(Q, z, r, C):
    """First-order pairs from a = 0 and, if they hit the cap, second-order
    pairs from a = 0 again; the multipliers clipped to [0, C]."""
    a, converged = _smo_steps_oracle(Q, z, r, C, second_order=False)
    if not converged:
        a, _ = _smo_steps_oracle(Q, z, r, C, second_order=True)
    return np.clip(a, 0.0, C)


def _intercept_oracle(a, g, z, r, C):
    score = r - g
    free = (a > SUPPORT_THRESHOLD) & (a < C - SUPPORT_THRESHOLD)
    if free.any():
        return float(np.mean(score[free]))
    # each multiplier at its nearer bound
    up, low = _movable_oracle(np.where(a < C / 2.0, 0.0, C), z, C)
    return float((np.max(score[up]) + np.min(score[low])) / 2.0)


def smo_oracle(Q, z, r, C):
    """SMO for max sum z r a - 1/2 (a z)' Q (a z), 0 <= a <= C, z . a = 0.

    Returns the multipliers, g = Q (a z) and the intercept, as the library's
    solver does.
    """
    a = _smo_passes_oracle(Q, z, r, C)
    g = Q @ (a * z)
    return a, g, _intercept_oracle(a, g, z, r, C)


def svr_smo_oracle(K, targets, C, epsilon):
    """svr_fit through the oracle's SMO passes: the 2m-variable dual on
    Q = [[K, K], [K, K]] over the targets less their lower median, which the
    intercept gets back. The final products are taken once per point,
    K (alpha - alpha*), and read by both of its multipliers. Returns the
    coefficients and the intercept."""
    targets = np.asarray(targets, dtype=float)
    m = targets.size
    offset = np.sort(targets)[(m - 1) // 2]
    z = np.concatenate([np.ones(m), -np.ones(m)])
    r = np.concatenate([targets - offset - epsilon, targets - offset + epsilon])
    a = _smo_passes_oracle(np.tile(K, (2, 2)), z, r, C)
    coef = a[:m] - a[m:]
    g = K @ coef
    return coef, _intercept_oracle(a, np.concatenate([g, g]), z, r, C) + offset


def classical_entry_oracle(kernel, point_a, point_b):
    """One classical kernel entry from its two points alone, one np.dot per pair."""
    a = np.asarray(point_a, dtype=float).reshape(-1)
    b = np.asarray(point_b, dtype=float).reshape(-1)
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
