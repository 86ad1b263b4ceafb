"""Independent oracles used to freeze expected values: derivative-free 1-d
minimization, brute-force proximal maps, closed-form 2x2 eigenvalues, and
random members of the subdifferential graph per regularizer family.

Everything here is deliberately written against raw numpy/scipy primitives,
not the library code paths it checks.
"""

import itertools
import math

import numpy as np
from scipy.optimize import minimize

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(f, lo, hi, tol=1e-12):
    """Argmin of a unimodal function on [lo, hi]."""
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def eig_2x2_sym(M):
    """Eigenvalues of a symmetric 2x2 matrix by the quadratic formula,
    descending."""
    a, b, c = M[0, 0], M[0, 1], M[1, 1]
    tr, det = a + c, a * c - b * b
    disc = math.sqrt(max(tr * tr - 4.0 * det, 0.0))
    return np.array([(tr + disc) / 2.0, (tr - disc) / 2.0])


# ---------------------------------------------------------------------------
# prox oracles: minimize ½‖v − z‖² + P(v) by brute force
# ---------------------------------------------------------------------------

def prox_l1_oracle(z, lam):
    span = np.max(np.abs(z)) + lam + 1.0
    return np.array([
        golden_section(lambda v: 0.5 * (v - zi) ** 2 + lam * abs(v), -span, span)
        for zi in z
    ])


def prox_ridge_oracle(z, lam):
    span = np.max(np.abs(z)) + 1.0
    return np.array([
        golden_section(lambda v: 0.5 * (v - zi) ** 2 + lam * v * v, -span, span)
        for zi in z
    ])


def prox_group_oracle(z, groups, weights):
    out = np.zeros_like(z)
    for J, w in zip(groups, weights):
        zj = z[J]

        def objective(v):
            return 0.5 * np.sum((v - zj) ** 2) + w * np.linalg.norm(v)

        res = minimize(objective, zj, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000})
        candidates = [res.x, np.zeros_like(zj)]
        out[J] = min(candidates, key=objective)
    return out


def prox_nuclear_oracle(z):
    U, s, Vt = np.linalg.svd(z, full_matrices=False)
    shrunk = np.array([
        golden_section(lambda v: 0.5 * (v - si) ** 2 + abs(v), -1.0, si + 2.0)
        for si in s
    ])
    return U @ np.diag(shrunk) @ Vt


def prox_orthant_oracle(z, lo, hi):
    out = np.empty_like(z)
    for i, zi in enumerate(z):
        a = max(lo[i], -abs(zi) - 2.0)
        b = min(hi[i], abs(zi) + 2.0)
        out[i] = golden_section(lambda v: 0.5 * (v - zi) ** 2, a, b)
    return out


# ---------------------------------------------------------------------------
# random members of gph(∂P)
# ---------------------------------------------------------------------------

def l1_graph_member(rng, n, lam):
    x = rng.standard_normal(n) * (rng.random(n) > 0.4)
    s = np.where(x != 0, lam * np.sign(x), lam * rng.uniform(-0.9, 0.9, n))
    return x, s


def ridge_graph_member(rng, n, lam):
    x = rng.standard_normal(n)
    return x, 2.0 * lam * x


def grouped_graph_member(rng, groups, weights):
    n = sum(len(J) for J in groups)
    x = np.zeros(n)
    s = np.zeros(n)
    for J, w in zip(groups, weights):
        if rng.random() > 0.5:
            xj = rng.standard_normal(len(J))
            x[J] = xj
            s[J] = w * xj / np.linalg.norm(xj)
        else:
            u = rng.standard_normal(len(J))
            s[J] = 0.8 * w * rng.random() * u / np.linalg.norm(u)
    return x, s


def nuclear_graph_member(rng, m, n, rank):
    left = rng.standard_normal((m, rank))
    right = rng.standard_normal((rank, n))
    x = left @ right
    U, _, Vt = np.linalg.svd(x, full_matrices=True)
    r = rank
    W = rng.standard_normal((m - r, n - r))
    if W.size:
        W *= rng.uniform(0.2, 0.95) / np.linalg.norm(W, 2)
    core = np.zeros((m, n))
    core[:r, :r] = np.eye(r)
    core[r:, r:] = W
    s = U @ core @ Vt
    return x, s


def orthant_graph_member(rng, signs):
    n = len(signs)
    x = np.zeros(n)
    s = np.zeros(n)
    for i, sg in enumerate(signs):
        if sg == 0:
            x[i] = rng.standard_normal()
        elif rng.random() > 0.5:
            x[i] = sg * abs(rng.standard_normal())  # interior of the half-line
        else:
            x[i] = 0.0
            s[i] = -sg * abs(rng.standard_normal())  # outward normal at 0
    return x, s


# ---------------------------------------------------------------------------
# inverse-image oracles: case analysis one coordinate or group at a time
# ---------------------------------------------------------------------------

def l1_inverse_image_oracle(g, lam, tau_eq):
    """Box (lo, hi) of Γ_P(g) for P = λ‖·‖₁ with λ > 0, or the index of the
    first coordinate that empties it."""
    lo, hi = np.zeros_like(g), np.zeros_like(g)
    band = tau_eq * max(1.0, lam)
    for i, gi in enumerate(g):
        if abs(-gi - lam) <= band:
            lo[i], hi[i] = 0.0, np.inf
        elif abs(-gi + lam) <= band:
            lo[i], hi[i] = -np.inf, 0.0
        elif abs(gi) < lam:
            lo[i], hi[i] = 0.0, 0.0
        else:
            return i
    return lo, hi


def orthant_inverse_image_oracle(g, signs, tau_eq):
    """Box (lo, hi) of Γ_P(g) for the sign-constrained box indicator, or the
    index of the first coordinate that empties it."""
    lo, hi = np.zeros_like(g), np.zeros_like(g)
    for i, (gi, sg) in enumerate(zip(g, signs)):
        v = -gi
        if sg == 0:
            if abs(v) > tau_eq:
                return i
            lo[i], hi[i] = -np.inf, np.inf
        elif sg < 0:
            if v > tau_eq:
                lo[i], hi[i] = 0.0, 0.0
            elif v < -tau_eq:
                return i
            else:
                lo[i], hi[i] = -np.inf, 0.0
        else:
            if v < -tau_eq:
                lo[i], hi[i] = 0.0, 0.0
            elif v > tau_eq:
                return i
            else:
                lo[i], hi[i] = 0.0, np.inf
    return lo, hi


def grouped_inverse_image_oracle(g, groups, weights, tau_eq):
    """Per-group case list of Γ_P(g) for P = Σ ω_J ‖x_J‖: ("full", None),
    ("zero", None) or ("ray", g_J) per group, or the index of the first group
    that empties it."""
    cases = []
    for i, (J, w) in enumerate(zip(groups, weights)):
        gj = g[J]
        ng = np.linalg.norm(gj)
        if w == 0.0:
            if ng > tau_eq:
                return i
            cases.append(("full", None))
        elif abs(ng - w) <= tau_eq * max(1.0, w):
            cases.append(("ray", gj.copy()))
        elif ng > w:
            return i
        else:
            cases.append(("zero", None))
    return cases


def grouped_image_project_oracle(x, groups, cases):
    """Nearest point of the per-group cases, one group at a time; a ray
    along g_J = 0 (a weight inside the band around 0) is the block {0}."""
    out = np.zeros_like(x)
    for J, (tag, payload) in zip(groups, cases):
        xj = x[J]
        if tag == "full":
            out[J] = xj
        elif tag == "ray" and payload @ payload > 0.0:  # {a·g_J : a ≤ 0}
            a = min(float(xj @ payload) / float(payload @ payload), 0.0)
            out[J] = a * payload
    return out


def nuclear_image_project_oracle(x, G, tau_eq):
    """Nearest point of Γ_P(G) for the nuclear norm, Ū₁ psd(Ū₁ᵀ x V̄₁) V̄₁ᵀ,
    with Ū₁ and V̄₁ the singular vectors of −G whose singular value is 1
    within tau_eq, from numpy's own SVD; 0 when there are none."""
    U, sigma, Vt = np.linalg.svd(-G)
    s_bar = int(np.sum(sigma >= 1.0 - tau_eq))
    if s_bar == 0:
        return np.zeros_like(x)
    U1, V1 = U[:, :s_bar], Vt[:s_bar].T
    M = U1.T @ x @ V1
    w, Q = np.linalg.eigh((M + M.T) / 2.0)
    return U1 @ ((Q * np.maximum(w, 0.0)) @ Q.T) @ V1.T


def box_affine_project_oracle(w, B, r, lo, hi):
    """Nearest point of {z : B z = r, lo ≤ z ≤ hi} to w, by enumeration, in
    whatever coordinates w is given (the face's or the ambient ones).  The
    nearest point holds some coordinates at a bound and is the projection of
    w onto the affine set that leaves, so every pattern (each coordinate
    free, at lo or at hi) is projected onto by least squares, and the
    nearest feasible candidate is kept.  That is 3ⁿ patterns: meant for
    n ≤ 6 coordinates."""
    k = w.size
    assert k <= 6, f"{k} coordinates would enumerate 3^{k} patterns"
    best, best_dist = None, math.inf
    for pattern in itertools.product((None, 0, 1), repeat=k):
        fixed = np.array([p is not None for p in pattern])
        z = np.where(np.array(pattern) == 1, hi, lo).astype(float)
        if not np.all(np.isfinite(z[fixed])):
            continue
        rhs = r - B[:, fixed] @ z[fixed]
        B_free, w_free = B[:, ~fixed], w[~fixed]
        z[~fixed] = w_free - np.linalg.pinv(B_free) @ (B_free @ w_free - rhs)
        if np.linalg.norm(B_free @ z[~fixed] - rhs) > 1e-10 * max(1.0, np.linalg.norm(r)):
            continue  # this pattern's affine set is empty
        if np.any(z < lo - 1e-12) or np.any(z > hi + 1e-12):
            continue
        dist = np.linalg.norm(w - z)
        if dist < best_dist:
            best, best_dist = z, dist
    return best


# ---------------------------------------------------------------------------
# subdifferential-distance oracles: one group or coordinate at a time
# ---------------------------------------------------------------------------

def grouped_subdiff_distance_oracle(x, s, groups, weights):
    """Per group: distance from s_J to the ω_J-ball (x_J = 0) or to the
    point ω_J x_J/‖x_J‖."""
    dist_sq = 0.0
    for J, w in zip(groups, weights):
        xj, sj = x[J], s[J]
        nx = np.linalg.norm(xj)
        if nx > 0.0:
            dist_sq += float(np.sum((sj - w * xj / nx) ** 2))
        else:
            dist_sq += max(np.linalg.norm(sj) - w, 0.0) ** 2
    return math.sqrt(dist_sq)


def orthant_subdiff_distance_oracle(x, s, signs):
    """Distance from s to the normal cone of the sign-constrained box at x
    (x inside the box)."""
    dist_sq = 0.0
    for xi, si, sg in zip(x, s, signs):
        if sg == 0 or xi != 0.0:
            dist_sq += si * si  # interior: normal cone is {0}
        elif sg < 0:
            dist_sq += min(si, 0.0) ** 2  # cone [0, ∞)
        else:
            dist_sq += max(si, 0.0) ** 2  # cone (−∞, 0]
    return math.sqrt(dist_sq)
