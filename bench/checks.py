"""Checks of the program's outputs against computations made here, in numpy,
from the generated inputs alone.

Nothing in this module imports ebound: every reference value (gradients,
proximal maps, residuals, distances to the two pieces of the solution set)
is recomputed from the raw data the benchmark generated.  Each check raises
CheckFailed with a message naming what was wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

#: band under which a multiplier counts as sitting on the boundary of the
#: subdifferential; Γ_P(ḡ) is defined from an inexact ḡ with this relative band
BOUNDARY_BAND = 1e-8
#: a terminal point at ‖R‖ ≤ 1e-11 meets the KKT conditions to this accuracy
KKT_TOL = 1e-9
#: the program's alternating-projection distance carries errors of a few
#: 1e-7 relative; the bracket allows 1e-6 relative plus 1e-9 absolute
DIST_RTOL = 1e-6
DIST_ATOL = 1e-9
#: probe residuals are ≥ 1e-6, far above the rounding of either computation
RESIDUAL_RTOL = 1e-7
RESIDUAL_ATOL = 1e-13
SLOPE_RANGE = (0.85, 1.15)


class CheckFailed(Exception):
    """A program output disagrees with its independent recomputation."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# raw problem data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SparseData:
    """min ½‖Mx − b‖² + P(x) with P = λ‖x‖₁ (groups is None) or the grouped
    norm Σ_J w_J‖x_J‖ over equal-size groups given as a k×s index array."""

    M: np.ndarray
    b: np.ndarray
    lam: float = 0.0
    groups: np.ndarray | None = None
    weights: np.ndarray | None = None

    def image(self, x):
        return self.M @ x

    def gradient(self, x):
        return self.M.T @ (self.M @ x - self.b)

    def prox(self, z):
        if self.groups is None:
            return np.sign(z) * np.maximum(np.abs(z) - self.lam, 0.0)
        zg = z[self.groups]
        norms = np.linalg.norm(zg, axis=1)
        scale = np.maximum(1.0 - self.weights / np.where(norms > 0, norms, 1.0), 0.0)
        out = np.zeros_like(z)
        out[self.groups] = scale[:, None] * zg
        return out

    def residual(self, x):
        return self.prox(x - self.gradient(x)) - x

    @cached_property
    def _row_space_inverse(self):
        # M = Rᵀ Qᵀ from the QR factorization of Mᵀ, so ‖M⁺r‖ = ‖R⁻ᵀ r‖
        _, R = np.linalg.qr(self.M.T)
        return np.linalg.inv(R.T)

    def affine_distance(self, y_bar, x):
        """d(x, {z : Mz = ȳ}) = ‖M⁺(Mx − ȳ)‖ (M has full row rank)."""
        return float(np.linalg.norm(self._row_space_inverse @ (self.image(x) - y_bar)))

    def gamma_distance(self, g_bar, x):
        """d(x, Γ_P(ḡ)): per coordinate an interval (L1) or per group the
        ray {a·ḡ_J : a ≤ 0} or {0} (grouped)."""
        if self.groups is None:
            band = BOUNDARY_BAND * max(1.0, self.lam)
            nonneg = np.abs(-g_bar - self.lam) <= band   # x_i ∈ [0, ∞)
            nonpos = np.abs(-g_bar + self.lam) <= band   # x_i ∈ (−∞, 0]
            lo = np.where(nonpos, -np.inf, 0.0)
            hi = np.where(nonneg, np.inf, 0.0)
            return float(np.linalg.norm(x - np.clip(x, lo, hi)))
        gg, xg = g_bar[self.groups], x[self.groups]
        gn = np.linalg.norm(gg, axis=1)
        ray = np.abs(gn - self.weights) <= BOUNDARY_BAND * np.maximum(1.0, self.weights)
        a = np.minimum(np.sum(xg * gg, axis=1) / np.where(ray, gn**2, 1.0), 0.0)
        proj = np.where(ray[:, None], a[:, None] * gg, 0.0)
        return float(np.linalg.norm(xg - proj))


@dataclass(frozen=True)
class CompletionData:
    """min ½‖X_Ω − b‖² + ‖X‖_* over the observed entries Ω = (rows, cols)."""

    shape: tuple
    rows: np.ndarray
    cols: np.ndarray
    b: np.ndarray

    def image(self, X):
        return X[self.rows, self.cols]

    def gradient(self, X):
        G = np.zeros(self.shape)
        G[self.rows, self.cols] = X[self.rows, self.cols] - self.b
        return G

    def affine_distance(self, y_bar, X):
        return float(np.linalg.norm(self.image(X) - y_bar))

    def residual(self, X):
        Z = X - self.gradient(X)
        U, s, Vt = np.linalg.svd(Z, full_matrices=False)
        return (U * np.maximum(s - 1.0, 0.0)) @ Vt - X

    def gamma_distance(self, g_bar, X):
        """d(X, Γ_P(ḡ)) with Γ_P(ḡ) = {Ū₁ Z V̄₁ᵀ : Z ⪰ 0}, Ū₁, V̄₁ the singular
        vectors of −ḡ whose singular values are 1."""
        U, s, Vt = np.linalg.svd(-g_bar, full_matrices=True)
        k = int(np.sum(s >= 1.0 - BOUNDARY_BAND))
        B = U.T @ X @ Vt.T
        keep = np.zeros_like(B)
        if k:
            H = (B[:k, :k] + B[:k, :k].T) / 2.0
            w, Q = np.linalg.eigh(H)
            keep[:k, :k] = (Q * np.maximum(w, 0.0)) @ Q.T
        return float(np.linalg.norm(B - keep))


# ---------------------------------------------------------------------------
# solver outputs
# ---------------------------------------------------------------------------

def check_residual(reported, data, x, what="‖R(x)‖"):
    """The program's residual norm matches the numpy recomputation."""
    ref = float(np.linalg.norm(data.residual(x)))
    _require(abs(reported - ref) <= RESIDUAL_RTOL * ref + RESIDUAL_ATOL,
             f"{what} reported {reported:.6e}, recomputed {ref:.6e}")


def check_sparse_kkt(data: SparseData, x, tol=KKT_TOL):
    """0 ∈ ∇f(x) + ∂P(x) coordinate-wise (L1) or group-wise (grouped)."""
    g = data.gradient(x)
    if data.groups is None:
        lam = data.lam
        on = np.abs(x) > tol
        on_err = np.max(np.abs(g[on] + lam * np.sign(x[on])), initial=0.0)
        off_err = np.max(np.abs(g[~on]) - lam, initial=0.0)
        scale = max(1.0, lam)
    else:
        xg, gg = x[data.groups], g[data.groups]
        xn = np.linalg.norm(xg, axis=1)
        on = xn > tol
        w = data.weights
        on_err = np.max(np.linalg.norm(
            gg[on] + (w[on] / xn[on])[:, None] * xg[on], axis=1), initial=0.0)
        off_err = np.max(np.linalg.norm(gg[~on], axis=1) - w[~on], initial=0.0)
        scale = max(1.0, float(np.max(w)))
    _require(on_err <= tol * scale,
             f"stationarity on the support violated by {on_err:.3e}")
    _require(off_err <= tol * scale,
             f"multiplier bound off the support violated by {off_err:.3e}")


def check_nuclear_kkt(data: CompletionData, X, tol=KKT_TOL):
    """−∇f(X) ∈ ∂‖X‖_*: ‖∇f(X)‖₂ ≤ 1 and ⟨−∇f(X), X⟩ = ‖X‖_*."""
    G = data.gradient(X)
    spec = float(np.linalg.norm(G, 2))
    nuc = float(np.sum(np.linalg.svd(X, compute_uv=False)))
    pair = float(np.sum(-G * X))
    _require(spec <= 1.0 + tol, f"‖∇f(X*)‖₂ = {spec:.12f} exceeds 1")
    _require(abs(pair - nuc) <= tol * max(1.0, nuc),
             f"⟨−∇f(X*), X*⟩ = {pair:.12g} but ‖X*‖_* = {nuc:.12g}")


def check_complementarity(s_bar, rank_x, data: CompletionData, X, g_bar):
    """The reported counts match numpy's singular values of −ḡ and X*."""
    sg = np.linalg.svd(-g_bar, compute_uv=False)
    sx = np.linalg.svd(X, compute_uv=False)
    ref_s = int(np.sum(sg >= 1.0 - BOUNDARY_BAND))
    ref_r = int(np.sum(sx > BOUNDARY_BAND * max(1.0, float(sx[0]))))
    _require((s_bar, rank_x) == (ref_s, ref_r),
             f"(s_bar, rank) reported ({s_bar}, {rank_x}), recomputed ({ref_s}, {ref_r})")


# ---------------------------------------------------------------------------
# probe outputs
# ---------------------------------------------------------------------------

def check_distance(d, lower_affine, lower_gamma, upper):
    """max(d(x, {Az = ȳ}), d(x, Γ)) ≤ d ≤ ‖x − x*‖, both sides with the
    stated slack."""
    lo = max(lower_affine, lower_gamma)
    _require(lo <= d * (1.0 + DIST_RTOL) + DIST_ATOL,
             f"distance {d:.9e} is below its lower bound {lo:.9e}")
    _require(d <= upper * (1.0 + DIST_RTOL) + DIST_ATOL,
             f"distance {d:.9e} exceeds ‖x − x*‖ = {upper:.9e}")


def fitted_slope(ds, rs) -> float:
    ds, rs = np.asarray(ds, dtype=float), np.asarray(rs, dtype=float)
    keep = (ds > 0) & (rs > 0)
    _require(np.sum(keep) >= 4, f"only {int(np.sum(keep))} usable samples for a slope")
    slope, _ = np.polyfit(np.log(ds[keep]), np.log(rs[keep]), 1)
    return float(slope)


def check_slope(ds, rs):
    slope = fitted_slope(ds, rs)
    lo, hi = SLOPE_RANGE
    _require(lo <= slope <= hi, f"log-log slope {slope:.4f} outside [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# registry outputs
# ---------------------------------------------------------------------------

def check_cli_pass(exit_code, stdout):
    lines = stdout.strip().splitlines()
    _require(exit_code == 0, f"exit code {exit_code}")
    _require(bool(lines) and lines[-1] == "overall: PASS",
             f"last line {lines[-1] if lines else ''!r}, expected 'overall: PASS'")


def check_identical_trees(a: Path, b: Path):
    """Two report directories hold the same files with the same bytes."""
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    _require(files_a == files_b, f"file lists differ: {files_a} vs {files_b}")
    _require(bool(files_a), f"no report files under {a}")
    for rel in files_a:
        _require((a / rel).read_bytes() == (b / rel).read_bytes(),
                 f"{rel} differs between two runs with identical (config, seed)")
