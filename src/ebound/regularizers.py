"""Regularizer families: values, proximal maps, and the two distance
computations that drive the error-bound diagnostics,

    subdiff_distance(x, s)        = d(s, ∂P(x)),
    inverse_image_distance(g, x)  = d(x, Γ_P(g)),  Γ_P(g) = {x : −g ∈ ∂P(x)}.

inverse_image(g) writes Γ_P(g) as its face {c + T z : z ∈ K}, with T an
isometry from ℝᵏ and K closed and convex, so a problem over Γ_P(g) can be
solved in k coordinates; the nearest point c + T(Π_K(T*(x − c))), and the
distance with it, follow from that one form.  Every polyhedral Γ_P(g) (L1,
ridge, the orthant indicator, grouped LASSO, zero weights) is a BoxImage:
fixed coordinates in c, disjoint unit columns in T, and K a box; the nuclear
norm's is a NuclearImage, with K the PSD cone.  complementarity(x*) says what
the error bound needs beyond Γ_P(ḡ): nothing for a polyhedral K.
Equalities such as |g_i| = λ, ‖g_J‖ = ω_J or σ₁(−g) = 1 hold within TAU_EQ,
scaled by max(1, λ) or max(1, ω_J) for a weighted penalty.  An empty Γ_P(g)
is not a set but a wrong target: inverse_image raises InfeasibleTargetError
naming the first coordinate, group or singular value that empties it.

value, prox_diff and subdiff_distance take a stack of points (stack=True:
a leading axis indexes them), and so do T, T_adj and project_K of both
inverse images (any leading axes).  Each point's figures are those of its
own call, bit for bit, as a point and a stack run one expression: sums
along the last axes, group sums as one bincount over row·width + index,
GroupedLasso's weighted sum through a stacked matmul, and one LAPACK call
for the matrices of a stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleTargetError, InvalidInputError
from .space import (_require_positive, _transposed, norm, norms, numerical_rank, psd_project,
                    singular_values, svd)

TAU_EQ = 1e-8


# ---------------------------------------------------------------------------
# inverse images Γ_P(g)
# ---------------------------------------------------------------------------

def _empty(reason: str) -> InfeasibleTargetError:
    return InfeasibleTargetError(f"inverse image is empty: {reason}")


def _per_point(values, stack):
    """A stack's array of figures as it is, one point's as a float."""
    return values if stack else float(values)


def _stacked_bincount(index, weights, width):
    """np.bincount(index, weights=w, minlength=width) for w each row of
    weights along its last axis (one point, or a stack of them); a stack
    takes one bincount over row·width + index, which adds each row's
    entries in its own call's order."""
    if weights.ndim == 1:
        return np.bincount(index, weights=weights, minlength=width)
    rows = weights.reshape(math.prod(weights.shape[:-1]), weights.shape[-1])
    index = (width * np.arange(len(rows))[:, None] + index).ravel()
    sums = np.bincount(index, weights=rows.ravel(), minlength=len(rows) * width)
    return sums.reshape(weights.shape[:-1] + (width,))


@dataclass(frozen=True)
class ComplementarityReport:
    """Strict complementarity for nuclear-norm instances: the count s̄ of
    unit singular values of −ḡ must equal rank(x*); the margin is the
    smallest eigenvalue of the symmetric part of Ū₁ᵀ x* V̄₁."""

    s_bar: int
    rank_x: int
    holds: bool
    margin: float


class InverseImage:
    """A nonempty closed convex set as its face Γ = {c + T z : z ∈ K}: T is an
    isometry (T*T = I) from ℝᵏ onto a subspace holding Γ − c, T_adj is its
    adjoint, and project_K is the nearest-point map of the closed convex
    K ⊂ ℝᵏ.  Each subclass sets c and k when built and defines the maps,
    which also map a stack of points (leading axes) point by point."""

    c: np.ndarray
    k: int

    def T(self, z) -> np.ndarray:
        raise NotImplementedError

    def T_adj(self, x) -> np.ndarray:
        raise NotImplementedError

    def project_K(self, z) -> np.ndarray:
        raise NotImplementedError

    def project(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != self.c.shape:
            raise InvalidInputError(f"point of shape {x.shape} for a set in shape {self.c.shape}")
        return self.c + self.T(self.project_K(self.T_adj(x - self.c)))

    def distance(self, x) -> float:
        return norm(np.asarray(x, dtype=float) - self.project(x))

    def complementarity(self, x_star) -> ComplementarityReport | None:
        """None: with K polyhedral, {A⁻¹(ȳ), Γ_P(ḡ)} is regular at any x*."""
        return None


@dataclass
class BoxImage(InverseImage):
    """Every polyhedral Γ_P(g): {c + T z : lo ≤ z ≤ hi}.  Each column of T is
    a unit vector, and no two columns share a coordinate: `column` holds each
    coordinate's column (−1 for a coordinate fixed at c_i) and `direction` its
    value in that column's unit vector.  So T scatters z, T* gathers with one
    bincount, and K is the box of the columns' intervals [lo_j, hi_j]."""

    c: np.ndarray
    column: np.ndarray
    direction: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self._on = np.flatnonzero(self.column >= 0)
        self._column = self.column[self._on]
        self._direction = self.direction[self._on]
        self.k = self.lo.size

    @classmethod
    def intervals(cls, lo, hi) -> BoxImage:
        """Per-coordinate intervals [lo_i, hi_i] (L1, orthant indicator, ridge
        points, zero weights): coordinates with lo = hi are fixed, and every
        other one is a column of its own, in index order."""
        free = lo != hi
        return cls(c=np.where(free, 0.0, lo), column=np.where(free, np.cumsum(free) - 1, -1),
                   direction=np.ones(lo.shape), lo=lo[free], hi=hi[free])

    def T(self, z):
        out = np.zeros(z.shape[:-1] + self.c.shape)
        out[..., self._on] = z[..., self._column] * self._direction
        return out

    def T_adj(self, x):
        return _stacked_bincount(self._column, x[..., self._on] * self._direction, self.k)

    def project_K(self, z):
        return np.clip(z, self.lo, self.hi)


def _zero_weight_image(g) -> BoxImage:
    """Γ_P(g) of a zero penalty: the whole space when g = 0, else empty."""
    if np.max(np.abs(g), initial=0.0) > TAU_EQ:
        raise _empty("zero weight but g ≠ 0")
    return BoxImage.intervals(np.full(g.shape, -np.inf), np.full(g.shape, np.inf))


@dataclass
class NuclearImage(InverseImage):
    """Γ_P(G) for the nuclear norm: {Ū₁ Z V̄₁ᵀ : Z ⪰ 0 (s̄×s̄)}, with U = Ū₁
    and V = V̄₁ the s̄ left and right singular vectors of −G whose singular
    value is 1; flipping a column of U with its partner in V, or rotating
    both by one orthogonal matrix, leaves the set unchanged.  T(z) = Ū₁ Z V̄₁ᵀ
    for the symmetric Z with coordinates z in the orthonormal basis E_ii,
    (E_ij + E_ji)/√2, so k = s̄(s̄+1)/2, K = S₊, and the reduced problem stays
    off the skew directions, along which Γ_P(G) has no extent."""

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        self.s_bar = self.U.shape[1]
        self._upper = np.triu_indices(self.s_bar)
        self._scale = np.where(self._upper[0] == self._upper[1], 1.0, np.sqrt(2.0))
        self.c = np.zeros((self.U.shape[0], self.V.shape[0]))
        self.k = self._upper[0].size

    def _smat(self, z):
        Z = np.zeros(z.shape[:-1] + (self.s_bar, self.s_bar))
        Z[(..., *self._upper)] = z / self._scale
        return Z + _transposed(np.triu(Z, 1))

    def _svec(self, M):
        return ((M + _transposed(M)) / 2.0)[(..., *self._upper)] * self._scale

    def T(self, z):
        return self.U @ self._smat(z) @ self.V.T

    def T_adj(self, x):
        return self._svec(self.U.T @ x @ self.V)

    def project_K(self, z):
        return self._svec(psd_project(self._smat(z)))

    def complementarity(self, x_star):
        """K = S₊ is not polyhedral: regularity needs strict complementarity."""
        rank_x = numerical_rank(singular_values(x_star))
        margin = float("inf")
        if self.s_bar:
            block = self.U.T @ x_star @ self.V
            margin = float(np.linalg.eigvalsh((block + block.T) / 2.0)[0])
        return ComplementarityReport(s_bar=self.s_bar, rank_x=rank_x,
                                     holds=(rank_x == self.s_bar), margin=margin)


# ---------------------------------------------------------------------------
# regularizers
# ---------------------------------------------------------------------------

class Regularizer:
    """P on vector (or, with expects_matrix, matrix) elements.  value,
    prox_diff and subdiff_distance take one element, or with stack=True a
    stack of them along a leading axis and give each point's figure."""

    expects_matrix: bool = False

    def _check(self, x, stack=False):
        x = np.asarray(x, dtype=float)
        want = (2 if self.expects_matrix else 1) + stack
        if x.ndim != want:
            kind = "matrix" if self.expects_matrix else "vector"
            raise InvalidInputError(f"{type(self).__name__} applies to {kind} elements"
                                    + (", stacked along a leading axis" if stack else ""))
        return x

    def _check_pair(self, x, s, stack=False):
        """x and a gradient or subgradient candidate s of the same shape; for
        a stack, s may also be one point's, shared by every point."""
        x, s = self._check(x, stack), np.asarray(s, dtype=float)
        if s.shape != x.shape and not (stack and s.shape == x.shape[1:]):
            raise InvalidInputError(f"element of shape {s.shape} paired with {x.shape}")
        return x, s

    def value(self, x, *, stack=False):
        """P(x): a float, or each point's P with stack=True."""
        raise NotImplementedError

    def prox(self, z, t: float = 1.0) -> np.ndarray:
        """prox_{tP}(z); the unit step t = 1 matches the residual map.  The
        step t must be finite and >= 0 (t = 0 is the identity), else
        InvalidInputError.  A non-finite entry of z gives a non-finite
        entry of the result, except where an SVD refuses it."""
        z = self._check(z)
        _require_positive(t, "prox step t", zero=True)
        return self._prox(z, t)

    def _prox(self, z, t) -> np.ndarray:
        """prox_{tP} of a checked point, or of each point of a stack."""
        raise NotImplementedError

    def prox_step(self, x, g, t):
        """(R, p) for a point x, its gradient g and a step t: the unit-step
        residual R = prox_P(x − g) − x and the step's point
        p = prox_{tP}(x − t·g); one proximal gradient iteration's prox work.
        At t = 1 the two proxes are one.  Nothing is checked: the solver
        checked x's shape and t once."""
        p = self._prox(x - t * g, t)
        return self.residual(x, g, p if t == 1.0 else self._prox(x - g, 1.0)), p

    def residual(self, x, g, p) -> np.ndarray:
        """R = p − x for the unit-step prox point p = prox_P(x − g).
        Overridden where R can be formed without cancellation (needed when
        ‖g‖ is far below the ulp of x)."""
        return p - x

    def prox_diff(self, x, g, *, stack=False) -> np.ndarray:
        """prox_P(x − g) − x, of each point with stack=True."""
        x, g = self._check_pair(x, g, stack)
        return self.residual(x, g, self._prox(x - g, 1.0))

    def subdiff_distance(self, x, s, *, stack=False):
        """d(s, ∂P(x)): a float, or each point's with stack=True, where s is
        each point's own or one shared by all."""
        raise NotImplementedError

    def inverse_image(self, g) -> InverseImage:
        """Γ_P(g); raises InfeasibleTargetError when it is empty."""
        raise NotImplementedError

    def inverse_image_distance(self, g, x) -> float:
        return self.inverse_image(g).distance(self._check(x))


@dataclass(frozen=True)
class L1(Regularizer):
    """P(x) = λ‖x‖₁."""

    weight: float = 1.0

    def __post_init__(self):
        _require_positive(self.weight, "L1 weight", zero=True)

    def value(self, x, *, stack=False):
        return _per_point(self.weight * np.abs(self._check(x, stack)).sum(axis=-1), stack)

    def _prox(self, z, t):
        return np.sign(z) * np.maximum(np.abs(z) - t * self.weight, 0.0)

    def subdiff_distance(self, x, s, *, stack=False):
        # ∂(λ|x_i|) is the point λ·sign(x_i) where x_i ≠ 0, else [−λ, λ]
        x, s = self._check_pair(x, s, stack)
        lam = self.weight
        dist_sq = np.sum(np.where(x != 0, (s - lam * np.sign(x)) ** 2,
                                  np.maximum(np.abs(s) - lam, 0.0) ** 2), axis=-1)
        return _per_point(np.sqrt(dist_sq), stack)

    def inverse_image(self, g):
        g = self._check(g)
        lam = self.weight
        if lam == 0.0:
            return _zero_weight_image(g)
        band = TAU_EQ * max(1.0, lam)
        # per coordinate, in this order: −g_i = λ, −g_i = −λ, |g_i| < λ;
        # any other coordinate (NaN included) empties the image
        up = np.abs(-g - lam) <= band
        down = ~up & (np.abs(-g + lam) <= band)
        bad = ~(up | down | (np.abs(g) < lam))
        if bad.any():
            raise _empty(f"coordinate {int(np.argmax(bad))} has |g_i| > λ")
        return BoxImage.intervals(np.where(down, -np.inf, 0.0), np.where(up, np.inf, 0.0))


@dataclass(frozen=True)
class Ridge(Regularizer):
    """P(x) = λ‖x‖₂²."""

    weight: float = 1.0

    def __post_init__(self):
        _require_positive(self.weight, "Ridge weight", zero=True)

    def value(self, x, *, stack=False):
        return _per_point(self.weight * np.sum(self._check(x, stack) ** 2, axis=-1), stack)

    def _prox(self, z, t):
        return z / (1.0 + 2.0 * t * self.weight)

    def subdiff_distance(self, x, s, *, stack=False):
        x, s = self._check_pair(x, s, stack)
        return _per_point(norms(s - 2.0 * self.weight * x), stack)

    def inverse_image(self, g):
        g = self._check(g)
        if self.weight == 0.0:
            return _zero_weight_image(g)
        p = -g / (2.0 * self.weight)
        return BoxImage.intervals(p, p)


def _group_indices(J) -> np.ndarray:
    """One group's coordinate indices, which must be integers (numpy's
    too, but not bools), else InvalidInputError: a cast would truncate 1.5
    to 1."""
    J = np.asarray(J)
    if J.size and (J.dtype == bool or not np.issubdtype(J.dtype, np.integer)):
        raise InvalidInputError(f"group indices must be integers, got {J.tolist()!r}")
    return J.astype(int)


class GroupedLasso(Regularizer):
    """P(x) = Σ_J ω_J ‖x_J‖₂ over a partition of the coordinates."""

    def __init__(self, groups, weights):
        self.groups = tuple(_group_indices(J) for J in groups)
        self.weights = tuple(float(_require_positive(w, f"group weights[{i}]", zero=True))
                             for i, w in enumerate(weights))
        if len(self.groups) != len(self.weights):
            raise InvalidInputError("one weight per group required")
        covered = np.concatenate(self.groups) if self.groups else np.array([], dtype=int)
        self.n = covered.size
        if sorted(covered.tolist()) != list(range(self.n)):
            raise InvalidInputError("groups must partition the coordinate set")
        # group id of every coordinate, so value and prox run over all groups at once
        self._group_of = np.zeros(self.n, dtype=int)
        for gid, J in enumerate(self.groups):
            self._group_of[J] = gid
        self._weight = np.array(self.weights)

    def _check(self, x, stack=False):
        x = super()._check(x, stack)
        if x.shape[-1] != self.n:
            raise InvalidInputError(f"expected {self.n} coordinates, got {x.shape[-1]}")
        return x

    def _group_norms(self, x):
        return np.sqrt(_stacked_bincount(self._group_of, x * x, len(self.groups)))

    def value(self, x, *, stack=False):
        # ω·‖x_J‖ per point through a stacked matmul, as `ω @ norms` forms it;
        # a row sum of ω·‖x_J‖ moves F_val in the grouped-lasso reports
        nx = self._group_norms(self._check(x, stack))
        return _per_point(np.matmul(nx[..., None, :], self._weight[:, None])[..., 0, 0], stack)

    def _prox(self, z, t):
        nz = self._group_norms(z)
        live = nz > 0.0
        shrink = np.maximum(1.0 - t * self._weight / np.where(live, nz, 1.0), 0.0)
        return np.where(live, shrink, 0.0)[..., self._group_of] * z

    def subdiff_distance(self, x, s, *, stack=False):
        x, s = self._check_pair(x, s, stack)
        # on a block with x_J ≠ 0, ∂ is the point ω_J x_J/‖x_J‖; on x_J = 0 it
        # is the ω_J-ball, which s_J overshoots by max(‖s_J‖ − ω_J, 0)
        nx = self._group_norms(x)
        live = nx > 0.0
        scale = np.where(live, self._weight / np.where(live, nx, 1.0), 0.0)
        r = s - scale[..., self._group_of] * x
        r_sq = _stacked_bincount(self._group_of, r * r, nx.shape[-1])
        over = np.maximum(np.sqrt(r_sq) - self._weight, 0.0)
        return _per_point(np.sqrt(np.sum(np.where(live, r_sq, over * over), axis=-1)), stack)

    def inverse_image(self, g):
        g = self._check(g)
        w, ng = self._weight, self._group_norms(g)
        # per group, in this order: zero weight (the whole block when g_J = 0),
        # ‖g_J‖ = ω_J within the band (a ray), ‖g_J‖ > ω_J (empty), else {0}
        zero_w = w == 0.0
        free = zero_w & (ng <= TAU_EQ)
        ray = ~zero_w & (np.abs(ng - w) <= TAU_EQ * np.maximum(1.0, w))
        bad = (zero_w & ~free) | (~zero_w & ~ray & (ng > w))
        if bad.any():
            raise _empty(f"group {int(np.argmax(bad))} has ‖g_J‖ > ω_J")
        # one column along g_J/‖g_J‖ per ray block with g_J ≠ 0, K = (−∞, 0]
        # on it; then one per coordinate of a free block, K = ℝ
        live = ray & (ng > 0.0)
        unit = np.zeros_like(ng)
        unit[live] = 1.0 / ng[live]
        r = int(live.sum())
        column = np.where(live, np.cumsum(live) - 1, -1)[self._group_of]
        direction = unit[self._group_of] * g
        spread = np.flatnonzero(free[self._group_of])
        column[spread] = r + np.arange(spread.size)
        direction[spread] = 1.0
        return BoxImage(c=np.zeros(self.n), column=column, direction=direction,
                        lo=np.full(r + spread.size, -np.inf),
                        hi=np.r_[np.zeros(r), np.full(spread.size, np.inf)])


@dataclass(frozen=True)
class NuclearNorm(Regularizer):
    """P(X) = ‖X‖_* (sum of singular values)."""

    expects_matrix = True

    def value(self, x, *, stack=False):
        # the values-only SVD: its σ differ in the last bits from a full SVD's
        return _per_point(singular_values(self._check(x, stack)).sum(axis=-1), stack)

    def _prox(self, z, t):
        """Matrix shrinkage U diag(max(σ − t, 0)) Vᵀ from a thin SVD, which
        does not depend on the signs of the singular vectors; for a stack, t
        may hold one step per matrix, shaped to broadcast against σ."""
        U, sigma, Vt = svd(z, full_matrices=False)
        return (U * np.maximum(sigma - t, 0.0)[..., None, :]) @ Vt

    def prox_step(self, x, g, t):
        """At t ≠ 1, both proxes from one stacked thin SVD of [x − g, x − t·g]
        with steps [1, t]; each factor of a stack is its own call's, bit for
        bit, so R and p are those of two separate calls."""
        if t == 1.0:
            return super().prox_step(x, g, t)
        p = self._prox(np.stack([x - g, x - t * g]), np.array([[1.0], [t]]))
        return self.residual(x, g, p[0]), p[1]

    def subdiff_distance(self, x, s, *, stack=False):
        # in the singular bases of x, S = Uᵀ s V splits at the numerical rank
        # r: the r×r block against I, the off-diagonal blocks against 0, and
        # the tail's singular values against the unit ball.  Points of one
        # rank have blocks of one shape, so each rank's points form a stack.
        x, s = self._check_pair(x, s, stack)
        U, sigma, Vt = svd(x)
        S = _transposed(U) @ s @ _transposed(Vt)
        S = S.reshape((-1,) + S.shape[-2:])
        ranks = np.reshape(numerical_rank(sigma), -1)
        dist_sq = np.empty(len(S))
        for r in np.unique(ranks):
            on = ranks == r
            B = S[on]
            d = np.sum((B[:, :r, :r] - np.eye(r)) ** 2, axis=(1, 2))
            d += np.sum(B[:, :r, r:] ** 2, axis=(1, 2)) + np.sum(B[:, r:, :r] ** 2, axis=(1, 2))
            tail = B[:, r:, r:]
            if min(tail.shape[1:]) > 0:
                d += np.sum(np.maximum(singular_values(tail) - 1.0, 0.0) ** 2, axis=-1)
            dist_sq[on] = d
        return _per_point(np.sqrt(dist_sq).reshape(x.shape[:-2]), stack)

    def inverse_image(self, g):
        U, sigma, Vt = svd(-self._check(g))
        if sigma.size and sigma[0] > 1.0 + TAU_EQ:
            raise _empty(f"spectral norm of -g is {sigma[0]:.6g} > 1")
        s_bar = int(np.sum(sigma >= 1.0 - TAU_EQ))
        return NuclearImage(U=U[:, :s_bar], V=Vt[:s_bar].T)


class OrthantIndicator(Regularizer):
    """Indicator of a sign-constrained box C: signs[i] = −1 forces xᵢ ≤ 0,
    +1 forces xᵢ ≥ 0, 0 leaves the coordinate free."""

    def __init__(self, signs):
        signs = np.asarray(signs)
        if signs.ndim != 1 or not np.all(np.isin(signs, (-1, 0, 1))):
            raise InvalidInputError("signs must be a 1-d array of -1, 0, or +1")
        self.signs = signs.astype(int)
        self.lo = np.where(signs > 0, 0.0, -np.inf)
        self.hi = np.where(signs < 0, 0.0, np.inf)

    def _check(self, x, stack=False):
        x = super()._check(x, stack)
        if x.shape[-1] != self.signs.size:
            raise InvalidInputError(f"expected {self.signs.size} coordinates, got {x.shape[-1]}")
        return x

    def _inside(self, x):
        return np.all((x >= self.lo) & (x <= self.hi), axis=-1)

    def contains(self, x) -> bool:
        return bool(self._inside(self._check(x)))

    def value(self, x, *, stack=False):
        return _per_point(np.where(self._inside(self._check(x, stack)), 0.0, np.inf), stack)

    def _prox(self, z, t):
        """The projection onto C, whatever the step t >= 0."""
        return np.clip(z, self.lo, self.hi)

    def residual(self, x, g, p):
        # clip(x − g, lo, hi) − x == clip(−g, lo − x, hi − x), exactly;
        # the right-hand form keeps tiny gradients below the ulp of x alive
        return np.clip(-g, self.lo - x, self.hi - x)

    def subdiff_distance(self, x, s, *, stack=False):
        """Distance to the normal cone of C at x.  A point outside C raises
        DomainError; in a stack it gets inf, the distance to the empty
        subdifferential."""
        x, s = self._check_pair(x, s, stack)
        inside = self._inside(x)
        if not (stack or inside):
            raise DomainError("point outside the constraint set")
        # the cone is {0} off the faces, [0, ∞) on a face of a −1 sign and
        # (−∞, 0] on a face of a +1 sign
        face = x == 0.0
        r = s - np.clip(s, np.where(face & (self.signs > 0), -np.inf, 0.0),
                        np.where(face & (self.signs < 0), np.inf, 0.0))
        return _per_point(np.where(inside, np.sqrt(np.sum(r * r, axis=-1)), np.inf), stack)

    def inverse_image(self, g):
        g = self._check(g)
        v, s = -g, self.signs  # −g_i must lie in the normal cone at x_i
        bad = ((s == 0) & (np.abs(v) > TAU_EQ)) | ((s < 0) & (v < -TAU_EQ)) \
            | ((s > 0) & (v > TAU_EQ))
        if bad.any():
            i = int(np.argmax(bad))
            raise _empty(
                f"free coordinate {i} needs g_i = 0" if s[i] == 0
                else f"coordinate {i}: -g_i < 0 not in cone [0, ∞)" if s[i] < 0
                else f"coordinate {i}: -g_i > 0 not in cone (−∞, 0]")
        # a strictly interior normal-cone member pins the coordinate to 0
        pinned = ((s < 0) & (v > TAU_EQ)) | ((s > 0) & (v < -TAU_EQ))
        return BoxImage.intervals(np.where(pinned, 0.0, self.lo), np.where(pinned, 0.0, self.hi))
