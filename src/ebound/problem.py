"""Composite problem assembly: F = f + P, the proximal residual map,
optimality certification, and distance to the optimal set.

For a loss strongly convex on compact sets, the optimal set is the
intersection of the affine piece {x : A(x) = ȳ} and the inverse image
Γ_P(ḡ) = {c + T z : z ∈ K}, where T is an isometry from the k coordinates
of a face (see regularizers.InverseImage).  So 𝒳 = {c + T z : z ∈ K,
B z = r} with B = A∘T and r = ȳ − A(c), and the distance to 𝒳 splits into
the part of x − c off the range of T and the distance, in k coordinates, to
K ∩ {B z = r}; Dykstra's alternating projections compute the latter unless
A is the identity, which makes f strongly convex.  Everything is fixed by
the certificate, which builds Γ_P(ḡ) and the reduced set on first use and
keeps them.  An empty Γ_P(ḡ) raises InfeasibleTargetError on every use, and
a reduced set whose gap ‖r − B B⁺r‖ / max(1, ‖B‖₂), measured in the range of
A, exceeds DYKSTRA_TOL raises ConvergenceError on every use.  A itself is
only ever applied, never factorized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, DomainError, InvalidInputError, NotOptimalError
from .losses import CompositeSmooth
from .regularizers import InverseImage, Regularizer
# affine_project is unused, but bench/tests/test_smoke.py reads problem.affine_project
from .space import (LinearMap, _require_finite, _require_positive, _shaped,  # noqa: F401
                    affine_project, norm, norms)

CERT_TOL = 1e-9
#: Dykstra stops a point when its iterate moves less than this, or fails
#: after the budget; a reduced set whose gap (see ReducedSet) exceeds it does
#: not meet
DYKSTRA_TOL = 1e-10
DYKSTRA_MAX_SWEEPS = 10**4


@dataclass(frozen=True)
class ProblemInstance:
    smooth: CompositeSmooth
    reg: Regularizer
    feasible_point: np.ndarray

    def __post_init__(self):
        x0 = np.asarray(self.feasible_point, dtype=float)
        object.__setattr__(self, "feasible_point", x0)
        if not self.smooth.in_domain(x0):
            raise DomainError("feasible_point lies outside dom(f)")
        if not np.isfinite(self.reg.value(x0)):
            raise DomainError("feasible_point lies outside dom(P)")


@dataclass(frozen=True)
class OptimalityCertificate:
    """A verified optimum x* with the solution-set invariants
    ȳ = A(x*) and ḡ = ∇f(x*)."""

    x_star: np.ndarray
    y_bar: np.ndarray
    g_bar: np.ndarray
    residual_norm: float
    tol: float
    reg: Regularizer = field(repr=False)
    A: LinearMap = field(repr=False)

    @cached_property
    def image(self) -> InverseImage:
        """Γ_P(ḡ), built on first use."""
        return self.reg.inverse_image(self.g_bar)

    @cached_property
    def reduced(self) -> ReducedSet:
        """{A z = ȳ} ∩ Γ_P(ḡ) in the coordinates of the face of Γ_P(ḡ),
        built on first use with k applications of A."""
        image = self.image
        B = np.empty((self.y_bar.size, image.k))
        for j, e in enumerate(np.eye(image.k)):
            B[:, j] = self.A(image.T(e))
        r = self.y_bar - self.A(image.c)
        B_pinv = np.linalg.pinv(B, rcond=1e-12)
        gap = norm(r - B @ (B_pinv @ r)) / max(1.0, float(np.linalg.norm(B, 2)))
        return ReducedSet(B=B, r=r, B_pinv=B_pinv, gap=gap)


@dataclass(frozen=True)
class ReducedSet:
    """{c + T z : z ∈ K, B z = r} in the face of the certificate's Γ_P(ḡ),
    with B⁺ for the projection onto {B z = r}.  gap = ‖r − B B⁺r‖ /
    max(1, ‖B‖₂) is how far A maps the face's least-squares point c + T B⁺r
    from ȳ, scaled by ‖B‖₂ (for a coordinate-select map, that point's
    distance to {A z = ȳ}): above rounding only when the face's affine hull
    misses the affine piece."""

    B: np.ndarray
    r: np.ndarray
    B_pinv: np.ndarray
    gap: float


def objective(prob: ProblemInstance, x) -> float:
    """F(x) = f(x) + P(x); +inf when P is an indicator and x is infeasible."""
    return prob.smooth.value(x) + prob.reg.value(x)


def residual_map(prob: ProblemInstance, x) -> np.ndarray:
    """R(x) = prox_P(x − ∇f(x)) − x, with the unit prox step, at a finite
    point of the instance's shape (a scalar or a point of another size does
    not broadcast), else InvalidInputError."""
    x = _shaped(x, prob.feasible_point.shape, "residual_map point")
    _require_finite(x, "residual_map point")
    return prob.reg.prox_diff(x, prob.smooth.gradient(x))


def certify(prob: ProblemInstance, x, tol: float = CERT_TOL) -> OptimalityCertificate:
    """Verify ‖R(x)‖ ≤ tol and freeze the invariants (ȳ, ḡ); a NaN or
    infinite ‖R(x)‖ is not optimal.  Raises InvalidInputError unless x is a
    point of the instance's shape and tol is finite and > 0."""
    x = _shaped(x, prob.feasible_point.shape, "certify point")
    _require_positive(tol, "tol")
    point = prob.smooth.at(x)
    r = norm(prob.reg.prox_diff(x, point.gradient))
    if not r <= tol:
        raise NotOptimalError(r, tol)
    return OptimalityCertificate(
        x_star=x,
        y_bar=point.y,
        g_bar=point.gradient,
        residual_norm=r,
        tol=tol,
        reg=prob.reg,
        A=prob.smooth.A,
    )


def r_alt(prob: ProblemInstance, cert: OptimalityCertificate, x) -> float:
    """The alternative residual ‖A(x) − ȳ‖ + d(−ḡ, ∂P(x)); nan when the loss
    is not strongly convex on compacts, since ȳ and ḡ then vary over 𝒳."""
    x = np.asarray(x, dtype=float)
    return alt_residual(prob, cert, x, prob.smooth.A(x))


def alt_residual(prob: ProblemInstance, cert: OptimalityCertificate, x, y):
    """r_alt at x, given y = A(x): a float, which raises DomainError where
    ∂P(x) is empty.  For a stack of points x (a leading axis) and their
    images y, an array with each point's r_alt, inf where ∂P(x) is empty."""
    stack = np.ndim(x) > cert.x_star.ndim
    if not prob.smooth.h.strongly_convex_on_compacts:
        return np.full(len(x), np.nan) if stack else float("nan")
    r = norms(y - cert.y_bar, cert.y_bar.ndim) + prob.reg.subdiff_distance(x, -cert.g_bar,
                                                                            stack=stack)
    return r if stack else float(r)


def _products(M, U):
    """M u for every row u of U, each as `M @ u` forms it: through a
    stacked matmul, where one product U Mᵀ would round differently."""
    return np.matmul(M, U[..., None])[..., 0]


def _dykstra(x0, project_a, project_b):
    """Projection of each row of the s×k block x0 onto the intersection of
    two closed convex sets; project_a and project_b project a block of rows
    row by row.  A row leaves the block at its own DYKSTRA_TOL stop while
    the others sweep on, so its sweeps and result are those of a call on
    that row alone.  When the budget runs out, ConvergenceError carries the
    last gap of the first row still in the block."""
    x = np.array(x0, dtype=float)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    out = np.empty_like(x)
    rows = np.arange(len(x))
    for _ in range(DYKSTRA_MAX_SWEEPS):
        xp = x + p
        y = project_a(xp)
        p = xp - y
        yq = y + q
        x_new = project_b(yq)
        q = yq - x_new
        # the larger step as Python's max(a, b) picks it: b only when b > a
        a, b = norms(np.array((y - x_new, x_new - x)))
        gap = np.where(b > a, b, a)
        x = x_new
        done = gap <= DYKSTRA_TOL
        if done.all():
            out[rows] = x
            return out
        if done.any():
            out[rows[done]] = x[done]
            still = ~done
            rows, x, p, q, gap = rows[still], x[still], p[still], q[still], gap[still]
    raise ConvergenceError("Dykstra did not reach the intersection", float(gap[0]))


def distance_to_solution_set(prob: ProblemInstance, cert: OptimalityCertificate, x):
    """d(x, 𝒳) with 𝒳 = {z : A(z) = ȳ} ∩ Γ_P(ḡ), as a float for one point
    of x*'s shape, and as an array for a stack of them along a leading
    axis: a single point is a stack of one, and a stack runs one Dykstra on
    the s×k block of its reduced coordinates, which gives each point the
    distance of its own call.

    That set is 𝒳 only for a loss strongly convex on compacts; any other
    loss raises InvalidInputError.  With the identity map f = h is strongly
    convex and this is just ‖x − x*‖.  Otherwise, with w = T*(x − c) in the
    certificate's reduced set,

        d² = ‖(x − c) − T w‖² + ‖w − Π(w)‖²,

    where Π, the projection onto K ∩ {B z = r}, alternates the exact
    projection onto {B z = r} with that onto K by Dykstra.  When Dykstra
    stops after two sweeps, as where B is injective and its least-squares
    point lies in K, d is exact to rounding.  Otherwise Dykstra stops when a
    sweep's step falls below DYKSTRA_TOL, which bounds no error in general:
    measured against an exact active-set enumeration on the
    orthant-dense and orthant-wide configs (null B of dimension 1 and 3),
    it is at most 1.5e-10 absolute.  Raises
    InvalidInputError for a point with a non-finite entry or of a shape
    other than x*'s (a scalar does not broadcast), and
    ConvergenceError when the reduced set's gap exceeds DYKSTRA_TOL (the two
    pieces do not meet) or when Dykstra exhausts its budget, with the gap
    of the first point that does.
    """
    if not prob.smooth.h.strongly_convex_on_compacts:
        raise InvalidInputError("the distance to the solution set needs a loss strongly "
                                "convex on compact sets: for any other loss "
                                "{A z = ȳ} ∩ Γ_P(ḡ) need not be the solution set")
    shape = cert.x_star.shape
    xs = np.asarray(x, dtype=float)
    single = xs.shape == shape
    if single:
        xs = xs[None]
    elif xs.shape[1:] != shape or xs.ndim != len(shape) + 1:
        raise InvalidInputError(f"distance_to_solution_set point takes shape {shape}, or a "
                                f"stack of points of that shape, got {xs.shape}")
    _require_finite(xs, "distance_to_solution_set point")
    if prob.smooth.A.is_identity:
        d = norms(xs - cert.x_star, len(shape))
    else:
        red = cert.reduced
        if red.gap > DYKSTRA_TOL:
            raise ConvergenceError("{A z = ȳ} and Γ_P(ḡ) do not meet", red.gap)
        image = cert.image
        v = xs - image.c
        w = image.T_adj(v)
        z = _dykstra(w, lambda u: u - _products(red.B_pinv, _products(red.B, u) - red.r),
                     image.project_K)
        d = np.hypot(norms(v - image.T(w), len(shape)), norms(w - z))
    return float(d[0]) if single else d
