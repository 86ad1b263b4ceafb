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
from .space import LinearMap, _require_finite, affine_project, norm  # noqa: F401

CERT_TOL = 1e-9
#: Dykstra stops when an iterate moves less than this, or fails after the
#: budget; a reduced set whose gap (see ReducedSet) exceeds it does not meet
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
    """R(x) = prox_P(x − ∇f(x)) − x, with the unit prox step."""
    x = np.asarray(x, dtype=float)
    return prob.reg.prox_diff(x, prob.smooth.gradient(x))


def certify(prob: ProblemInstance, x, tol: float = CERT_TOL) -> OptimalityCertificate:
    """Verify ‖R(x)‖ ≤ tol and freeze the invariants (ȳ, ḡ); a NaN or
    infinite ‖R(x)‖ is not optimal."""
    x = np.asarray(x, dtype=float)
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


def alt_residual(prob: ProblemInstance, cert: OptimalityCertificate, x, y) -> float:
    """r_alt at x, given y = A(x); raises DomainError where ∂P(x) is empty."""
    if not prob.smooth.h.strongly_convex_on_compacts:
        return float("nan")
    return norm(y - cert.y_bar) + prob.reg.subdiff_distance(x, -cert.g_bar)


def _dykstra(x0, project_a, project_b):
    """Projection of x0 onto the intersection of two closed convex sets."""
    x = np.asarray(x0, dtype=float).copy()
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(DYKSTRA_MAX_SWEEPS):
        y = project_a(x + p)
        p = x + p - y
        x_new = project_b(y + q)
        q = y + q - x_new
        gap = max(norm(y - x_new), norm(x_new - x))
        x = x_new
        if gap <= DYKSTRA_TOL:
            return x
    raise ConvergenceError("Dykstra did not reach the intersection", gap)


def distance_to_solution_set(prob: ProblemInstance, cert: OptimalityCertificate, x) -> float:
    """d(x, 𝒳) with 𝒳 = {z : A(z) = ȳ} ∩ Γ_P(ḡ).

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
    InvalidInputError for a point with a non-finite entry, and
    ConvergenceError when the reduced set's gap exceeds DYKSTRA_TOL (the two
    pieces do not meet) or when Dykstra exhausts its budget.
    """
    if not prob.smooth.h.strongly_convex_on_compacts:
        raise InvalidInputError("the distance to the solution set needs a loss strongly "
                                "convex on compact sets: for any other loss "
                                "{A z = ȳ} ∩ Γ_P(ḡ) need not be the solution set")
    x = np.asarray(x, dtype=float)
    _require_finite(x, "distance_to_solution_set point")
    if prob.smooth.A.is_identity:
        return norm(x - cert.x_star)
    red = cert.reduced
    if red.gap > DYKSTRA_TOL:
        raise ConvergenceError("{A z = ȳ} and Γ_P(ḡ) do not meet", red.gap)
    image = cert.image
    v = x - image.c
    w = image.T_adj(v)
    z = _dykstra(w, lambda u: u - red.B_pinv @ (red.B @ u - red.r), image.project_K)
    return float(np.hypot(norm(v - image.T(w)), norm(w - z)))
