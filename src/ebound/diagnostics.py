"""Empirical error-bound probing: sampled (d, ‖R‖, r_alt) triples, log-log
exponent fits, and the regularity classification that predicts whether a
Lipschitzian error bound should hold.  The classification reads the
certificate's Γ_P(ḡ), which states what the bound needs beyond it: nothing
for a polyhedral set, strict complementarity for the nuclear norm's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyProbeError, InsufficientDataError, InvalidInputError
from .problem import (
    OptimalityCertificate,
    ProblemInstance,
    alt_residual,
    distance_to_solution_set,
)
from .regularizers import ComplementarityReport
from .space import line_fit, norm


@dataclass(frozen=True)
class ProbeSample:
    x: np.ndarray
    radius: float
    direction_id: int
    d: float
    r_prox: float
    r_alt: float
    F_val: float


@dataclass(frozen=True)
class RandomDirections:
    count: int
    seed: int


@dataclass(frozen=True)
class Curve:
    """Explicit probe points with their curve parameters (used as radii) and
    the exact distance of each point to the solution set."""

    params: tuple
    points: tuple
    distances: tuple

    @classmethod
    def from_map(cls, params, point_fn, distance_fn):
        params = tuple(float(p) for p in params)
        points = tuple(point_fn(p) for p in params)
        return cls(params, points, tuple(float(distance_fn(x)) for x in points))


def _unit_directions(shape, count, seed):
    rng = np.random.default_rng(seed)
    dirs = []
    for _ in range(count):
        u = rng.standard_normal(shape)
        dirs.append(u / norm(u))
    return dirs


def probe(prob: ProblemInstance, cert: OptimalityCertificate, radii, directions) -> list:
    """Sample x = x* + ρ·u (or explicit curve points) and record
    (d(x,𝒳), ‖R(x)‖, r_alt(x), F(x)) per sample.

    A curve brings its own distances; around x* they are measured by
    distance_to_solution_set.  f is evaluated once per sample, and that one
    evaluation (one application of A and one of its adjoint) gives ‖R(x)‖,
    r_alt and F.  Points outside dom(f) are rejected; when the
    subdifferential of P is empty at a sample, r_alt is recorded as inf.
    No points at all raises InvalidInputError, and every point rejected
    raises EmptyProbeError.
    Samples are ordered by (radius, direction index) as generated, so
    reports are reproducible.
    """
    if isinstance(directions, Curve):
        pending = [(float(p), 0, np.asarray(pt, dtype=float), d) for p, pt, d in
                   zip(directions.params, directions.points, directions.distances)]
    else:
        units = _unit_directions(cert.x_star.shape, directions.count, directions.seed)
        pending = [(float(rho), j, cert.x_star + rho * u, None)
                   for rho in radii for j, u in enumerate(units)]
    if not pending:
        raise InvalidInputError("probe has no points: no radii, directions or curve points")

    samples = []
    for rho, j, x, d in pending:
        try:
            point = prob.smooth.at(x)
        except DomainError:
            continue
        if d is None:
            d = distance_to_solution_set(prob, cert, x)
        rp = norm(prob.reg.prox_diff(x, point.gradient))
        try:
            ra = alt_residual(prob, cert, x, point.y)
        except DomainError:
            ra = float("inf")
        samples.append(ProbeSample(
            x=x, radius=rho, direction_id=j, d=d, r_prox=rp, r_alt=ra,
            F_val=point.value + prob.reg.value(x),
        ))
    if not samples:
        raise EmptyProbeError("all probe points were rejected")
    return samples


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    r_squared: float
    kappa_max: float


def fit_exponent(samples, envelope: bool = False) -> ExponentFit:
    """Least-squares line through (log d, log r_prox).

    A slope near 1 is the Lipschitzian error-bound signature; the
    counterexample curve shows slope 2.  With envelope=True only the sample
    with the largest r_prox at each radius (or curve parameter) is fitted, at
    its own d, so direction averaging cannot mask the worst case.  kappa_max
    = max d/r_prox is always taken over all usable samples.
    """
    usable = [s for s in samples if s.d > 0 and s.r_prox > 0]
    if len(usable) < 4:
        raise InsufficientDataError(f"need >= 4 samples with d, r_prox > 0, got {len(usable)}")
    kappa_max = max(s.d / s.r_prox for s in usable)
    if envelope:
        # later entries win, so each radius keeps its largest r_prox
        worst = {s.radius: s for s in sorted(usable, key=lambda s: s.r_prox)}
        usable = [worst[rho] for rho in sorted(worst)]
        if len(usable) < 4:
            raise InsufficientDataError("fewer than 4 distinct radii for the envelope fit")
    logd = np.log(np.array([s.d for s in usable]))
    logr = np.log(np.array([s.r_prox for s in usable]))
    slope, intercept, r_squared = line_fit(logd, logr)
    return ExponentFit(slope=slope, intercept=intercept, r_squared=r_squared,
                       kappa_max=float(kappa_max))


def kappa_by_decade(samples) -> dict:
    """max d/r_prox grouped by the decade of the sample radius."""
    out = {}
    for s in samples:
        if s.d <= 0 or s.r_prox <= 0 or s.radius <= 0:
            continue
        decade = int(math.floor(math.log10(s.radius) + 1e-12))
        out[decade] = max(out.get(decade, 0.0), s.d / s.r_prox)
    return out


def strict_complementarity(prob: ProblemInstance,
                           cert: OptimalityCertificate) -> ComplementarityReport:
    """The report of the certificate's Γ_P(ḡ), which holds s̄, Ū₁ and V̄₁;
    raises InvalidInputError when Γ_P(ḡ) is polyhedral and needs no such
    condition, InfeasibleTargetError when it is empty."""
    report = cert.image.complementarity(cert.x_star)
    if report is None:
        raise InvalidInputError("strict complementarity applies to nuclear-norm instances")
    return report


STRONGLY_CONVEX = "strongly_convex"
POLYHEDRAL = "polyhedral"
NUCLEAR_WITH_SC = "nuclear_with_sc"
UNVERIFIED = "unverified"


@dataclass(frozen=True)
class RegularitySummary:
    condition: str
    eb_expected: bool
    detail: str


def regularity_summary(prob: ProblemInstance, cert: OptimalityCertificate) -> RegularitySummary:
    """Which sufficient condition for the Lipschitzian error bound applies.

    The strongly-convex and polyhedral routes both require the loss to be
    strongly convex with Lipschitz gradient on compact sets; without that
    the instance is reported as unverified.  Past the identity map, the
    certificate's Γ_P(ḡ), which must not be empty, says what the bound needs.
    """
    if not prob.smooth.h.strongly_convex_on_compacts:
        return RegularitySummary(
            UNVERIFIED, False,
            "loss is not strongly convex on compact sets; no sufficient condition applies",
        )
    if prob.smooth.A.is_identity:
        return RegularitySummary(
            STRONGLY_CONVEX, True, "identity operator makes f strongly convex on compacts",
        )
    report = cert.image.complementarity(cert.x_star)
    if report is None:
        return RegularitySummary(
            POLYHEDRAL, True,
            "the inverse image of the subdifferential at the certificate is polyhedral",
        )
    if report.holds:
        return RegularitySummary(
            NUCLEAR_WITH_SC, True,
            f"strict complementarity holds (s_bar = rank = {report.s_bar})",
        )
    return RegularitySummary(
        UNVERIFIED, False,
        f"strict complementarity fails (s_bar = {report.s_bar}, rank = {report.rank_x})",
    )
