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

from .errors import EmptyProbeError, InsufficientDataError, InvalidInputError
from .problem import (
    OptimalityCertificate,
    ProblemInstance,
    alt_residual,
    distance_to_solution_set,
)
from .regularizers import ComplementarityReport
from .space import MAX_ENTRIES, _require_finite, _require_integer, line_fit, norms


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
    """`count` unit directions drawn from one seeded normal generator; each
    radius ρ samples x* + ρ·u along every direction u.  count and seed must
    be integers >= 0 (numpy integers included), else InvalidInputError; a
    count of 0 lays out no points, which probe rejects the same way."""

    count: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "count", _require_integer(self.count, "directions count", 0))
        object.__setattr__(self, "seed", _require_integer(self.seed, "directions seed", 0))

    def pending(self, x_star, radii) -> list:
        """(radius, direction index, point, None) for each radius, then each
        direction, as probe samples them; the distance is left to probe.
        radii must be a 1-d array of finite numbers >= 0 (numpy's included;
        radius 0 samples x* itself), else InvalidInputError, which a layout
        of more than MAX_ENTRIES entries (count × radii × x*'s entries) also
        raises, before any is drawn.  One draw of shape (count, *x*.shape)
        gives every direction, the numbers that `count` draws of x*'s shape
        would give."""
        rhos = np.asarray(radii, dtype=float)
        if rhos.ndim != 1 or not np.all((rhos >= 0) & (rhos < np.inf)):
            raise InvalidInputError(f"radii must be a 1-d array of finite numbers >= 0, "
                                    f"got {radii!r}")
        entries = self.count * rhos.size * x_star.size
        if entries > MAX_ENTRIES:
            raise InvalidInputError(f"{self.count} directions × {rhos.size} radii × "
                                    f"{x_star.size} entries lay out {entries} entries, "
                                    f"more than {MAX_ENTRIES}")
        u = np.random.default_rng(self.seed).standard_normal((self.count, *x_star.shape))
        axes = (1,) * x_star.ndim
        units = u / norms(u, x_star.ndim).reshape((-1, *axes))
        points = x_star + rhos.reshape((-1, 1, *axes)) * units
        return [(float(rho), j, x, None)
                for rho, row in zip(rhos, points) for j, x in enumerate(row)]


@dataclass(frozen=True)
class Curve:
    """Explicit probe points with their curve parameters (used as radii) and
    the exact distance of each point to the solution set.  There must be as
    many of each, the parameters and points finite (a parameter may be
    negative, and probe rejects a point outside dom(f)) and the distances
    finite and >= 0, else InvalidInputError."""

    params: tuple
    points: tuple
    distances: tuple

    def __post_init__(self):
        sizes = {len(self.params), len(self.points), len(self.distances)}
        if len(sizes) != 1:
            raise InvalidInputError(
                f"a curve takes as many params, points and distances, got {len(self.params)}, "
                f"{len(self.points)} and {len(self.distances)}")
        params = np.asarray(self.params, dtype=float)
        if params.ndim != 1:
            raise InvalidInputError(f"curve params must be numbers, got {self.params!r}")
        _require_finite(params, "curve params")
        for point in self.points:
            _require_finite(np.asarray(point, dtype=float), "curve point")
        d = np.asarray(self.distances, dtype=float)
        if not np.all((d >= 0) & (d < np.inf)):
            raise InvalidInputError(f"curve distances must be finite and >= 0, got {d!r}")

    @classmethod
    def from_map(cls, params, point_fn, distance_fn):
        params = tuple(float(p) for p in params)
        points = tuple(point_fn(p) for p in params)
        return cls(params, points, tuple(float(distance_fn(x)) for x in points))

    def pending(self, x_star, radii) -> list:
        """(parameter, 0, point, distance) for each curve point; the curve
        ignores x* and the radii."""
        return [(float(p), 0, np.asarray(pt, dtype=float), d)
                for p, pt, d in zip(self.params, self.points, self.distances)]


def probe(prob: ProblemInstance, cert: OptimalityCertificate, radii, directions) -> list:
    """Sample the points that `directions` lays out (`pending`: x* + ρ·u for
    RandomDirections, its own points for a Curve) and record
    (d(x,𝒳), ‖R(x)‖, r_alt(x), F(x)) per sample.

    A call evaluates its points as one stack.  f and its gradient come from
    CompositeSmooth.at_each: one stacked application of A and one of its
    adjoint, each a single matrix–matrix product on a dense map; on a dense
    map of more than one row panel with a loss that splits, both products
    are formed panel by panel, and ∇f is the sum of the panels' terms.
    Points outside dom(f) are rejected there, and no ∇h is formed where
    they lie outside.  The kept points then go through one stacked call
    each of prox_diff, subdiff_distance (inside alt_residual) and value, and
    those without a distance of their own (a curve brings its distances)
    through one distance_to_solution_set call, which runs one Dykstra on
    all of them.  Given the stacked y and ∇f, each sample's figures are bit
    for bit those of the one-point functions; y and ∇f themselves differ
    from a per-point `CompositeSmooth.at` by rounding.
    When the subdifferential of P is empty at a sample, r_alt is recorded
    as inf.  No points at all raises InvalidInputError, and every point
    rejected raises EmptyProbeError; a distance that fails raises the
    error of the first sample, in order, whose distance fails.
    Samples are ordered by (radius, direction index) as generated, so
    reports are reproducible.
    """
    pending = directions.pending(cert.x_star, radii)
    if not pending:
        raise InvalidInputError("probe has no points: no radii, directions or curve points")
    evaluated = prob.smooth.at_each([x for _, _, x, _ in pending])
    kept = [(p, point) for p, point in zip(pending, evaluated) if point is not None]
    if not kept:
        raise EmptyProbeError("all probe points were rejected")

    x = np.array([point.x for _, point in kept])
    measure = np.array([p[3] is None for p, _ in kept])
    d = np.array([0.0 if p[3] is None else p[3] for p, _ in kept], dtype=float)
    if measure.any():
        d[measure] = distance_to_solution_set(prob, cert, x[measure])
    r_prox = norms(prob.reg.prox_diff(x, np.array([point.gradient for _, point in kept]),
                                      stack=True), cert.x_star.ndim)
    r_alt = alt_residual(prob, cert, x, np.array([point.y for _, point in kept]))
    F = np.array([point.value for _, point in kept]) + prob.reg.value(x, stack=True)
    return [ProbeSample(x=point.x, radius=rho, direction_id=j, d=float(d[i]),
                        r_prox=float(r_prox[i]), r_alt=float(r_alt[i]), F_val=float(F[i]))
            for i, ((rho, j, _, _), point) in enumerate(kept)]


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


def regularity_summary(prob: ProblemInstance, cert: OptimalityCertificate) -> RegularitySummary:
    """Which sufficient condition for the Lipschitzian error bound applies.

    The strongly-convex and polyhedral routes both require the loss to be
    strongly convex with Lipschitz gradient on compact sets; without that
    the instance is reported as unverified.  Past the identity map, the
    certificate's Γ_P(ḡ), which must not be empty, says what the bound needs.
    """
    if not prob.smooth.h.strongly_convex_on_compacts:
        return RegularitySummary(UNVERIFIED, False)
    if prob.smooth.A.is_identity:
        return RegularitySummary(STRONGLY_CONVEX, True)
    report = cert.image.complementarity(cert.x_star)
    if report is None:
        return RegularitySummary(POLYHEDRAL, True)
    if report.holds:
        return RegularitySummary(NUCLEAR_WITH_SC, True)
    return RegularitySummary(UNVERIFIED, False)
