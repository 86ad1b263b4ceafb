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
from .space import MAX_ENTRIES, _require_finite, _require_integer, _shaped, line_fit, norms


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

    def pending(self, x_star, radii) -> tuple:
        """(radius, direction index, X, None): the points stacked in X, for
        each radius, then each direction, with each point's radius and
        direction index in the first two arrays; distances are left to probe.
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
        return (np.repeat(rhos, self.count), np.tile(np.arange(self.count), rhos.size),
                points.reshape((rhos.size * self.count, *x_star.shape)), None)


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

    def pending(self, x_star, radii) -> tuple:
        """(parameter, direction index 0, X, distance), each point's in the
        arrays, the points stacked in X; a point not of x*'s shape raises
        InvalidInputError.  The curve ignores the radii."""
        X = [_shaped(point, x_star.shape, "curve point") for point in self.points]
        return (np.asarray(self.params, dtype=float), np.zeros(len(X), dtype=int),
                np.reshape(X, (len(X), *x_star.shape)), np.asarray(self.distances, dtype=float))


def probe(prob: ProblemInstance, cert: OptimalityCertificate, radii, directions) -> list:
    """Sample the points that `directions` lays out (`pending`: x* + ρ·u for
    RandomDirections, its own points for a Curve) and record
    (d(x,𝒳), ‖R(x)‖, r_alt(x), F(x)) per sample.

    A call evaluates the stack of points that `pending` lays out as arrays.
    CompositeSmooth.at_each forms y and ∇f, one ∇h call per row panel of A,
    and rejects the points outside dom(f), forming no ∇h where they lie
    outside.  The kept points then go through one stacked call each of f,
    prox_diff, subdiff_distance (inside alt_residual) and P, and, unless the
    layout brings distances (a curve does), one distance_to_solution_set
    call, which runs one Dykstra on all of them.  Given the stacked y and
    ∇f, each sample's figures are bit for bit those of the one-point
    functions; y and ∇f themselves differ from a per-point
    `CompositeSmooth.at` by rounding.
    When the subdifferential of P is empty at a sample, r_alt is recorded
    as inf.  No points at all raises InvalidInputError, and every point
    rejected raises EmptyProbeError; a distance that fails raises the
    error of the first sample, in order, whose distance fails.
    Samples are ordered by (radius, direction index) as generated, so
    reports are reproducible.
    """
    params, ids, X, d = directions.pending(cert.x_star, radii)
    if not len(X):
        raise InvalidInputError("probe has no points: no radii, directions or curve points")
    live, X, Y, G = prob.smooth.at_each(X)
    if not live.size:
        raise EmptyProbeError("all probe points were rejected")
    d = distance_to_solution_set(prob, cert, X) if d is None else d[live]
    r_prox = norms(prob.reg.prox_diff(X, G, stack=True), cert.x_star.ndim)
    r_alt = alt_residual(prob, cert, X, Y)
    F = prob.smooth._value(X, Y) + prob.reg.value(X, stack=True)
    return [ProbeSample(x, float(params[i]), int(ids[i]), *map(float, figures))
            for i, x, *figures in zip(live, X, d, r_prox, r_alt, F)]


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
    """The certificate's report of its Γ_P(ḡ), which holds s̄, Ū₁ and V̄₁;
    raises InvalidInputError when Γ_P(ḡ) is polyhedral and needs no such
    condition, InfeasibleTargetError when it is empty."""
    if cert.image.polyhedral:
        raise InvalidInputError("strict complementarity applies to nuclear-norm instances")
    return cert.complementarity


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
    if cert.image.polyhedral:
        return RegularitySummary(POLYHEDRAL, True)
    if cert.complementarity.holds:
        return RegularitySummary(NUCLEAR_WITH_SC, True)
    return RegularitySummary(UNVERIFIED, False)
