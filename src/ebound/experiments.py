"""Named experiments: instance builders, the scenario table, one run
pipeline, and report files (samples.csv, loglog.csv, fit.json, summary.txt).

Every experiment applies the same recipe: build the instance, solve it
unless its optimum is known in closed form, certify the optimum (freezing
ȳ = A(x*) and ḡ = ∇f(x*)), sample probe points, fit the exponent, evaluate
the scenario's assertions, classify the regularity condition, and write the
reports.  A Scenario holds only data: what differs between experiments.

Every experiment is deterministic given (config, seed): the same inputs
produce byte-identical output files.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from .config import EXPERIMENTS, settings, validated_problem
from .diagnostics import (
    Curve,
    ExponentFit,
    RandomDirections,
    fit_exponent,
    kappa_by_decade,
    probe,
    regularity_summary,
    strict_complementarity,
)
from .errors import ConfigError, InsufficientDataError, NotOptimalError
from .losses import CompositeSmooth, GeneralQuadratic, LeastSquares, NoncompactExample
from .problem import OptimalityCertificate, ProblemInstance, certify, residual_map
from .regularizers import L1, GroupedLasso, NuclearNorm, OrthantIndicator, Ridge
from .solver import (ITERATION_LIMIT, RATE_MIN_R_SQUARED, Backtracking, Fixed, SolveTrace,
                     estimate_linear_rate, lipschitz_bound, proximal_gradient)
from .space import CoordinateSelectMap, DenseMap, IdentityMap, norm

DEFAULT_RADII = np.logspace(-2, -4, 9)
PROBE_SEED_OFFSET = 1000
#: certification tolerance at an optimum known in closed form
KNOWN_OPTIMUM_TOL = 1e-10
#: iteration budget of a run's solve
SOLVER_MAX_ITER = 200000
#: sizes of the random suites: the lasso matrix, grouped-lasso rows, ridge dimension
LASSO_SHAPE, GROUPED_LASSO_ROWS, RIDGE_DIM = (6, 8), 7, 8


# ---------------------------------------------------------------------------
# instance builders
# ---------------------------------------------------------------------------

def counterexample_instance():
    """2×2 nuclear-norm problem whose feasible point is its unique optimum
    diag(1, 0), where strict complementarity fails; the residual vanishes
    quadratically along the curve below while the distance shrinks only
    linearly."""
    B = np.array([[1.5, -2.0], [-2.0, 3.0]])
    d = np.array([2.5, -1.0])
    A = CoordinateSelectMap(((0, 0), (1, 1)), (2, 2))
    smooth = CompositeSmooth(GeneralQuadratic(B, d), A, np.zeros((2, 2)))
    return ProblemInstance(smooth, NuclearNorm(), np.diag([1.0, 0.0]))


def counterexample_curve_point(delta: float) -> np.ndarray:
    return np.array([[1.0 + 2.0 * delta**2, delta], [delta, delta**2]])


def noncompact_instance():
    """The two-variable instance whose solution set is the ray
    {(x, 0) : x ≤ 0}: residuals vanish along (x, 1) as x → −∞ while the
    distance to the ray stays 1, so no (Hölderian) error bound holds."""
    smooth = CompositeSmooth(NoncompactExample(), IdentityMap((2,)), np.zeros(2))
    prob = ProblemInstance(smooth, OrthantIndicator([-1, 1]), np.array([-1.0, 0.0]))
    return prob


def noncompact_ray_distance(point) -> float:
    """Exact distance to the solution ray {(x, 0) : x ≤ 0}."""
    x, y = point
    return math.hypot(max(x, 0.0), y)


def nuclear_regular_instance():
    """Nuclear-norm instance whose feasible point is the optimum I, where
    strict complementarity holds; the solution set is {[[1, t], [t, 1]] : |t| ≤ 1}."""
    B = 2.0 * np.eye(2)
    d = np.array([3.0, 3.0])
    A = CoordinateSelectMap(((0, 0), (1, 1)), (2, 2))
    smooth = CompositeSmooth(GeneralQuadratic(B, d), A, np.zeros((2, 2)))
    return ProblemInstance(smooth, NuclearNorm(), np.eye(2))


def ridge_instance(seed: int):
    """Strongly convex suite member: random well-conditioned quadratic loss
    with identity operator and a ridge penalty."""
    rng = np.random.default_rng(seed)
    n = RIDGE_DIM
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(0.5, 2.5, n)
    B = (Q * eigs) @ Q.T
    B = (B + B.T) / 2.0
    d = rng.standard_normal(n)
    smooth = CompositeSmooth(GeneralQuadratic(B, d), IdentityMap((n,)), np.zeros(n))
    return ProblemInstance(smooth, Ridge(0.3), np.zeros(n))


def lasso_instance(seed: int):
    """Underdetermined least-squares with an L1 penalty (scenario with a
    polyhedral inverse image, so the error bound is expected)."""
    rng = np.random.default_rng(seed)
    m, n = LASSO_SHAPE
    M = rng.standard_normal((m, n))
    x_true = np.zeros(n)
    x_true[0], x_true[3] = 1.5, -2.0
    b = M @ x_true + 0.05 * rng.standard_normal(m)
    lam = 0.3 * float(np.max(np.abs(M.T @ b)))
    smooth = CompositeSmooth(LeastSquares(b), DenseMap(M, (n,)), np.zeros(n))
    return ProblemInstance(smooth, L1(lam), np.zeros(n))


def grouped_lasso_instance(seed: int):
    """Grouped LASSO on three blocks of three coordinates; weights chosen so
    some groups are active and some vanish at the optimum."""
    rng = np.random.default_rng(seed)
    groups = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    m, n = GROUPED_LASSO_ROWS, 9
    M = rng.standard_normal((m, n))
    x_true = np.zeros(n)
    x_true[:3] = [1.0, -1.5, 0.5]
    b = M @ x_true + 0.05 * rng.standard_normal(m)
    grad0 = M.T @ (M @ np.zeros(n) - b)
    scale = max(np.linalg.norm(grad0[J]) for J in groups)
    weights = [0.45 * scale] * len(groups)
    smooth = CompositeSmooth(LeastSquares(b), DenseMap(M, (n,)), np.zeros(n))
    return ProblemInstance(smooth, GroupedLasso(groups, weights), np.zeros(n))


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    return f"{v:.17g}"


def _write_reports(out_dir: Path, name: str, samples, payload: dict, lines):
    """samples.csv, loglog.csv, fit.json (the payload) and summary.txt."""
    rows = ["radius,direction_id,d,r_prox,r_alt,F_val"]
    rows += [f"{_fmt(s.radius)},{s.direction_id},{_fmt(s.d)},{_fmt(s.r_prox)},"
             f"{_fmt(s.r_alt)},{_fmt(s.F_val)}" for s in samples]
    loglog = ["log10_d,log10_r_prox"]
    loglog += [f"{_fmt(math.log10(s.d))},{_fmt(math.log10(s.r_prox))}"
               for s in samples if s.d > 0 and s.r_prox > 0]
    assertions = payload["assertions"]
    summary = [f"experiment: {name}", *lines]
    summary += [f"{'PASS' if a['passed'] else 'FAIL'} {a['name']}: {a['detail']}"
                for a in assertions]
    summary.append(f"overall: {'PASS' if all(a['passed'] for a in assertions) else 'FAIL'}")
    for file, text in (("samples.csv", rows), ("loglog.csv", loglog), ("summary.txt", summary)):
        (out_dir / file).write_text("\n".join(text) + "\n")
    (out_dir / "fit.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _envelope_payload(samples):
    """Worst-case (max r_prox per radius) variant of the exponent fit, so
    direction averaging cannot mask a bad direction."""
    try:
        return asdict(fit_exponent(samples, envelope=True))
    except InsufficientDataError:
        return None


def _solver_settings(config, prob):
    """(step, tol, SOLVER_MAX_ITER): a fixed 1/L step when ∇f has a global
    Lipschitz constant L > 0 (exact convergence, no f-value comparisons),
    else backtracking with its defaults; tol is the config's."""
    L = lipschitz_bound(prob)
    step = Fixed(1.0 / L) if L else Backtracking()
    return step, settings(config, "solver")["tol"], SOLVER_MAX_ITER


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

@dataclass
class Run:
    """One experiment in progress: what the pipeline has computed so far.
    Assertions read it; some add the figures they measured to extra and
    summary lines to notes."""

    scenario: Scenario
    config: dict
    prob: ProblemInstance
    cert: OptimalityCertificate | None = None
    trace: SolveTrace | None = None
    samples: list = field(default_factory=list)
    fit: ExponentFit | None = None
    extra: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def seed(self) -> int:
        return settings(self.config)["seed"]

    @property
    def radii(self) -> np.ndarray:
        spec = settings(self.config, "probe")["radii"]
        return self.scenario.radii if spec is None else np.asarray(spec, dtype=float)

    @cached_property
    def decades(self) -> dict:
        return kappa_by_decade(self.samples)


def _assertion(name, passed, detail):
    return {"name": name, "passed": bool(passed), "detail": detail}


# samplers ------------------------------------------------------------------

def _random_directions(run):
    directions = RandomDirections(count=settings(run.config, "probe")["directions"],
                                  seed=run.seed + PROBE_SEED_OFFSET)
    return probe(run.prob, run.cert, run.radii, directions)


def _counterexample_curve(run):
    """The curve toward the unique optimum x*, whose distance is ‖x − x*‖."""
    curve = Curve.from_map(run.radii, counterexample_curve_point,
                           lambda x: norm(x - run.cert.x_star))
    return probe(run.prob, run.cert, None, curve)


def _ray(config):
    """Ray abscissae and height from the config's noncompact block; y is read
    as a float, so an integer height reports as the same number."""
    block = settings(config, "noncompact")
    return np.linspace(block["x_start"], block["x_stop"], block["count"]), float(block["y"])


def _noncompact_ray(run):
    """Points (x, y) along the ray, each with its exact distance to the
    solution ray."""
    xs, y = _ray(run.config)
    run.notes.append(f"ray: x from {xs[0]:g} to {xs[-1]:g} at y = {y:g}")
    curve = Curve.from_map(xs, lambda x: np.array([x, y]), noncompact_ray_distance)
    return probe(run.prob, run.cert, None, curve)


# shared assertions ---------------------------------------------------------

def _certified(run):
    r = run.cert.residual_norm
    if run.trace is None:
        return _assertion("certified", True, f"residual at the optimum {r:.3e}")
    return _assertion("certified", True, f"optimum certified with residual {r:.3e} "
                      f"after {len(run.trace.iterations) - 1} iterations")


def _slope_is_lipschitz(run):
    fit = run.fit
    return _assertion("slope_is_lipschitz", 0.85 <= fit.slope <= 1.15,
                      f"slope {fit.slope:.4f}, R² {fit.r_squared:.4f}")


def _kappa_stable_across_decades(run):
    vals = list(run.decades.values())
    spread = max(vals) / min(vals) if vals else float("inf")
    return _assertion(
        "kappa_stable_across_decades", len(vals) >= 2 and spread <= 2.0,
        f"kappa_max by decade {dict(sorted(run.decades.items()))}, spread {spread:.3f}×")


def _residuals_comparable(run):
    ratios = [s.r_prox / s.r_alt for s in run.samples
              if s.r_alt > 0 and np.isfinite(s.r_alt) and s.r_prox > 0]
    two_sided = max(ratios) / min(ratios) if ratios else float("inf")
    return _assertion("residuals_comparable", two_sided <= 1e3,
                      f"max/min of r_prox/r_alt = {two_sided:.4g} (threshold 1e3)")


def _complementarity(holds: bool, s_bar: int, rank_x: int):
    """Strict complementarity at the certificate, expected to hold or fail
    with the given s̄ and rank(x*)."""
    name = "strict_complementarity_holds" if holds else "strict_complementarity_fails"

    def check(run):
        report = strict_complementarity(run.prob, run.cert)
        run.extra["complementarity"] = asdict(report)
        return _assertion(
            name, report.holds == holds and report.s_bar == s_bar and report.rank_x == rank_x,
            f"s_bar {report.s_bar}, rank {report.rank_x}, margin {report.margin:.3e}")
    return check


def _linear_convergence(run):
    rng = np.random.default_rng(run.seed + 7)
    x0 = run.cert.x_star + 2.0 * rng.standard_normal(run.cert.x_star.shape)
    trace = proximal_gradient(run.prob, x0, step=Fixed(1.0 / lipschitz_bound(run.prob)),
                              tol=1e-12, max_iter=5000)
    rate = estimate_linear_rate(trace)
    if rate is not None:
        run.extra["linear_rate"] = rate
    return _assertion("linear_convergence", rate is not None and rate <= 0.99,
                      f"fitted rate {rate:.4f} per iteration" if rate is not None
                      else f"rate fit rejected (R² < {RATE_MIN_R_SQUARED:g})")


def _probe_completed(run):
    return _assertion("probe_completed", True,
                      f"{len(run.samples)} samples, fitted slope {run.fit.slope:.4f}")


# counterexample assertions -------------------------------------------------

def _residual_matches_closed_form(run):
    worst = 0.0
    for delta in (1e-1, 1e-2, 1e-3):
        xk = counterexample_curve_point(delta)
        expected = np.diag([-delta**2, delta**2])
        worst = max(worst, float(np.max(np.abs(residual_map(run.prob, xk) - expected))))
    return _assertion("residual_matches_closed_form", worst <= 1e-10,
                      f"max entrywise deviation {worst:.3e} (tolerance 1e-10)")


def _optimal_point_residual(run):
    r_opt = run.cert.residual_norm
    return _assertion("optimal_point_residual", r_opt <= 1e-10, f"‖R(x̄)‖ = {r_opt:.3e}")


def _solver_reaches_unique_optimum(run):
    step, tol, max_iter = _solver_settings(run.config, run.prob)
    trace = proximal_gradient(run.prob, np.diag([2.0, 1.0]), step=step,
                              tol=min(tol, 1e-8), max_iter=max_iter)
    gap = norm(trace.terminal - run.cert.x_star)
    return _assertion(
        "solver_reaches_unique_optimum", gap <= 1e-6,
        f"terminal point within {gap:.3e} of diag(1, 0) after "
        f"{len(trace.iterations) - 1} iterations")


def _curve_slope_is_two(run):
    fit = run.fit
    return _assertion("curve_slope_is_two", 1.9 <= fit.slope <= 2.1 and fit.r_squared >= 0.999,
                      f"slope {fit.slope:.4f}, R² {fit.r_squared:.6f}")


def _kappa_diverges(run):
    decades = run.decades
    growth = decades[-4] / decades[-3] if -4 in decades and -3 in decades else None
    return _assertion(
        "kappa_diverges", growth is not None and growth >= 8.0,
        f"kappa_max grows {growth:.2f}× from the 1e-3 decade to the 1e-4 decade"
        if growth is not None else "insufficient decades probed")


# noncompact assertions -----------------------------------------------------

def _along_ray(run):
    """(d, ‖R‖) toward x → −∞, whichever way the ray was listed."""
    order = np.argsort([-s.radius for s in run.samples])
    return (np.array([run.samples[i].d for i in order]),
            np.array([run.samples[i].r_prox for i in order]))


def _distance_stays_constant(run):
    y = abs(_ray(run.config)[1])
    deviation = np.max(np.abs(_along_ray(run)[0] - y))
    return _assertion("distance_stays_constant", bool(deviation <= 1e-12),
                      f"max |d − {y:g}| = {deviation:.3e}")


def _residual_decreases_monotonically(run):
    rs = _along_ray(run)[1]
    return _assertion("residual_decreases_monotonically", bool(np.all(np.diff(rs) < 0)),
                      f"‖R‖ falls from {rs[0]:.3e} to {rs[-1]:.3e}")


def _ratio_unbounded(run):
    ds, rs = _along_ray(run)
    # d = ‖R‖ = 0 is a point of the solution set, where the bound holds
    final_ratio = ds[-1] / rs[-1] if rs[-1] > 0 else float("inf") if ds[-1] > 0 else 0.0
    run.extra.update(final_ratio=final_ratio, ray_y=_ray(run.config)[1])
    run.notes.append("no error bound: the ratio d/‖R‖ grows without bound along the ray")
    return _assertion("ratio_unbounded", final_ratio > 1e10,
                      f"d/‖R‖ at the deepest ray point = {final_ratio:.3e} (threshold 1e10)")


# the table -----------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One named experiment as data.  build(config) returns the instance:
    with solve set, its feasible point is where the solver starts; otherwise
    it is the optimum known in closed form and is certified as given.  build
    is None for the custom problem, whose instance validation builds."""

    build: Callable | None
    solve: bool
    checks: tuple
    radii: np.ndarray | None  # default probe radii (curve parameters for a curve)
    sample: Callable = _random_directions
    #: False when the samples are not radii around x* (the noncompact ray):
    #: no exponent fit, kappa table or regularity class is reported
    fitted: bool = True


def _seeded(family):
    """Builder for an instance family indexed by the seed."""
    return lambda config: family(settings(config)["seed"])


_SUITE_CHECKS = (_certified, _slope_is_lipschitz, _kappa_stable_across_decades,
                 _residuals_comparable)

SCENARIOS = {
    "counterexample": Scenario(
        build=lambda config: counterexample_instance(), solve=False,
        sample=_counterexample_curve, radii=np.logspace(-1, -4, 13),
        checks=(_residual_matches_closed_form, _optimal_point_residual,
                _solver_reaches_unique_optimum, _curve_slope_is_two, _kappa_diverges,
                _complementarity(False, s_bar=2, rank_x=1))),
    "noncompact": Scenario(
        build=lambda config: noncompact_instance(), solve=False,
        sample=_noncompact_ray, radii=None, fitted=False,
        checks=(_distance_stays_constant, _residual_decreases_monotonically,
                _ratio_unbounded)),
    "grouped-lasso": Scenario(build=_seeded(grouped_lasso_instance),
                              solve=True, radii=DEFAULT_RADII, checks=_SUITE_CHECKS),
    "lasso": Scenario(build=_seeded(lasso_instance), solve=True,
                      radii=DEFAULT_RADII, checks=_SUITE_CHECKS),
    "strongly-convex": Scenario(build=_seeded(ridge_instance), solve=True,
                                radii=DEFAULT_RADII,
                                checks=_SUITE_CHECKS + (_linear_convergence,)),
    "nuclear-regular": Scenario(
        build=lambda config: nuclear_regular_instance(), solve=False,
        radii=np.logspace(-1.5, -3.5, 9),
        checks=(_certified, _complementarity(True, s_bar=2, rank_x=2), _slope_is_lipschitz)),
    "custom": Scenario(build=None, solve=True, radii=DEFAULT_RADII,
                       checks=(_certified, _probe_completed)),
}


def run_experiment(name: str, config: dict | None = None,
                   out_dir=None, seed: int | None = None):
    """Run a registry experiment; returns (exit_code, report dict).

    Exit code 0 when every per-experiment assertion passes, 1 otherwise.
    Unknown names and invalid configs raise ConfigError (usage errors).  A
    point that fails certification raises NotOptimalError, which names the
    solver's iteration limit when the solve stopped at it.
    """
    config = {} if config is None else config
    if isinstance(config, dict):  # anything else fails validation
        config = {"experiment": name, **config}
        if seed is not None:
            config["seed"] = seed
    custom = validated_problem(config)
    if config["experiment"] != name:
        raise ConfigError([f"config is for {config['experiment']!r}, not {name!r}"])

    out = Path(out_dir or Path("ebound-out", name))
    out.mkdir(parents=True, exist_ok=True)

    scenario = SCENARIOS[name]
    prob = custom or scenario.build(config)
    x = prob.feasible_point
    run = Run(scenario, config, prob)
    tol = KNOWN_OPTIMUM_TOL
    if scenario.solve:
        step, solver_tol, max_iter = _solver_settings(config, prob)
        run.trace = proximal_gradient(prob, x, step=step, tol=solver_tol, max_iter=max_iter)
        x, tol = run.trace.terminal, max(1e-9, 10.0 * solver_tol)
    try:
        run.cert = certify(prob, x, tol=tol)
    except NotOptimalError as exc:
        if run.trace is None or run.trace.status != ITERATION_LIMIT:
            raise
        raise NotOptimalError(exc.residual_norm, exc.tol,
                              f"the solve stopped at its iteration limit of {max_iter} "
                              "iterations") from None
    run.samples = scenario.sample(run)
    if scenario.fitted:
        run.fit = fit_exponent(run.samples)
    assertions = [check(run) for check in scenario.checks]

    seeded = {"seed": run.seed} if "seed" in EXPERIMENTS[name] else {}
    lines = [f"seed: {run.seed}"] if seeded else []
    payload = {"experiment": name, **seeded, "fit": None, "fit_envelope": None,
               "assertions": assertions}
    if scenario.fitted:
        summary = regularity_summary(prob, run.cert)
        payload.update(
            fit=asdict(run.fit), fit_envelope=_envelope_payload(run.samples),
            regularity={"condition": summary.condition, "eb_expected": summary.eb_expected},
            kappa_by_decade={str(k): v for k, v in run.decades.items()})
        lines.append(f"regularity: {summary.condition} (EB expected: {summary.eb_expected})")
    payload.update(run.extra)
    lines.extend(run.notes)
    _write_reports(out, name, run.samples, payload, lines)

    exit_code = 0 if all(a["passed"] for a in assertions) else 1
    return exit_code, payload
