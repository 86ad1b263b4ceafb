"""Acceptance suite: one test per release criterion, each enforcing its
stated tolerance and runtime budget and printing a PASS line (visible with
pytest -s; failures surface through the assertions themselves)."""

import time

import numpy as np

from ebound.diagnostics import (
    Curve,
    RandomDirections,
    fit_exponent,
    kappa_by_decade,
    probe,
    strict_complementarity,
)
from ebound.experiments import (
    counterexample_curve_point,
    counterexample_instance,
    grouped_lasso_instance,
    lasso_instance,
    noncompact_instance,
    noncompact_ray_distance,
    nuclear_regular_instance,
    ridge_instance,
)
from ebound.problem import certify, residual_map
from ebound.regularizers import L1, GroupedLasso, NuclearNorm, OrthantIndicator, Ridge
from ebound.solver import Fixed, estimate_linear_rate, lipschitz_bound, proximal_gradient
from ebound.space import norm

import oracles

SUITE_SEEDS = (0, 1, 2)
SUITE_RADII = np.logspace(-2, -4, 9)


class _Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.seconds, f"runtime {elapsed:.2f}s exceeds {self.seconds}s"
        return elapsed


def _report(number, detail):
    print(f"ACCEPTANCE {number} PASS: {detail}")


def _certified_suite_member(build, seed, tol=1e-11):
    prob = build(seed)
    L = lipschitz_bound(prob)
    trace = proximal_gradient(prob, prob.feasible_point, step=Fixed(1.0 / L),
                              tol=tol, max_iter=200000)
    return prob, certify(prob, trace.terminal, tol=1e-9)


def test_criterion_1_counterexample_exact_residual():
    budget = _Budget(1.0)
    prob = counterexample_instance()
    worst = 0.0
    for delta in (1e-1, 1e-2, 1e-3):
        R = residual_map(prob, counterexample_curve_point(delta))
        worst = max(worst, float(np.max(np.abs(R - np.diag([-delta**2, delta**2])))))
    assert worst <= 1e-10
    elapsed = budget.check()
    _report(1, f"entrywise residual deviation {worst:.2e} <= 1e-10 ({elapsed:.2f}s)")


def test_criterion_2_counterexample_optimality_and_convergence():
    budget = _Budget(5.0)
    prob = counterexample_instance()
    x_bar = prob.feasible_point
    r_opt = norm(residual_map(prob, x_bar))
    assert r_opt <= 1e-10
    trace = proximal_gradient(prob, np.diag([2.0, 1.0]), step=Fixed(0.2),
                              tol=1e-8, max_iter=20000)
    gap = norm(trace.terminal - x_bar)
    assert gap <= 1e-6
    elapsed = budget.check()
    _report(2, f"‖R(x̄)‖ = {r_opt:.2e}, solver gap {gap:.2e} <= 1e-6 ({elapsed:.2f}s)")


def test_criterion_3_counterexample_error_bound_failure():
    budget = _Budget(5.0)
    prob = counterexample_instance()
    x_bar = prob.feasible_point
    cert = certify(prob, x_bar, tol=1e-10)
    deltas = np.logspace(-1, -4, 13)
    curve = Curve.from_map(deltas, counterexample_curve_point, lambda x: norm(x - x_bar))
    samples = probe(prob, cert, None, curve)
    fit = fit_exponent(samples)
    assert 1.9 <= fit.slope <= 2.1
    assert fit.r_squared >= 0.999
    coarse = [s for s in samples if s.radius >= 1e-3 - 1e-15]
    kappa_coarse = fit_exponent(coarse).kappa_max
    growth = fit.kappa_max / kappa_coarse
    assert growth >= 8.0
    elapsed = budget.check()
    _report(3, f"slope {fit.slope:.3f}, R² {fit.r_squared:.5f}, kappa growth "
               f"{growth:.1f}x per decade ({elapsed:.2f}s)")


def test_criterion_4_strict_complementarity_certificates():
    budget = _Budget(10.0)
    prob = counterexample_instance()
    x_bar = prob.feasible_point
    report = strict_complementarity(prob, certify(prob, x_bar, tol=1e-10))
    assert not report.holds and report.s_bar == 2 and report.rank_x == 1

    reg_prob = nuclear_regular_instance()
    x_star = reg_prob.feasible_point
    cert = certify(reg_prob, x_star, tol=1e-10)
    reg_report = strict_complementarity(reg_prob, cert)
    assert reg_report.holds and reg_report.s_bar == reg_report.rank_x == 2

    samples = probe(reg_prob, cert, np.logspace(-1.5, -3.5, 9),
                    RandomDirections(6, seed=1000))
    fit = fit_exponent(samples)
    assert 0.85 <= fit.slope <= 1.15
    elapsed = budget.check()
    _report(4, f"counterexample holds=False (s̄=2, rank=1); regular instance "
               f"holds=True with slope {fit.slope:.3f} ({elapsed:.2f}s)")


def test_criterion_5_noncompact_unbounded_ratio():
    budget = _Budget(1.0)
    prob = noncompact_instance()
    xs = np.linspace(-5.0, -50.0, 46)
    residuals, distances = [], []
    for x in xs:
        point = np.array([x, 1.0])
        residuals.append(norm(residual_map(prob, point)))
        distances.append(noncompact_ray_distance(point))
    residuals = np.array(residuals)
    distances = np.array(distances)
    assert np.all(np.diff(residuals) < 0)
    assert np.max(np.abs(distances - 1.0)) <= 1e-12
    final_ratio = distances[-1] / residuals[-1]
    assert final_ratio > 1e10
    elapsed = budget.check()
    _report(5, f"‖R‖ monotone, d ≡ 1, final d/‖R‖ = {final_ratio:.2e} > 1e10 "
               f"({elapsed:.2f}s)")


def test_criterion_6_scenario_suites_slope_and_kappa():
    budget = _Budget(30.0)
    details = []
    for build, label in ((ridge_instance, "ridge"), (lasso_instance, "lasso"),
                         (grouped_lasso_instance, "grouped-lasso")):
        for seed in SUITE_SEEDS:
            prob, cert = _certified_suite_member(build, seed)
            samples = probe(prob, cert, SUITE_RADII,
                            RandomDirections(6, seed=seed + 1000))
            fit = fit_exponent(samples)
            assert 0.85 <= fit.slope <= 1.15, f"{label} seed {seed}: slope {fit.slope}"
            decades = kappa_by_decade(samples)
            vals = list(decades.values())
            spread = max(vals) / min(vals)
            assert spread <= 2.0, f"{label} seed {seed}: kappa spread {spread}"
            details.append(f"{label}/{seed}: slope {fit.slope:.3f} spread {spread:.2f}")
    elapsed = budget.check()
    _report(6, "; ".join(details) + f" ({elapsed:.1f}s)")


def test_criterion_7_prox_oracle_equivalence():
    budget = _Budget(30.0)
    rng = np.random.default_rng(42)
    worst = {}

    reg = L1(0.7)
    worst["l1"] = max(
        norm(reg.prox(z) - oracles.prox_l1_oracle(z, 0.7))
        for z in rng.uniform(-3, 3, (100, 7)))

    reg = Ridge(0.5)
    worst["ridge"] = max(
        norm(reg.prox(z) - oracles.prox_ridge_oracle(z, 0.5))
        for z in rng.uniform(-3, 3, (100, 7)))

    groups, weights = [[0, 1, 2], [3, 4], [5, 6]], [1.0, 0.6, 1.4]
    reg = GroupedLasso(groups, weights)
    worst["grouped"] = max(
        norm(reg.prox(z) - oracles.prox_group_oracle(z, reg.groups, weights))
        for z in rng.uniform(-3, 3, (100, 7)))

    reg = NuclearNorm()
    worst["nuclear"] = max(
        norm(reg.prox(z) - oracles.prox_nuclear_oracle(z))
        for z in rng.uniform(-2, 2, (100, 4, 3)))

    reg = OrthantIndicator([-1, 1, 0, 1, -1, 0, 1])
    worst["orthant"] = max(
        norm(reg.prox(z) - oracles.prox_orthant_oracle(z, reg.lo, reg.hi))
        for z in rng.uniform(-3, 3, (100, 7)))

    for family, err in worst.items():
        assert err <= 1e-6, f"{family}: oracle gap {err}"
    elapsed = budget.check()
    _report(7, "max oracle gaps " +
            ", ".join(f"{k}={v:.1e}" for k, v in worst.items()) + f" ({elapsed:.1f}s)")


def test_criterion_8_moreau_and_nonexpansiveness():
    rng = np.random.default_rng(17)
    regs = [L1(0.8), Ridge(0.6), GroupedLasso([[0, 1], [2, 3, 4]], [1.0, 1.5]),
            NuclearNorm(), OrthantIndicator([-1, 1, 0, 1, -1])]
    for reg in regs:
        shape = (4, 3) if reg.expects_matrix else (5,)
        for _ in range(200):
            z1, z2 = rng.standard_normal(shape), rng.standard_normal(shape)
            assert norm(reg.prox(z1) - reg.prox(z2)) <= norm(z1 - z2) + 1e-10

    for _ in range(200):
        z = rng.uniform(-3, 3, 5)
        lam = 0.8
        assert norm(L1(lam).prox(z) + np.clip(z, -lam, lam) - z) <= 1e-9

        reg = GroupedLasso([[0, 1], [2, 3, 4]], [1.0, 1.5])
        dual = np.zeros(5)
        for J, w in zip(reg.groups, reg.weights):
            zj = z[J]
            nz = np.linalg.norm(zj)
            dual[J] = zj if nz <= w else w * zj / nz
        assert norm(reg.prox(z) + dual - z) <= 1e-9

        Z = rng.standard_normal((4, 3))
        U, s, Vt = np.linalg.svd(Z, full_matrices=False)
        dual = U @ np.diag(np.minimum(s, 1.0)) @ Vt
        assert norm(NuclearNorm().prox(Z) + dual - Z) <= 1e-9
    _report(8, "nonexpansiveness (5 families) and Moreau identities "
               "(L1, grouped, nuclear) on 200 inputs each")


def test_criterion_9_residual_ratio_consistency():
    spreads = []
    for build, label in ((ridge_instance, "ridge"), (lasso_instance, "lasso"),
                         (grouped_lasso_instance, "grouped-lasso")):
        for seed in SUITE_SEEDS:
            prob, cert = _certified_suite_member(build, seed)
            samples = probe(prob, cert, SUITE_RADII,
                            RandomDirections(6, seed=seed + 1000))
            ratios = [s.r_prox / s.r_alt for s in samples
                      if np.isfinite(s.r_alt) and s.r_alt > 0 and s.r_prox > 0]
            spread = max(ratios) / min(ratios)
            assert spread <= 1e3, f"{label} seed {seed}: spread {spread}"
            spreads.append(f"{label}/{seed}: {spread:.3g}")
    _report(9, "r_prox/r_alt two-sided spreads " + "; ".join(spreads))


def test_criterion_10_linear_convergence_under_eb():
    budget = _Budget(10.0)
    rates = []
    for seed in SUITE_SEEDS:
        prob = ridge_instance(seed)
        L = lipschitz_bound(prob)
        rng = np.random.default_rng(seed + 7)
        prob_trace = proximal_gradient(prob, prob.feasible_point,
                                       step=Fixed(1.0 / L), tol=1e-12,
                                       max_iter=10000)
        x0 = prob_trace.terminal + 2.0 * rng.standard_normal(8)
        trace = proximal_gradient(prob, x0, step=Fixed(1.0 / L), tol=1e-12,
                                  max_iter=10000)
        rate = estimate_linear_rate(trace)
        assert rate is not None, f"seed {seed}: R² below 0.99"
        assert rate <= 0.99, f"seed {seed}: rate {rate}"
        rates.append(rate)
    elapsed = budget.check()
    _report(10, "rates " + ", ".join(f"{r:.3f}" for r in rates) +
            f" all <= 0.99 with R² >= 0.99 ({elapsed:.2f}s)")
