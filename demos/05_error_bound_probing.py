"""Probing well-behaved instances: slopes of 1, stable kappa, and linear
convergence of the proximal gradient method.

Three families carry a Lipschitzian error bound: strongly convex losses,
polyhedral-inverse-image penalties (L1, grouped), and nuclear-norm instances
satisfying strict complementarity.  For each we sample points around the
certified optimum, compute (distance, residual) pairs, and fit the log-log
exponent: slope 1 is the Lipschitz signature, and the ratio envelope kappa
stays flat as the probe radius shrinks.
"""

import numpy as np

from ebound import (
    RandomDirections,
    certify,
    estimate_linear_rate,
    fit_exponent,
    kappa_by_decade,
    probe,
    proximal_gradient,
    regularity_summary,
)
from ebound.experiments import (
    grouped_lasso_instance,
    lasso_instance,
    nuclear_regular_instance,
    ridge_instance,
)
from ebound.solver import Fixed, lipschitz_bound

radii = np.logspace(-2, -4, 9)

for label, build in (("ridge (strongly convex)", ridge_instance),
                     ("lasso", lasso_instance),
                     ("grouped lasso", grouped_lasso_instance)):
    prob = build(seed=0)
    L = lipschitz_bound(prob)
    trace = proximal_gradient(prob, prob.feasible_point, step=Fixed(1.0 / L),
                              tol=1e-11, max_iter=200000)
    cert = certify(prob, trace.terminal)
    samples = probe(prob, cert, radii, RandomDirections(6, seed=1000))
    fit = fit_exponent(samples)
    summary = regularity_summary(prob, cert)
    kappas = {f"1e{k:+d}": round(v, 3) for k, v in sorted(kappa_by_decade(samples).items())}
    print(f"{label}: condition = {summary.condition}")
    print(f"   slope = {fit.slope:.4f}, kappa by decade = {kappas}")

# .. the nuclear-norm instance with strict complementarity behaves the same ..
prob = nuclear_regular_instance()
cert = certify(prob, prob.feasible_point, tol=1e-10)
samples = probe(prob, cert, np.logspace(-1.5, -3.5, 9), RandomDirections(6, seed=1000))
fit = fit_exponent(samples)
print(f"nuclear norm with strict complementarity: slope = {fit.slope:.4f}")

# .. under the error bound the solver converges linearly ..
prob = ridge_instance(seed=0)
L = lipschitz_bound(prob)
x0 = np.full(8, 3.0)
trace = proximal_gradient(prob, x0, step=Fixed(1.0 / L), tol=1e-12, max_iter=5000)
rate = estimate_linear_rate(trace)
print(f"\nproximal gradient on the ridge instance: geometric residual decay,"
      f" fitted rate {rate:.3f} per iteration")
