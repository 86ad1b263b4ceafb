"""The nuclear-norm instance where the Lipschitzian error bound fails.

Its unique optimum diag(1, 0) violates strict complementarity: -grad f there
has two unit singular values but the optimum has rank one.  Along the curve
X(d) = [[1 + 2d^2, d], [d, d^2]] the distance to the optimum shrinks like d
while the residual shrinks like d^2, so no constant kappa can satisfy
dist <= kappa * ||R||; the log-log slope of 2 is the Hoelder-1/2 signature.
"""

import numpy as np

from ebound import (
    Curve,
    certify,
    fit_exponent,
    kappa_by_decade,
    norm,
    probe,
    regularity_summary,
    residual_map,
    strict_complementarity,
)
from ebound.experiments import counterexample_curve_point, counterexample_instance

prob = counterexample_instance()
x_bar = prob.feasible_point
cert = certify(prob, x_bar, tol=1e-10)

# .. the residual along the curve has the exact closed form diag(-d^2, d^2) ..
for delta in (1e-1, 1e-2, 1e-3):
    R = residual_map(prob, counterexample_curve_point(delta))
    gap = np.max(np.abs(R - np.diag([-delta**2, delta**2])))
    print(f"delta = {delta:5.0e}:  max |R - diag(-d^2, d^2)| = {gap:.1e}")

# .. strict complementarity fails: two unit singular values, rank one ..
report = strict_complementarity(prob, cert)
print(f"\nstrict complementarity: s_bar = {report.s_bar}, rank = {report.rank_x},"
      f" holds = {report.holds}, margin = {report.margin}")
summary = regularity_summary(prob, cert)
print(f"regularity verdict: {summary.condition} (error bound expected: "
      f"{summary.eb_expected})")

# .. probing the curve shows slope 2 and a diverging kappa ..
deltas = np.logspace(-1, -4, 13)
# the optimum is unique, so the distance is ||X(d) - x_bar||, carried by the curve
curve = Curve.from_map(deltas, counterexample_curve_point, lambda x: norm(x - x_bar))
samples = probe(prob, cert, None, curve)
fit = fit_exponent(samples)
print(f"\nlog-log fit: slope = {fit.slope:.4f}  (R^2 = {fit.r_squared:.6f})")
print("kappa_max by radius decade (diverges like 1/delta):")
for decade, kappa in sorted(kappa_by_decade(samples).items(), reverse=True):
    print(f"   1e{decade:+d}: {kappa:10.1f}")
