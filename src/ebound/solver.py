"""Proximal gradient method with fixed or backtracking step sizes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, DomainError, InsufficientDataError, InvalidInputError,
                     LineSearchError)
from .problem import ProblemInstance
from .space import _require_integer, _require_positive, _shaped, inner, line_fit, norm

_MIN_STEP = 1e-14
#: estimate_linear_rate rejects a tail fit that explains less of the variance
RATE_MIN_R_SQUARED = 0.99

CONVERGED = "converged"
ITERATION_LIMIT = "iteration_limit"


@dataclass(frozen=True)
class Fixed:
    t: float

    def __post_init__(self):
        _require_positive(self.t, "t")


@dataclass(frozen=True)
class Backtracking:
    beta: float = 0.5
    t0: float = 1.0

    def __post_init__(self):
        _require_positive(self.t0, "t0")
        if not _require_positive(self.beta, "beta") < 1:
            raise InvalidInputError(f"beta must be in (0, 1), got {self.beta!r}")


def lipschitz_bound(prob: ProblemInstance):
    """Global Lipschitz constant of ∇f when the loss admits one
    (L_h · ‖A‖₂²), else None.  1/L is a safe fixed step.  A dense map's
    ‖A‖₂ comes from the top eigenvalue of its smaller Gram matrix, with no
    SVD: O(min(m, n)²·max(m, n)) flops, and relative accuracy O(ε)."""
    L_h = prob.smooth.h.grad_lipschitz
    if L_h is None:
        return None
    return L_h * prob.smooth.A.operator_norm() ** 2


@dataclass
class SolveTrace:
    """Per-iteration record (k, F(xₖ), ‖R(xₖ)‖, step) plus the terminal point."""

    iterations: list
    terminal: np.ndarray
    status: str

    @property
    def residuals(self) -> np.ndarray:
        return np.array([row[2] for row in self.iterations])


def _evaluate(smooth, x):
    """smooth.at(x), or None when A(x) lies outside the loss domain."""
    try:
        return smooth.at(x)
    except DomainError:
        return None


# a diverging step overflows before ‖R(xₖ)‖ turns non-finite; the loop
# reports that iteration in its ConvergenceError, so numpy need not warn too
@np.errstate(over="ignore", invalid="ignore")
def proximal_gradient(
    prob: ProblemInstance,
    x0,
    step=Backtracking(),
    tol: float = 1e-9,
    max_iter: int = 20000,
) -> SolveTrace:
    """Iterate x⁺ = prox_{tP}(x − t∇f(x)) until ‖R(x)‖ ≤ tol.  Raises
    InvalidInputError unless x0 is a point of the instance's shape, step is
    a Fixed or Backtracking policy, tol is finite and > 0 and max_iter is an
    integer >= 0, and ConvergenceError at the first iterate whose ‖R(x)‖ is
    not finite (a step too long for ∇f diverges), naming that iteration.

    Backtracking halves t until the quadratic upper bound
    f(x⁺) ≤ f(x) + ⟨∇f(x), x⁺ − x⟩ + ‖x⁺ − x‖²/(2t) holds; steps that leave
    dom(f) count as failures.  The recorded residual is always the unit-step
    R(x), independent of the step size actually taken.

    f is evaluated once per point and its gradient once per iterate, so an
    iteration costs one forward and one adjoint application of A with Fixed,
    one forward per trial step and one adjoint with Backtracking; what one
    application costs on a dense map, and when a constant-Hessian loss's
    gradient needs no adjoint, DenseMap and CompositeSmooth say.  The
    residual's prox is the step's prox when t = 1, so an iteration takes one
    prox (one thin SVD for the nuclear norm) at the unit step, and one more
    per trial step otherwise.  P(xₖ) comes with the prox that formed xₖ
    (`prox_value`), so the solver evaluates P on its own only at x0.
    """
    _require_positive(tol, "tol")
    max_iter = _require_integer(max_iter, "max_iter", 0)
    if not isinstance(step, (Fixed, Backtracking)):
        raise InvalidInputError(f"step must be Fixed or Backtracking, got {step!r}")
    x = _shaped(x0, prob.feasible_point.shape, "x0")
    point = _evaluate(prob.smooth, x)
    if point is None or not np.isfinite(P_x := prob.reg.value(x)):
        raise DomainError("x0 lies outside dom(f) ∩ dom(P)")

    rows = []
    t = step.t0 if isinstance(step, Backtracking) else step.t
    for k in range(max_iter + 1):
        g = point.gradient
        # at t = 1 the step's prox is the residual's: form it once, with P there
        unit = prob.reg.prox_value(x - g) if t == 1.0 else None
        r = norm(prob.reg.prox_diff(x, g) if unit is None
                 else prob.reg.residual(x, g, unit[0]))
        rows.append((k, point.value + P_x, r, t))
        if r <= tol:
            return SolveTrace(rows, x, CONVERGED)
        if not math.isfinite(r):
            raise ConvergenceError(f"‖R(xₖ)‖ is not finite at iteration {k}", r)
        if k == max_iter:
            break

        if isinstance(step, Fixed):
            x, P_x = unit or prob.reg.prox_value(x - t * g, t)
            point = prob.smooth.at(x)
        else:
            # warm-started: keep the last accepted t, halve until the
            # quadratic upper bound holds (up to a few ulps of f)
            fx = point.value
            while True:
                cand, P_c = unit or prob.reg.prox_value(x - t * g, t)
                dx = cand - x
                trial = _evaluate(prob.smooth, cand)
                if trial is not None:
                    fc = trial.value
                    bound = fx + inner(g, dx) + float((dx * dx).sum()) / (2.0 * t)
                    slack = 4.0 * np.finfo(float).eps * max(1.0, abs(fx), abs(fc))
                    if fc <= bound + slack:
                        break
                unit = None
                t *= step.beta
                if t < _MIN_STEP:
                    raise LineSearchError(f"step collapsed below {_MIN_STEP:g} at iteration {k}")
            x, point, P_x = cand, trial, P_c

    return SolveTrace(rows, x, ITERATION_LIMIT)


def estimate_linear_rate(trace: SolveTrace):
    """Geometric decay factor of ‖R(xₖ)‖ fitted on the tail half of the trace.

    Returns exp(slope) of the least-squares line through (k, log ‖R(xₖ)‖),
    or None when its R² is below RATE_MIN_R_SQUARED.
    """
    ks = np.array([row[0] for row in trace.iterations], dtype=float)
    rs = trace.residuals
    keep = rs > 0
    ks, rs = ks[keep], rs[keep]
    if ks.size < 10:
        raise InsufficientDataError(f"need >= 10 iterations with positive residual, got {ks.size}")
    half = ks.size // 2
    ks, logr = ks[half:], np.log(rs[half:])
    slope, _, r_squared = line_fit(ks, logr)
    if r_squared < RATE_MIN_R_SQUARED:
        return None
    return math.exp(slope)
