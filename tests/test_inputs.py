"""Every public entry point checks its numbers.

One table of calls: each numeric argument of certify,
distance_to_solution_set, probe, RandomDirections, proximal_gradient,
Fixed, Backtracking and every regularizer's prox and prox_value takes NaN,
±inf, 0, −1 and 2.5 in turn, and a value of the wrong shape.  A point
argument takes each value filling the point, each value as a bare scalar
(which must not broadcast), and a point of the wrong size.  Each call
returns its documented result or raises InvalidInputError.

None or a str where a number belongs may instead raise Python's TypeError,
or numpy's ValueError for a str it cannot read as a number; the last test
pins that.  The shape bound of a custom problem's config is tested with the
field table, in test_config_cli.py.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from ebound import (L1, Backtracking, Fixed, GroupedLasso, NuclearNorm, OrthantIndicator,
                    RandomDirections, Ridge, certify, distance_to_solution_set, probe,
                    proximal_gradient)
from ebound.errors import DomainError, InvalidInputError, NotOptimalError
from ebound.experiments import lasso_instance
from ebound.problem import OptimalityCertificate
from ebound.solver import ITERATION_LIMIT, SolveTrace, lipschitz_bound

NAN, INF = float("nan"), float("inf")
#: the values every numeric argument takes, by case name
VALUES = {"nan": NAN, "inf": INF, "-inf": -INF, "0": 0.0, "-1": -1.0, "2.5": 2.5}
NON_FINITE = ("nan", "inf", "-inf")
#: a scalar argument's value of the wrong shape
PAIR = np.ones(2)


@pytest.fixture(scope="module")
def lasso():
    prob = lasso_instance(0)
    trace = proximal_gradient(prob, prob.feasible_point, step=Fixed(1.0 / lipschitz_bound(prob)),
                              tol=1e-12, max_iter=10000)
    return SimpleNamespace(prob=prob, cert=certify(prob, trace.terminal, tol=1e-9),
                           x0=prob.feasible_point)


def _is(kind):
    return lambda result: isinstance(result, kind)


def _distance(d):
    return isinstance(d, float) and np.isfinite(d) and d >= 0.0


def _trace(trace):
    return trace.status == ITERATION_LIMIT and len(trace.iterations) == 4


#: scalar arguments: (call of the value and the lasso fixture, {value name:
#: expected result} for the values that are valid); every other value, and
#: the wrong shape, raises InvalidInputError
SCALARS = {
    "certify.tol": (lambda v, f: certify(f.prob, f.cert.x_star, tol=v),
                    {"2.5": _is(OptimalityCertificate)}),
    "proximal_gradient.tol": (lambda v, f: proximal_gradient(f.prob, f.x0, tol=v, max_iter=3),
                              {"2.5": _is(SolveTrace)}),
    # an integer argument takes no float, 0.0 included
    "proximal_gradient.max_iter": (lambda v, f: proximal_gradient(f.prob, f.x0, max_iter=v),
                                   {}),
    "Fixed.t": (lambda v, f: Fixed(v), {"2.5": _is(Fixed)}),
    "Backtracking.t0": (lambda v, f: Backtracking(t0=v), {"2.5": _is(Backtracking)}),
    # beta must lie in (0, 1), so 2.5 is out of range too
    "Backtracking.beta": (lambda v, f: Backtracking(beta=v), {}),
    "RandomDirections.count": (lambda v, f: probe(f.prob, f.cert, [1e-2],
                                                  RandomDirections(v, 0)), {}),
    "RandomDirections.seed": (lambda v, f: probe(f.prob, f.cert, [1e-2],
                                                 RandomDirections(2, v)), {}),
}

#: one element of each regularizer's kind, and one of a wrong size or ndim
REGULARIZERS = {
    "L1": (L1(0.5), np.array([0.5, -2.0, 0.1]), np.ones((3, 1))),
    "Ridge": (Ridge(0.5), np.array([0.5, -2.0, 0.1]), np.ones((3, 1))),
    "GroupedLasso": (GroupedLasso([[0, 1], [2]], [0.5, 0.2]), np.array([0.5, -2.0, 0.1]),
                     np.ones(4)),
    "NuclearNorm": (NuclearNorm(), np.array([[2.0, 0.5], [0.5, 0.3], [1.0, -1.0]]),
                    np.ones(3)),
    "OrthantIndicator": (OrthantIndicator([1, -1, 0]), np.array([0.5, -2.0, 0.1]),
                         np.ones(4)),
}


def _prox(name, method):
    reg, z, _ = REGULARIZERS[name]
    return lambda t, f: getattr(reg, method)(z, t)


def _prox_point(name, method, check):
    """The result's prox point p, which `check` must accept given z."""
    reg, z, _ = REGULARIZERS[name]

    def accept(result):
        p = result[0] if method == "prox_value" else result
        return p.shape == z.shape and check(reg, z, p)
    return accept


for _name in REGULARIZERS:
    for _method in ("prox", "prox_value"):
        # t = 0 is the identity (to rounding through an SVD), except for the
        # indicator, which projects whatever the step
        SCALARS[f"{_name}.{_method}.t"] = (_prox(_name, _method), {
            "0": _prox_point(_name, _method, lambda reg, z, p: np.allclose(
                p, reg.prox(z, 1.0) if isinstance(reg, OrthantIndicator) else z,
                rtol=0.0, atol=1e-12)),
            "2.5": _prox_point(_name, _method, lambda reg, z, p: np.isfinite(p).all()),
        })


def _scalar_cases():
    for arg, (call, valid) in SCALARS.items():
        for name, v in [*VALUES.items(), ("wrong-shape", PAIR)]:
            yield pytest.param(call, v, valid.get(name, InvalidInputError),
                               id=f"{arg}={name}")


#: point arguments: (call of the point and the lasso fixture, {value name:
#: expected result for the point filled with it});
#: a bare scalar and a point of the wrong size raise InvalidInputError
POINTS = {
    # a NaN or infinite ‖R(x)‖ is not optimal; no filled point is optimal here
    "certify.x": (lambda x, f: certify(f.prob, x), dict.fromkeys(VALUES, NotOptimalError)),
    "distance_to_solution_set.x": (
        lambda x, f: distance_to_solution_set(f.prob, f.cert, x),
        {**dict.fromkeys(VALUES, _distance), **dict.fromkeys(NON_FINITE, InvalidInputError)}),
    # a non-finite x0 lies outside dom(f) ∩ dom(P)
    "proximal_gradient.x0": (
        lambda x, f: proximal_gradient(f.prob, x, max_iter=3),
        {**dict.fromkeys(VALUES, _trace), **dict.fromkeys(NON_FINITE, DomainError)}),
}


def _point_cases():
    n = lasso_instance(0).feasible_point.size
    for arg, (call, filled) in POINTS.items():
        for name, v in VALUES.items():
            yield pytest.param(call, np.full(n, v), filled[name], id=f"{arg}=full-{name}")
            yield pytest.param(call, v, InvalidInputError, id=f"{arg}=scalar-{name}")
        yield pytest.param(call, np.zeros(n + 1), InvalidInputError, id=f"{arg}=wrong-size")


def _radii_cases():
    def call(radii, f):
        return probe(f.prob, f.cert, radii, RandomDirections(2, 0))
    # radius 0 samples x* itself, at a distance of rounding
    valid = {"0": lambda samples: len(samples) == 2 and max(s.d for s in samples) <= 1e-12,
             "2.5": lambda samples: len(samples) == 2}
    for name, v in VALUES.items():
        yield pytest.param(call, [v], valid.get(name, InvalidInputError),
                           id=f"probe.radii=[{name}]")
        yield pytest.param(call, v, InvalidInputError, id=f"probe.radii=scalar-{name}")
    yield pytest.param(call, np.full((2, 2), 1e-2), InvalidInputError, id="probe.radii=matrix")
    yield pytest.param(call, None, InvalidInputError, id="probe.radii=None")


def _prox_z_cases():
    # z is an element: the entrywise families pass a non-finite entry
    # through, and the nuclear norm's SVD refuses it
    for name, (reg, z, wrong) in REGULARIZERS.items():
        for method in ("prox", "prox_value"):
            def call(x, f, reg=reg, method=method):
                result = getattr(reg, method)(x, 1.0)
                return result[0] if method == "prox_value" else result
            for value_name, v in VALUES.items():
                full = np.full(z.shape, v)
                expect = (InvalidInputError if isinstance(reg, NuclearNorm)
                          and value_name in NON_FINITE else
                          lambda p, full=full: p.shape == full.shape
                          and np.isfinite(p).all() == np.isfinite(full).all())
                yield pytest.param(call, full, expect, id=f"{name}.{method}.z=full-{value_name}")
                yield pytest.param(call, v, InvalidInputError,
                                   id=f"{name}.{method}.z=scalar-{value_name}")
            yield pytest.param(call, wrong, InvalidInputError, id=f"{name}.{method}.z=wrong-shape")


@pytest.mark.parametrize("call, value, expect", [*_scalar_cases(), *_point_cases(),
                                                 *_radii_cases(), *_prox_z_cases()])
def test_entry_point_checks_its_argument(lasso, call, value, expect):
    if isinstance(expect, type):
        with pytest.raises(expect), np.errstate(all="ignore"):
            call(value, lasso)
    else:
        with np.errstate(all="ignore"):
            assert expect(call(value, lasso))


def test_numpy_numbers_are_numbers(lasso):
    # the benchmark passes np.logspace radii, and counts may be numpy integers
    samples = probe(lasso.prob, lasso.cert, np.logspace(-2, -4, 3),
                    RandomDirections(np.int64(2), np.int32(5)))
    assert len(samples) == 6
    trace = proximal_gradient(lasso.prob, lasso.x0, step=Fixed(np.float64(0.01)),
                              tol=np.float64(1e-9), max_iter=np.int64(3))
    assert len(trace.iterations) == 4
    assert isinstance(certify(lasso.prob, lasso.cert.x_star, tol=np.float32(1e-6)),
                      OptimalityCertificate)
    assert np.array_equal(L1(1.0).prox(np.array([0.5, -2.0]), np.float64(0.5)), [0.0, -1.5])


@pytest.mark.parametrize("value", [True, 2.0])
def test_an_integer_argument_takes_no_bool_or_float(lasso, value):
    with pytest.raises(InvalidInputError, match="max_iter must be an integer"):
        proximal_gradient(lasso.prob, lasso.x0, max_iter=value)


@pytest.mark.parametrize("call", [call for call, _ in SCALARS.values()]
                         + [call for call, _ in POINTS.values()])
@pytest.mark.parametrize("value", [None, "1", "abc"])
def test_none_or_a_string_may_keep_pythons_error(lasso, call, value):
    with pytest.raises((TypeError, ValueError)):
        call(value, lasso)
