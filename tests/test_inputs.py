"""Every public entry point checks its numbers.

One table of calls: each numeric argument of certify, residual_map,
distance_to_solution_set, probe, RandomDirections, Curve,
proximal_gradient, Fixed, Backtracking and every regularizer's prox and
prox_value takes NaN, ±inf, 0, −1 and 2.5 in turn, and a value of the wrong
shape; so does proximal_gradient's step, which takes no number at all.  A
point argument takes each value filling the point, each value as a bare
scalar (which must not broadcast), and a point of the wrong size.
Each data argument of the loss and linear-map constructors takes each value
in its first entry.  Each call returns its documented result or raises
InvalidInputError.

None or a str where a number belongs may instead raise Python's TypeError,
or numpy's ValueError for a str it cannot read as a number; the last test
pins that.  The shape bound of a custom problem's config is tested with the
field table, in test_config_cli.py.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from ebound import (L1, Backtracking, CoordinateSelectMap, Curve, DenseMap, Fixed,
                    GeneralQuadratic, GroupedLasso, IdentityMap, LeastSquares, Logistic,
                    NuclearNorm, OrthantIndicator, Poisson, RandomDirections, Ridge, certify,
                    distance_to_solution_set, probe, proximal_gradient, residual_map)
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
    # a step is a Fixed or Backtracking policy, never a bare number
    "proximal_gradient.step": (lambda v, f: proximal_gradient(f.prob, f.x0, step=v, max_iter=3),
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
    "residual_map.x": (
        lambda x, f: residual_map(f.prob, x),
        {**dict.fromkeys(VALUES, lambda r: r.shape == (8,) and np.isfinite(r).all()),
         **dict.fromkeys(NON_FINITE, InvalidInputError)}),
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


def _curve_cases():
    # a parameter may be negative (the noncompact ray's abscissae are), and
    # a point outside dom(f) is probe's to reject; the distance is d >= 0
    point = np.zeros(8)
    calls = {
        "params": lambda v: Curve((v, 1.0), (point, point), (1.0, 1.0)),
        "points": lambda v: Curve((1.0, 2.0), (np.full(8, v), point), (1.0, 1.0)),
        "distances": lambda v: Curve((1.0, 2.0), (point, point), (v, 1.0)),
        "from_map.params": lambda v: Curve.from_map([v, -1.0], lambda p: np.full(8, p),
                                                    lambda x: 1.0),
        "from_map.distances": lambda v: Curve.from_map([1.0, 2.0], lambda p: np.full(8, p),
                                                       lambda x: v),
    }
    for arg, build in calls.items():
        valid = ("0", "2.5") if "distances" in arg else ("0", "-1", "2.5")
        for name, v in VALUES.items():
            yield pytest.param(lambda v, f, build=build: build(v), v,
                               _is(Curve) if name in valid else InvalidInputError,
                               id=f"Curve.{arg}={name}")


#: constructors: (build with the value in the first entry of one data
#: argument, the value names it builds with); every other value raises
#: InvalidInputError.  A shape or an index takes integers only, 0.0 included.
CONSTRUCTORS = {
    "LeastSquares.targets": (lambda v: LeastSquares([v, 1.0]), ("0", "-1", "2.5")),
    "GeneralQuadratic.B": (lambda v: GeneralQuadratic(np.diag([v, 1.0]), [0.0, 0.0]),
                           ("2.5",)),
    "GeneralQuadratic.d": (lambda v: GeneralQuadratic(np.eye(2), [v, 1.0]), ("0", "-1", "2.5")),
    "Logistic.labels": (lambda v: Logistic([v, 1.0]), ("-1",)),
    "Poisson.counts": (lambda v: Poisson([v, 1.0]), ("0",)),
    "DenseMap.matrix": (lambda v: DenseMap([[v, 1.0]], (2,)), ("0", "-1", "2.5")),
    "DenseMap.in_shape": (lambda v: DenseMap(np.ones((1, 2)), (v,)), ()),
    "CoordinateSelectMap.indices": (lambda v: CoordinateSelectMap((v, 1), (3,)), ()),
    "CoordinateSelectMap.indices-pair": (
        lambda v: CoordinateSelectMap(((0, v), (1, 1)), (2, 3)), ()),
    "CoordinateSelectMap.in_shape": (lambda v: CoordinateSelectMap((0,), (v,)), ()),
    "GroupedLasso.groups": (lambda v: GroupedLasso([[0, v], [2]], [1.0, 1.0]), ()),
    "IdentityMap.shape": (lambda v: IdentityMap((v,)), ()),
}


def _constructor_cases():
    for arg, (build, valid) in CONSTRUCTORS.items():
        kind = globals()[arg.split(".")[0]]
        for name, v in VALUES.items():
            yield pytest.param(lambda v, f, build=build: build(v), v,
                               _is(kind) if name in valid else InvalidInputError,
                               id=f"{arg}={name}")


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
                                                 *_radii_cases(), *_prox_z_cases(),
                                                 *_curve_cases(), *_constructor_cases()])
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


def test_a_curve_takes_one_numeric_param_per_point_and_distance():
    # zip would have made one sample of three params
    with pytest.raises(InvalidInputError, match="as many params, points and distances"):
        Curve(params=(1.0, 2.0, 3.0), points=(np.zeros(8),), distances=(1.0,))
    with pytest.raises(InvalidInputError, match="curve params must be numbers"):
        Curve(params=((1.0, 2.0),), points=(np.zeros(8),), distances=(1.0,))


def test_a_coordinate_select_map_takes_integer_indices():
    # a float index was truncated: (0, 2.5) selected (0, 2), and 1.7 selected 1
    with pytest.raises(InvalidInputError, match="index must be an integer, got 2.5"):
        CoordinateSelectMap(((0, 2.5),), (2, 3))
    with pytest.raises(InvalidInputError, match="index must be an integer, got 1.7"):
        CoordinateSelectMap((1.7,), (3,))
    select = CoordinateSelectMap(np.array([[0, 2], [1, 1]]), (np.int64(2), 3))
    assert select.indices == ((0, 2), (1, 1)) and select.in_shape == (2, 3)
    assert np.array_equal(select(np.arange(6.0).reshape(2, 3)), [2.0, 4.0])


def test_grouped_lasso_takes_integer_group_indices():
    # a float index was truncated: [[0, 1.5], [2]] built the groups {0, 1}
    # and {2}, and gave P(3, 4, 1) = 6.0
    with pytest.raises(InvalidInputError,
                       match=r"group indices must be integers, got \[0.0, 1.5\]"):
        GroupedLasso([[0, 1.5], [2]], [1.0, 1.0])
    with pytest.raises(InvalidInputError, match="group indices must be integers"):
        GroupedLasso([[True, False]], [1.0])
    reg = GroupedLasso([np.array([0, 1]), [np.int64(2)]], [1.0, 1.0])
    assert reg.value(np.array([3.0, 4.0, 1.0])) == 6.0
    assert [J.tolist() for J in reg.groups] == [[0, 1], [2]]


def test_a_dense_map_takes_a_matrix():
    # a 3-d array built a map with out_shape (2,) that sent ones(2) to a 2×2 array
    with pytest.raises(InvalidInputError,
                       match=r"takes a matrix, got an array of shape \(2, 2, 2\)"):
        DenseMap(np.ones((2, 2, 2)), (2,))
    # a vector is still the one-row matrix
    assert DenseMap(np.array([1.0, 2.0]), (2,)).out_shape == (1,)


@pytest.mark.parametrize("value", [True, 2.0])
def test_an_integer_argument_takes_no_bool_or_float(lasso, value):
    with pytest.raises(InvalidInputError, match="max_iter must be an integer"):
        proximal_gradient(lasso.prob, lasso.x0, max_iter=value)


def test_a_step_is_a_policy(lasso):
    # step=0.5 raised AttributeError: 'float' object has no attribute 't'
    with pytest.raises(InvalidInputError, match="step must be Fixed or Backtracking, got 0.5"):
        proximal_gradient(lasso.prob, lasso.x0, step=0.5)


@pytest.mark.parametrize("signs", [[[1, -1]], 1], ids=["2-d", "0-d"])
def test_orthant_signs_are_a_vector(signs):
    # [[1, -1]] built an indicator whose value raised numpy's TypeError, and
    # 1 built a 0-d sign
    with pytest.raises(InvalidInputError, match="signs must be a 1-d array"):
        OrthantIndicator(signs)


@pytest.mark.parametrize("call", [call for call, _ in SCALARS.values()]
                         + [call for call, _ in POINTS.values()])
@pytest.mark.parametrize("value", [None, "1", "abc"])
def test_none_or_a_string_may_keep_pythons_error(lasso, call, value):
    with pytest.raises((TypeError, ValueError)):
        call(value, lasso)
