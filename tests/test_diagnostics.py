from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from ebound import diagnostics, problem, regularizers, space
from ebound.diagnostics import (
    NUCLEAR_WITH_SC,
    POLYHEDRAL,
    STRONGLY_CONVEX,
    UNVERIFIED,
    Curve,
    ProbeSample,
    RandomDirections,
    fit_exponent,
    kappa_by_decade,
    probe,
    regularity_summary,
    strict_complementarity,
)
from ebound.errors import (ConvergenceError, DomainError, EmptyProbeError,
                           InfeasibleTargetError, InsufficientDataError, InvalidInputError)
from ebound.experiments import (
    DEFAULT_RADII,
    counterexample_curve_point,
    counterexample_instance,
    grouped_lasso_instance,
    lasso_instance,
    noncompact_instance,
    noncompact_ray_distance,
    nuclear_regular_instance,
    ridge_instance,
    run_experiment,
)
from ebound.losses import CompositeSmooth, GeneralQuadratic, LeastSquares, Poisson, SmoothPoint
from ebound.problem import ProblemInstance, alt_residual, certify, distance_to_solution_set
from ebound.regularizers import L1, GroupedLasso, NuclearNorm, OrthantIndicator, Ridge
from ebound.solver import Fixed, lipschitz_bound, proximal_gradient
from ebound.space import CoordinateSelectMap, DenseMap, norm

from test_problem import _completion_instance
from test_solver import CountingMap, lasso_toy


def certified_counterexample():
    prob = counterexample_instance()
    x_bar = prob.feasible_point
    return prob, certify(prob, x_bar, tol=1e-10)


def certified_completion(seed, m, n, rank=2):
    """A small nuclear-norm matrix completion solved to 1e-11 and certified."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    rows, cols = np.nonzero(rng.random((m, n)) < 0.6)
    A = CoordinateSelectMap(tuple(zip(rows.tolist(), cols.tolist())), (m, n))
    smooth = CompositeSmooth(LeastSquares(X[rows, cols]), A, np.zeros((m, n)))
    prob = ProblemInstance(smooth, NuclearNorm(), np.zeros((m, n)))
    trace = proximal_gradient(prob, np.zeros((m, n)), step=Fixed(1.0), tol=1e-11,
                              max_iter=100000)
    return prob, certify(prob, trace.terminal, tol=1e-9)


def complementarity_reference(cert):
    """(s̄, rank(x*), margin) from numpy's SVD and eigvalsh alone."""
    U, sg, Vt = np.linalg.svd(-cert.g_bar)
    s_bar = int(np.sum(sg >= 1.0 - 1e-8))
    sx = np.linalg.svd(cert.x_star, compute_uv=False)
    rank = int(np.sum(sx > 1e-8 * max(1.0, sx[0])))
    if s_bar == 0:
        return s_bar, rank, np.inf
    B = U[:, :s_bar].T @ cert.x_star @ Vt[:s_bar].T
    return s_bar, rank, float(np.min(np.linalg.eigvalsh((B + B.T) / 2.0)))


def certified_ridge(seed):
    prob = ridge_instance(seed)
    L = lipschitz_bound(prob)
    trace = proximal_gradient(prob, prob.feasible_point, step=Fixed(1.0 / L),
                              tol=1e-12, max_iter=10000)
    return prob, certify(prob, trace.terminal, tol=1e-9)


#: least-squares instances on dense maps, one for each polyhedral family:
#: (regularizer, map matrix, targets)
POLYHEDRAL_CASES = {
    "l1": (L1(0.4), [[1, 0, 0], [0, 1, 1]], [1.0, -1.0]),
    "grouped-lasso": (GroupedLasso([[0], [1, 2]], [0.4, 0.4]),
                      [[1, 0, 0], [0, 1, 1]], [1.0, -1.0]),
    "orthant": (OrthantIndicator([1, 1, 0]), [[1, 0, 0], [0, 1, 1]], [1.0, -1.0]),
    "ridge": (Ridge(0.3), [[1, 0, 2, 0], [0, 1, 0, -1], [1, 1, 0, 1]], [1.0, -1.0, 0.5]),
}


def certified_dense(case):
    reg, matrix, targets = POLYHEDRAL_CASES[case]
    n = len(matrix[0])
    smooth = CompositeSmooth(LeastSquares(np.array(targets)),
                             DenseMap(np.array(matrix, dtype=float), (n,)), np.zeros(n))
    prob = ProblemInstance(smooth, reg, np.zeros(n))
    trace = proximal_gradient(prob, np.zeros(n), step=Fixed(1.0 / lipschitz_bound(prob)),
                              tol=1e-11, max_iter=100000)
    return prob, certify(prob, trace.terminal, tol=1e-9)


def certified_empty_image():
    # f = ½(x₁ − 3)² with λ = 1: (2 − 1e-4, 0) certifies at tol 1e-3 with
    # |ḡ₁| = 1 + 1e-4 > λ, so Γ_P(ḡ) is empty
    smooth = CompositeSmooth(LeastSquares(np.array([3.0])),
                             DenseMap(np.array([[1.0, 0.0]]), (2,)), np.zeros(2))
    prob = ProblemInstance(smooth, L1(1.0), np.zeros(2))
    return prob, certify(prob, np.array([2.0 - 1e-4, 0.0]), tol=1e-3)


class TestProbe:
    def test_counterexample_curve_scaling(self):
        prob, cert = certified_counterexample()
        deltas = np.logspace(-1, -4, 7)
        curve = Curve.from_map(deltas, counterexample_curve_point,
                               lambda x: norm(x - cert.x_star))
        samples = probe(prob, cert, None, curve)
        assert len(samples) == len(deltas)
        for s, delta in zip(samples, deltas):
            assert abs(s.d - delta * np.sqrt(2 + 5 * delta**2)) <= 1e-12
            assert abs(s.r_prox - np.sqrt(2.0) * delta**2) <= 1e-12 * max(1, delta)

    def test_radius_zero_sample(self):
        prob, cert = certified_ridge(0)
        samples = probe(prob, cert, [1e-2, 0.0], RandomDirections(3, seed=0))
        at_zero = [s for s in samples if s.radius == 0.0]
        assert len(at_zero) == 3
        for s in at_zero:
            assert s.d == 0.0 and s.r_prox <= 1e-10

    def test_ridge_ratios_below_strong_convexity_bound(self):
        prob, cert = certified_ridge(1)
        samples = probe(prob, cert, np.logspace(-1, -3, 5), RandomDirections(8, seed=1))
        sigma = float(np.linalg.eigvalsh(prob.smooth.h.B).min())
        lam = prob.reg.weight
        cap = (1.0 + 2.0 * lam) / (sigma + 2.0 * lam)
        for s in samples:
            assert s.d / s.r_prox <= cap + 1e-9

    def test_deterministic_given_seed(self):
        prob, cert = certified_ridge(2)
        a = probe(prob, cert, [1e-2, 1e-3], RandomDirections(4, seed=9))
        b = probe(prob, cert, [1e-2, 1e-3], RandomDirections(4, seed=9))
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.x, sb.x)
            assert (sa.d, sa.r_prox, sa.r_alt, sa.F_val) == (sb.d, sb.r_prox, sb.r_alt, sb.F_val)

    def test_rejects_points_outside_domain(self):
        prob = noncompact_instance()
        cert = certify(prob, np.array([-1.0, 0.0]), tol=1e-12)
        curve = Curve.from_map((2.0, 3.0), lambda x: np.array([x, 1.0]),
                               noncompact_ray_distance)
        with pytest.raises(EmptyProbeError):
            probe(prob, cert, None, curve)

    def test_random_directions_lay_out_radius_then_direction(self):
        # one seeded generator draws every unit direction before any point is
        # formed, so the points (and every report) do not depend on the radii
        x_star = np.arange(4.0)
        radii, ids, X, d = RandomDirections(3, seed=7).pending(x_star, [0.5, 0.25])
        rng = np.random.default_rng(7)
        units = [u / norm(u) for u in (rng.standard_normal(4) for _ in range(3))]
        assert list(zip(radii, ids)) == [(0.5, 0), (0.5, 1), (0.5, 2),
                                         (0.25, 0), (0.25, 1), (0.25, 2)]
        assert X.shape == (6, 4) and d is None
        for rho, j, x in zip(radii, ids, X, strict=True):
            assert np.array_equal(x, x_star + rho * units[j])

    def test_random_directions_refuse_a_layout_past_max_entries(self, monkeypatch):
        # count × radii × x*'s entries is checked before the draw: 10¹²
        # directions would ask numpy for about 10¹³ floats
        with pytest.raises(InvalidInputError, match="lay out 20000000000000 entries, more than "
                                                    "10000000"):
            RandomDirections(10**12, seed=0).pending(np.zeros(4), [0.5, 0.25, 0.1, 0.05, 0.01])
        monkeypatch.setattr(diagnostics, "MAX_ENTRIES", 24)
        _, _, X, _ = RandomDirections(3, seed=0).pending(np.zeros(4), [0.5, 0.25])
        assert X.shape == (6, 4)
        with pytest.raises(InvalidInputError, match="3 directions × 3 radii × 4 entries"):
            RandomDirections(3, seed=0).pending(np.zeros(4), [0.5, 0.25, 0.1])

    def test_probe_samples_what_its_sampler_lays_out(self):
        # probe asks the sampler for its points; it does not switch on its type
        # (radii, direction indices, points, distances or None), as arrays
        prob, cert = certified_ridge(0)
        x = cert.x_star + 0.1

        class TwoPoints:
            def __init__(self, distances):
                self.distances = distances

            def pending(self, x_star, radii):
                return np.array([1.0, 2.0]), np.array([4, 5]), np.array([x, x]), self.distances

        given = probe(prob, cert, None, TwoPoints(np.array([0.5, 0.25])))
        assert [(s.radius, s.direction_id, s.d) for s in given] == [(1.0, 4, 0.5), (2.0, 5, 0.25)]
        measured = probe(prob, cert, None, TwoPoints(None))
        assert [s.d for s in measured] == [distance_to_solution_set(prob, cert, x)] * 2

    def test_a_curve_point_of_another_shape_is_invalid_input(self):
        prob, cert = certified_ridge(0)
        points = (cert.x_star, np.append(cert.x_star, 0.0))
        with pytest.raises(InvalidInputError, match="curve point takes shape"):
            probe(prob, cert, None, Curve((1.0, 2.0), points, (1.0, 1.0)))

    @pytest.mark.parametrize("radii, directions", [([], RandomDirections(3, seed=0)),
                                                   ([1e-2], RandomDirections(0, seed=0)),
                                                   (None, Curve((), (), ()))],
                             ids=["no-radii", "no-directions", "no-curve-points"])
    def test_no_points_is_invalid_input(self, radii, directions):
        # nothing was rejected, so this is not an EmptyProbeError
        prob, cert = certified_ridge(0)
        with pytest.raises(InvalidInputError, match="no points"):
            probe(prob, cert, radii, directions)


@dataclass(frozen=True)
class RecordingPoisson(Poisson):
    """Poisson loss that keeps every y its gradient is asked for."""

    gradient_inputs: list = field(default_factory=list, compare=False)

    def _gradient(self, y):
        self.gradient_inputs.append(np.array(y))
        return super()._gradient(y)


def counted_lasso(seed=0):
    """lasso_toy certified, its reduced set built, with the count reset."""
    prob, *_ = lasso_toy(seed)
    trace = proximal_gradient(prob, np.zeros(60), step=Fixed(1.0 / lipschitz_bound(prob)),
                              tol=1e-12, max_iter=100000)
    cert = certify(prob, trace.terminal, tol=1e-10)
    assert cert.reduced.gap <= 1e-10
    prob.smooth.A.calls.clear()
    return prob, cert


def certified_poisson():
    """min Σ (e^{x_i} − b_i x_i) + 0.5‖x‖₁ on the dense identity with counts
    (2, 3): x* = log(b − 0.5), where A x* is far below the exp cap."""
    A = CountingMap(np.eye(2), (2,))
    smooth = CompositeSmooth(RecordingPoisson(np.array([2.0, 3.0])), A, np.zeros(2))
    prob = ProblemInstance(smooth, L1(0.5), np.zeros(2))
    cert = certify(prob, np.log([1.5, 2.5]), tol=1e-12)
    A.calls.clear()
    smooth.h.gradient_inputs.clear()
    return prob, cert


def certified_panelled_poisson():
    """min Σ (e^{y_i} − b_i y_i) + λ‖x‖₁ with y = M x on a counting 300×1000
    dense map of three row panels, certified at x* = 0: λ is twice
    ‖∇f(0)‖_∞ = ‖Mᵀ(1 − b)‖_∞."""
    rng = np.random.default_rng(3)
    M = rng.standard_normal((300, 1000))
    b = rng.integers(0, 4, 300).astype(float)
    A = CountingMap(M, (1000,))
    lam = 2.0 * float(np.max(np.abs(M.T @ (1.0 - b))))
    smooth = CompositeSmooth(RecordingPoisson(b), A, np.zeros(1000))
    prob = ProblemInstance(smooth, L1(lam), np.zeros(1000))
    cert = certify(prob, np.zeros(1000), tol=1e-12)
    A.calls.clear()
    smooth.h.gradient_inputs.clear()
    return prob, cert


def one_point_figures(prob, cert, x, y, g):
    """(r_prox, r_alt, F) at x from the one-point functions, given y = A(x)
    and ∇f(x); r_alt is inf where ∂P(x) is empty."""
    try:
        ra = alt_residual(prob, cert, x, y)
    except DomainError:
        ra = float("inf")
    return (norm(prob.reg.prox_diff(x, g)), ra,
            float(prob.smooth._value(x, y)) + prob.reg.value(x))


def assert_samples_are_one_point_figures(prob, cert, samples, distances=None):
    """Every sample's d, r_prox, r_alt and F, bit for bit, as the one-point
    functions give them at the same at_each y and ∇f (distances: the
    curve's)."""
    live, X, Y, G = prob.smooth.at_each(np.array([s.x for s in samples]))
    assert live.size == len(samples)
    for i, (s, x, y, g) in enumerate(zip(samples, X, Y, G, strict=True)):
        d = distance_to_solution_set(prob, cert, x) if distances is None else distances[i]
        figures = (d, *one_point_figures(prob, cert, x, y, g))
        assert (s.d, s.r_prox, s.r_alt, s.F_val) == figures


def certified_grouped():
    prob = grouped_lasso_instance(0)
    trace = proximal_gradient(prob, prob.feasible_point,
                              step=Fixed(1.0 / lipschitz_bound(prob)), tol=1e-12, max_iter=100000)
    return prob, certify(prob, trace.terminal, tol=1e-9)


def certified_nuclear_regular():
    prob = nuclear_regular_instance()
    x_star = prob.feasible_point
    return prob, certify(prob, x_star, tol=1e-10)


#: one certified instance of each family, probed around x* (radius 0 too,
#: where coordinates sit at zero and the nuclear rank drops)
FAMILIES = {
    "l1-dense": lambda: certified_dense("l1"),
    "l1-lasso": lambda: counted_lasso(seed=1),
    "ridge-dense": lambda: certified_dense("ridge"),
    "ridge-identity": lambda: certified_ridge(0),
    "orthant": lambda: certified_dense("orthant"),
    "grouped-dense": lambda: certified_dense("grouped-lasso"),
    "grouped": certified_grouped,
    "nuclear-completion": lambda: _completion_instance(0),
    "nuclear-regular": certified_nuclear_regular,
}



def counting_dykstra(monkeypatch):
    """Patch problem._dykstra to count its calls and the rows of each."""
    rows = []
    real = problem._dykstra

    def counted(x0, project_a, project_b):
        rows.append(len(x0))
        return real(x0, project_a, project_b)
    monkeypatch.setattr(problem, "_dykstra", counted)
    return rows


class OnePointThenOthers:
    """A sampler of explicit points, none with a distance of its own."""

    def __init__(self, *points):
        self.points = points

    def pending(self, x_star, radii):
        ids = np.arange(len(self.points))
        return ids.astype(float), ids, np.array(self.points), None


class TestProbeEvaluation:
    """probe evaluates f at all its points together: one stacked forward
    and one stacked adjoint product per call, and per sample the figures a
    per-point evaluation gives."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_sample_is_bit_identical_to_the_one_point_functions(self, family):
        prob, cert = FAMILIES[family]()
        samples = probe(prob, cert, [1.0, 1e-2, 1e-4, 0.0], RandomDirections(5, seed=2))
        assert len(samples) == 20
        assert_samples_are_one_point_figures(prob, cert, samples)

    def test_points_with_some_zero_coordinates(self):
        # half the coordinates moved off x*: each point's nonzero coordinates
        # and its zero ones are summed apart, in the point's own order
        prob, cert = counted_lasso(seed=2)
        rng = np.random.default_rng(7)
        moves = rng.standard_normal((6, cert.x_star.size)) * (rng.random((6, 60)) < 0.5)
        samples = probe(prob, cert, None, OnePointThenOthers(*(cert.x_star + 0.1 * moves)))
        assert all(0 < np.count_nonzero(s.x) < s.x.size for s in samples)
        assert_samples_are_one_point_figures(prob, cert, samples)

    def test_the_orthant_records_inf_where_its_subdifferential_is_empty(self):
        # some points leave the orthant: r_alt is inf there, as the one-point
        # DomainError records it, and finite elsewhere
        prob, cert = certified_dense("orthant")
        samples = probe(prob, cert, [1.0], RandomDirections(8, seed=0))
        inside = [prob.reg.value(s.x) == 0.0 for s in samples]
        assert any(inside) and not all(inside)
        assert [s.r_alt == np.inf for s in samples] == [not i for i in inside]

    def test_one_dykstra_per_call(self, monkeypatch):
        prob, cert = counted_lasso()
        rows = counting_dykstra(monkeypatch)
        probe(prob, cert, [1e-1, 1e-2, 1e-3], RandomDirections(4, seed=1))
        assert rows == [12]

    def test_a_rejected_point_is_left_out_of_every_stack(self, monkeypatch):
        # Poisson past the exp cap: the kept points alone reach Dykstra,
        # each with its one-point figures
        prob, cert = certified_poisson()
        rows = counting_dykstra(monkeypatch)
        sampler = OnePointThenOthers(cert.x_star + [0.1, 0.0], np.array([800.0, 0.0]),
                                     cert.x_star - [0.0, 0.2])
        samples = probe(prob, cert, None, sampler)
        assert [s.direction_id for s in samples] == [0, 2]
        assert rows == [2]
        assert_samples_are_one_point_figures(prob, cert, samples)

    def test_a_curve_brings_its_distances_and_runs_no_dykstra(self, monkeypatch):
        prob, cert = counted_lasso()
        rows = counting_dykstra(monkeypatch)
        u = np.random.default_rng(4).standard_normal(cert.x_star.size)
        points = tuple(cert.x_star + t * u for t in (1e-1, 1e-2, 1e-3))
        distances = (0.5, 0.25, 0.125)
        samples = probe(prob, cert, None, Curve((1.0, 2.0, 3.0), points, distances))
        assert rows == []
        assert [s.radius for s in samples] == [1.0, 2.0, 3.0]
        assert_samples_are_one_point_figures(prob, cert, samples, distances)

    def test_a_failing_sample_after_a_good_one_raises_its_own_gap(self, monkeypatch):
        # with one sweep, x* stops (its step is rounding) and the moved
        # points do not: the error is the first moved point's own
        prob, cert = counted_lasso()
        monkeypatch.setattr(problem, "DYKSTRA_MAX_SWEEPS", 1)
        u = np.random.default_rng(6).standard_normal((2, cert.x_star.size))
        first, second = cert.x_star + 0.1 * u[0], cert.x_star + 0.3 * u[1]
        assert distance_to_solution_set(prob, cert, cert.x_star) <= 1e-12
        with pytest.raises(ConvergenceError) as alone:
            distance_to_solution_set(prob, cert, first)
        with pytest.raises(ConvergenceError) as stacked:
            probe(prob, cert, None, OnePointThenOthers(cert.x_star, first, second))
        assert stacked.value.gap == alone.value.gap
        assert str(stacked.value) == str(alone.value)

    def test_one_loss_value_per_call_and_no_point_objects(self, monkeypatch):
        # the registry lasso's probe, 9 radii × 6 directions: f is valued
        # on the stack of 54 points at once, and no SmoothPoint is built
        prob = lasso_instance(0)
        trace = proximal_gradient(prob, prob.feasible_point,
                                  step=Fixed(1.0 / lipschitz_bound(prob)), tol=1e-12,
                                  max_iter=10000)
        cert = certify(prob, trace.terminal, tol=1e-9)
        valued, built = [], []
        real_value, real_init = LeastSquares._value, SmoothPoint.__init__

        def counted_value(self, y):
            valued.append(y.shape)
            return real_value(self, y)

        def counted_init(self, *args, **kwargs):
            built.append(args)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(LeastSquares, "_value", counted_value)
        monkeypatch.setattr(SmoothPoint, "__init__", counted_init)
        samples = probe(prob, cert, DEFAULT_RADII, RandomDirections(6, seed=0))
        assert len(samples) == 54
        assert valued == [(54, *prob.smooth.A.out_shape)] and built == []

    @pytest.mark.parametrize("radii, count", [([1e-2], 1), ([1e-2], 2), ([1e-1, 1e-2, 1e-3], 5)])
    def test_one_stacked_product_each_way_per_call(self, radii, count):
        prob, cert = counted_lasso()
        samples = probe(prob, cert, radii, RandomDirections(count, seed=3))
        assert len(samples) == len(radii) * count
        assert prob.smooth.A.calls == {"forward_each": 1, "adjoint_each": 1}

    def test_samples_match_a_per_point_evaluation(self):
        # d is computed the same way; y and ∇f differ from the per-point
        # products by rounding: ‖Δy‖ ≤ 1e-13·‖M‖₂‖x‖ and ‖Δ∇f‖ ≤ 1e-13·‖M‖₂·
        # (‖M‖₂‖x‖ + ‖y − b‖), which bound Δr_alt and Δr_prox (the prox is
        # nonexpansive), and ΔF ≤ ‖y − b‖·‖Δy‖ to first order
        prob, cert = counted_lasso(seed=1)
        M2 = prob.smooth.A.operator_norm()
        b = prob.smooth.h.targets
        samples = probe(prob, cert, [1.0, 1e-2, 1e-4], RandomDirections(4, seed=5))
        for s in samples:
            point = prob.smooth.at(s.x)
            dy = 1e-13 * M2 * norm(s.x)
            assert s.d == distance_to_solution_set(prob, cert, s.x)
            r_prox = norm(prob.reg.prox_diff(s.x, point.gradient))
            assert abs(s.r_prox - r_prox) <= 1e-13 * M2 * (M2 * norm(s.x) + norm(point.y - b))
            assert abs(s.r_alt - alt_residual(prob, cert, s.x, point.y)) <= dy
            F = point.value + prob.reg.value(s.x)
            assert abs(s.F_val - F) <= (1.0 + norm(point.y - b)) * dy

    def test_points_past_the_exp_cap_are_skipped_before_their_gradient(self):
        prob, cert = certified_poisson()
        points = [cert.x_star + [0.1, 0.0], np.array([800.0, 0.0]),
                  cert.x_star - [0.0, 0.2], np.array([0.0, 701.0])]
        curve = Curve(params=(1.0, 2.0, 3.0, 4.0), points=tuple(points),
                      distances=tuple(norm(x - cert.x_star) for x in points))
        samples = probe(prob, cert, None, curve)
        assert [s.radius for s in samples] == [1.0, 3.0]
        # ∇h is formed once, on the block of the two points inside
        seen = prob.smooth.h.gradient_inputs
        assert [block.shape for block in seen] == [(2, 2)] and np.max(seen[0]) <= 700.0
        assert prob.smooth.A.calls == {"forward_each": 1, "adjoint_each": 1}

    def test_a_point_past_the_cap_on_a_later_panel_is_skipped_there(self):
        # the third point reaches the cap on row 250, in the last of the
        # three panels: it is rejected, and that panel's ∇h is formed for
        # the three other points alone
        prob, cert = certified_panelled_poisson()
        M = prob.smooth.A.matrix
        assert [rows for rows, _ in prob.smooth.A.row_panels] == \
            [slice(0, 100), slice(100, 200), slice(200, 300)]
        u = np.random.default_rng(8).standard_normal((3, 1000))
        points = [1e-3 * u[0], 1e-3 * u[1], 701.0 * M[250] / norm(M[250]) ** 2, 1e-3 * u[2]]
        y = M @ points[2]
        assert y[250] > 700.0 and np.max(np.delete(y, 250)) <= 700.0
        curve = Curve(params=(1.0, 2.0, 3.0, 4.0), points=tuple(points),
                      distances=tuple(norm(x) for x in points))
        samples = probe(prob, cert, None, curve)
        assert [s.radius for s in samples] == [1.0, 2.0, 4.0]
        seen = prob.smooth.h.gradient_inputs
        assert [block.shape for block in seen] == [(4, 100), (4, 100), (3, 100)]
        assert all(np.max(block) <= 700.0 for block in seen)
        assert prob.smooth.A.calls["forward_each"] == prob.smooth.A.calls["adjoint_each"] == 0

    def test_every_point_past_the_cap_is_an_empty_probe(self):
        prob, cert = certified_poisson()
        points = (np.array([800.0, 0.0]), np.array([0.0, 701.0]))
        curve = Curve(params=(1.0, 2.0), points=points, distances=(1.0, 1.0))
        with pytest.raises(EmptyProbeError):
            probe(prob, cert, None, curve)
        assert prob.smooth.h.gradient_inputs == []

    def test_pieces_that_do_not_meet_still_raise(self):
        # family seed 2 of the nuclear-completion workload: the probe stops
        # at its first distance, as a per-point probe did
        prob, cert = _completion_instance(2)
        with pytest.raises(ConvergenceError, match="do not meet"):
            probe(prob, cert, [1e-2, 1e-3], RandomDirections(2, seed=0))

    def test_dense_pieces_that_do_not_meet_still_raise(self):
        # ȳ moved off the range of B = A∘T, on the stacked dense path
        prob, cert = counted_lasso()
        B = cert.reduced.B
        v = np.random.default_rng(5).standard_normal(cert.y_bar.size)
        e = v - B @ np.linalg.lstsq(B, v, rcond=None)[0]
        moved = replace(cert, y_bar=cert.y_bar + 1e-6 * e / norm(e))
        with pytest.raises(ConvergenceError, match="do not meet"):
            probe(prob, moved, [1e-2], RandomDirections(3, seed=0))


class TestFitExponent:
    def test_exact_proportional_data(self):
        samples = [ProbeSample(x=np.zeros(1), radius=r, direction_id=0,
                               d=2.0 * r, r_prox=r, r_alt=r, F_val=0.0)
                   for r in np.logspace(-1, -4, 8)]
        fit = fit_exponent(samples)
        assert abs(fit.slope - 1.0) <= 1e-12
        assert abs(fit.r_squared - 1.0) <= 1e-12
        assert abs(fit.kappa_max - 2.0) <= 1e-12

    def test_counterexample_curve_slope_two(self):
        prob, cert = certified_counterexample()
        curve = Curve.from_map(np.logspace(-1, -4, 13), counterexample_curve_point,
                               lambda x: norm(x - cert.x_star))
        fit = fit_exponent(probe(prob, cert, None, curve))
        assert abs(fit.slope - 2.0) <= 0.05

    def test_grouped_lasso_slope_one(self):
        prob = grouped_lasso_instance(7)
        L = lipschitz_bound(prob)
        trace = proximal_gradient(prob, prob.feasible_point, step=Fixed(1.0 / L),
                                  tol=1e-11, max_iter=100000)
        cert = certify(prob, trace.terminal, tol=1e-9)
        samples = probe(prob, cert, np.logspace(-2, -4, 9), RandomDirections(6, seed=1007))
        fit = fit_exponent(samples)
        assert abs(fit.slope - 1.0) <= 0.1

    def test_envelope_variant(self):
        prob, cert = certified_ridge(3)
        samples = probe(prob, cert, np.logspace(-1, -4, 10), RandomDirections(6, seed=3))
        fit = fit_exponent(samples, envelope=True)
        assert 0.85 <= fit.slope <= 1.15

    def test_envelope_is_stable_under_rounding_of_d(self):
        # the default radii put log10 ρ at −2.25, −2.75, ...: a 1e-8 relative
        # change in each d, on either side of ρ, must not move the envelope
        rng = np.random.default_rng(5)
        radii = np.logspace(-2, -4, 9)
        kappas = rng.uniform(0.3, 1.0, (radii.size, 6))

        def envelope(rel):
            return fit_exponent([ProbeSample(x=np.zeros(1), radius=rho, direction_id=j,
                                             d=rho * (1.0 + rel), r_prox=k * rho,
                                             r_alt=0.0, F_val=0.0)
                                 for rho, row in zip(radii, kappas)
                                 for j, k in enumerate(row)], envelope=True)

        below, above = envelope(-1e-8), envelope(1e-8)
        assert abs(below.slope - above.slope) <= 1e-7
        assert abs(below.intercept - above.intercept) <= 1e-7
        # each radius contributes its worst sample at that sample's own d
        assert abs(above.slope - np.polyfit(np.log(radii * (1.0 + 1e-8)),
                                            np.log(kappas.max(axis=1) * radii), 1)[0]) <= 1e-12

    def test_insufficient_samples(self):
        samples = [ProbeSample(x=np.zeros(1), radius=0.1, direction_id=0,
                               d=0.1, r_prox=0.1, r_alt=0.1, F_val=0.0)] * 3
        with pytest.raises(InsufficientDataError):
            fit_exponent(samples)

    def test_kappa_by_decade(self):
        samples = [ProbeSample(x=np.zeros(1), radius=r, direction_id=0,
                               d=3.0 * r, r_prox=r, r_alt=r, F_val=0.0)
                   for r in (1e-2, 2e-2, 1e-3)]
        decades = kappa_by_decade(samples)
        assert set(decades) == {-2, -3}
        assert abs(decades[-2] - 3.0) <= 1e-12


class TestStrictComplementarity:
    def test_fails_on_counterexample(self):
        prob, cert = certified_counterexample()
        report = strict_complementarity(prob, cert)
        assert report.s_bar == 2 and report.rank_x == 1
        assert not report.holds
        assert abs(report.margin) <= 1e-12

    def test_holds_on_regular_instance(self):
        prob = nuclear_regular_instance()
        x_star = prob.feasible_point
        report = strict_complementarity(prob, certify(prob, x_star, tol=1e-10))
        assert report.holds and report.s_bar == report.rank_x == 2
        assert report.margin >= 1.0 - 1e-12

    def test_interior_subdifferential_case(self):
        # x* = 0 with ‖∇f(0)‖ < 1: no unit singular values, rank zero
        A = CoordinateSelectMap(((0, 0), (1, 1)), (2, 2))
        smooth = CompositeSmooth(GeneralQuadratic(np.eye(2), np.array([0.3, 0.2])),
                                 A, np.zeros((2, 2)))
        prob = ProblemInstance(smooth, NuclearNorm(), np.zeros((2, 2)))
        cert = certify(prob, np.zeros((2, 2)), tol=1e-10)
        report = strict_complementarity(prob, cert)
        assert report.holds and report.s_bar == 0 and report.rank_x == 0
        assert report.margin == np.inf

    def test_wrong_regularizer_rejected(self):
        prob, cert = certified_ridge(0)
        with pytest.raises(InvalidInputError):
            strict_complementarity(prob, cert)

    def test_invariant_under_orthogonal_conjugation(self):
        # rotate the counterexample variables by fixed (Q₁, Q₂); the
        # regularity verdict must not change
        prob = counterexample_instance()
        rng = np.random.default_rng(5)
        Q1, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        Q2, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        rows = []
        for i in range(2):
            E = np.zeros((2, 2))
            E[i, i] = 1.0
            rows.append((Q1.T @ E @ Q2).reshape(-1))
        A = DenseMap(np.array(rows), (2, 2))
        smooth = CompositeSmooth(prob.smooth.h, A, np.zeros((2, 2)))
        y_star = Q1.T @ np.diag([1.0, 0.0]) @ Q2
        rotated = ProblemInstance(smooth, NuclearNorm(), y_star)
        cert = certify(rotated, y_star, tol=1e-9)
        report = strict_complementarity(rotated, cert)
        assert not report.holds
        assert report.s_bar == 2 and report.rank_x == 1


    @pytest.mark.parametrize("case", ["counterexample", "nuclear-regular",
                                      "completion-tall", "completion-wide"])
    def test_matches_numpy_reference(self, case):
        if case == "counterexample":
            prob, cert = certified_counterexample()
        elif case == "nuclear-regular":
            prob = nuclear_regular_instance()
            x_star = prob.feasible_point
            cert = certify(prob, x_star, tol=1e-10)
        else:
            prob, cert = certified_completion(3, *((7, 5) if case.endswith("tall") else (5, 7)))
        report = strict_complementarity(prob, cert)
        s_bar, rank, margin = complementarity_reference(cert)
        assert (report.s_bar, report.rank_x) == (s_bar, rank)
        assert report.s_bar > 0 and report.margin == pytest.approx(margin, abs=1e-12)

    def test_reads_the_certificate_image(self, monkeypatch):
        # the image build is the only factorization of −ḡ; rank(x*) takes
        # singular values alone
        prob, cert = certified_counterexample()
        calls = []
        original = space.svd

        def counted(X, *args, **kwargs):
            calls.append(np.shape(X))
            return original(X, *args, **kwargs)

        for module in (space, regularizers):
            monkeypatch.setattr(module, "svd", counted)
        strict_complementarity(prob, cert)
        assert calls == [(2, 2)]
        strict_complementarity(prob, cert)
        assert calls == [(2, 2)]

    def test_empty_image_raises(self):
        # a non-optimal point passes a loose certificate, but ‖ḡ‖₂ = 1.3 > 1
        # leaves Γ_P(ḡ) empty, so s̄ has no meaning
        prob = counterexample_instance()
        cert = certify(prob, np.diag([1.0, -0.1]), tol=1.0)
        with pytest.raises(InfeasibleTargetError, match="spectral norm of -g is 1.3 > 1"):
            strict_complementarity(prob, cert)

    @pytest.mark.parametrize("case", list(POLYHEDRAL_CASES))
    def test_polyhedral_image_rejected(self, case):
        prob, cert = certified_dense(case)
        with pytest.raises(InvalidInputError, match="applies to nuclear-norm instances"):
            strict_complementarity(prob, cert)

    def test_empty_polyhedral_image_raises(self):
        prob, cert = certified_empty_image()
        with pytest.raises(InfeasibleTargetError, match="coordinate 0 has"):
            strict_complementarity(prob, cert)


class TestRegularitySummary:
    def test_one_complementarity_report_per_certificate(self, monkeypatch, tmp_path):
        # the strict_complementarity_holds check and the regularity summary
        # read the one report that the certificate keeps
        calls = []
        real = regularizers.NuclearImage.complementarity

        def counted(self, x_star):
            calls.append(x_star)
            return real(self, x_star)

        monkeypatch.setattr(regularizers.NuclearImage, "complementarity", counted)
        code, payload = run_experiment("nuclear-regular", out_dir=tmp_path)
        assert code == 0 and payload["regularity"]["condition"] == NUCLEAR_WITH_SC
        assert len(calls) == 1

    def test_ridge_identity_is_strongly_convex(self):
        prob, cert = certified_ridge(0)
        summary = regularity_summary(prob, cert)
        assert summary.condition == STRONGLY_CONVEX and summary.eb_expected

    def test_grouped_lasso_is_polyhedral(self):
        prob = grouped_lasso_instance(0)
        L = lipschitz_bound(prob)
        trace = proximal_gradient(prob, prob.feasible_point, step=Fixed(1.0 / L),
                                  tol=1e-11, max_iter=100000)
        cert = certify(prob, trace.terminal, tol=1e-9)
        summary = regularity_summary(prob, cert)
        assert summary.condition == POLYHEDRAL and summary.eb_expected

    @pytest.mark.parametrize("case", list(POLYHEDRAL_CASES))
    def test_dense_polyhedral_families(self, case):
        prob, cert = certified_dense(case)
        summary = regularity_summary(prob, cert)
        assert summary.condition == POLYHEDRAL and summary.eb_expected

    def test_empty_image_raises(self):
        # a set that does not exist is not classified as polyhedral
        prob, cert = certified_empty_image()
        with pytest.raises(InfeasibleTargetError,
                           match=r"^inverse image is empty: coordinate 0 has \|g_i\| > λ$"):
            regularity_summary(prob, cert)

    def test_counterexample_unverified(self):
        prob, cert = certified_counterexample()
        summary = regularity_summary(prob, cert)
        assert summary.condition == UNVERIFIED and not summary.eb_expected

    def test_nuclear_with_sc(self):
        prob = nuclear_regular_instance()
        x_star = prob.feasible_point
        summary = regularity_summary(prob, certify(prob, x_star, tol=1e-10))
        assert summary.condition == NUCLEAR_WITH_SC and summary.eb_expected

    def test_noncompact_unverified(self):
        prob = noncompact_instance()
        cert = certify(prob, np.array([-1.0, 0.0]), tol=1e-12)
        summary = regularity_summary(prob, cert)
        assert summary.condition == UNVERIFIED and not summary.eb_expected
