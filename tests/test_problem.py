import dataclasses
import functools
import time
import warnings

import numpy as np
import pytest

from ebound import diagnostics, problem, space
from ebound.config import load_config, validated_problem
from ebound.diagnostics import Curve, RandomDirections, probe
from ebound.errors import (ConvergenceError, DomainError, InfeasibleTargetError,
                           InvalidInputError, NotOptimalError)
from ebound.experiments import (
    counterexample_curve_point,
    counterexample_instance,
    lasso_instance,
    noncompact_instance,
    nuclear_regular_instance,
    ridge_instance,
)
from ebound.losses import CompositeSmooth, LeastSquares
from ebound.problem import (
    ProblemInstance,
    alt_residual,
    certify,
    distance_to_solution_set,
    objective,
    r_alt,
    residual_map,
)
from ebound.regularizers import (TAU_EQ, L1, BoxImage, GroupedLasso, NuclearNorm,
                                 OrthantIndicator, Ridge)
from ebound.solver import Fixed, lipschitz_bound, proximal_gradient
from ebound.space import CoordinateSelectMap, DenseMap, IdentityMap, norm

import oracles
from test_config_cli import MATRIX
from test_losses import COUNTER_B, COUNTER_D, quadratic_oracle


class TestObjective:
    def test_counterexample_value_at_optimum(self):
        prob = counterexample_instance()
        x_bar = prob.feasible_point
        # F(x̄) = h((1, 0)) + ‖x̄‖_* with the nuclear norm contributing 1
        expected = quadratic_oracle(COUNTER_B, COUNTER_D, np.array([1.0, 0.0])) + 1.0
        assert abs(objective(prob, x_bar) - expected) <= 1e-12

    def test_zero_least_squares(self):
        smooth = CompositeSmooth(LeastSquares(np.zeros(3)), IdentityMap((3,)), np.zeros(3))
        prob = ProblemInstance(smooth, L1(1.0), np.zeros(3))
        assert objective(prob, np.zeros(3)) == 0.0

    def test_certified_point_minimizes(self):
        prob = counterexample_instance()
        x_bar = prob.feasible_point
        rng = np.random.default_rng(0)
        f_star = objective(prob, x_bar)
        for _ in range(100):
            x = x_bar + rng.standard_normal((2, 2))
            assert objective(prob, x) >= f_star - 1e-9


class TestResidualMap:
    def test_counterexample_curve(self):
        prob = counterexample_instance()
        for delta in (1e-1, 1e-2, 1e-3):
            R = residual_map(prob, counterexample_curve_point(delta))
            expected = np.diag([-delta**2, delta**2])
            assert np.max(np.abs(R - expected)) <= 1e-10

    def test_zero_at_optimum(self):
        prob = counterexample_instance()
        x_bar = prob.feasible_point
        assert norm(residual_map(prob, x_bar)) <= 1e-12

    def test_noncompact_residual_is_negative_gradient(self):
        prob = noncompact_instance()
        for x in (-1.0, -5.0, -20.0):
            point = np.array([x, 1.0])
            R = residual_map(prob, point)
            np.testing.assert_allclose(R, -prob.smooth.gradient(point), rtol=0, atol=0)

    def test_domain_error_outside(self):
        prob = noncompact_instance()
        with pytest.raises(DomainError):
            residual_map(prob, np.array([2.0, 1.0]))


class TestCertify:
    def test_counterexample_certificate(self):
        prob = counterexample_instance()
        x_bar = prob.feasible_point
        cert = certify(prob, x_bar, tol=1e-10)
        np.testing.assert_allclose(cert.g_bar, -np.eye(2), atol=1e-14)
        np.testing.assert_allclose(cert.y_bar, [1.0, 0.0], atol=1e-14)
        assert cert.tol == 1e-10

    def test_ridge_closed_form(self):
        b = np.array([1.0, -2.0, 0.5])
        lam = 0.3
        smooth = CompositeSmooth(LeastSquares(b), IdentityMap((3,)), np.zeros(3))
        prob = ProblemInstance(smooth, Ridge(lam), np.zeros(3))
        x_star = b / (1.0 + 2.0 * lam)  # stationarity of the quadratic
        cert = certify(prob, x_star, tol=1e-9)
        assert cert.residual_norm <= 1e-12

    def test_not_optimal_carries_residual(self):
        prob = counterexample_instance()
        # at 0: ∇f(0) = diag(−5/2, 1), shrinkage of diag(5/2, −1) leaves diag(3/2, 0)
        with pytest.raises(NotOptimalError) as err:
            certify(prob, np.zeros((2, 2)), tol=1e-10)
        assert abs(err.value.residual_norm - 1.5) <= 1e-12

    @pytest.mark.parametrize("x", [np.full(8, np.nan), np.r_[np.inf, np.zeros(7)]],
                             ids=["nan", "inf"])
    def test_non_finite_residual_is_not_optimal(self, x):
        # a NaN ‖R(x)‖ fails every comparison, `r > tol` included
        with pytest.raises(NotOptimalError) as err, np.errstate(all="ignore"):
            certify(lasso_instance(0), x)
        assert np.isnan(err.value.residual_norm)

    def test_invariance_across_distinct_optima(self):
        prob = nuclear_regular_instance()
        x_star = prob.feasible_point
        other = np.array([[1.0, 0.5], [0.5, 1.0]])
        c1 = certify(prob, x_star, tol=1e-9)
        c2 = certify(prob, other, tol=1e-9)
        assert norm(c1.y_bar - c2.y_bar) <= 1e-8
        assert norm(c1.g_bar - c2.g_bar) <= 1e-8

    def test_invariance_on_duplicated_column_lasso(self):
        # two columns of A identical: the optimum splits arbitrarily but
        # (ȳ, ḡ) must agree
        smooth = CompositeSmooth(LeastSquares(np.array([2.0])),
                                 DenseMap(np.array([[1.0, 1.0]]), (2,)), np.zeros(2))
        prob = ProblemInstance(smooth, L1(0.5), np.zeros(2))
        c1 = certify(prob, np.array([1.5, 0.0]), tol=1e-9)
        c2 = certify(prob, np.array([0.75, 0.75]), tol=1e-9)
        assert norm(c1.y_bar - c2.y_bar) <= 1e-12
        assert norm(c1.g_bar - c2.g_bar) <= 1e-12


class TestAlternativeResidual:
    def test_zero_at_optimum(self):
        prob = counterexample_instance()
        x_bar = prob.feasible_point
        cert = certify(prob, x_bar, tol=1e-10)
        assert r_alt(prob, cert, x_bar) <= 1e-12

    def test_counterexample_affine_term(self):
        prob = counterexample_instance()
        x_bar = prob.feasible_point
        cert = certify(prob, x_bar, tol=1e-10)
        delta = 1e-2
        xk = counterexample_curve_point(delta)
        affine = norm(prob.smooth.A(xk) - cert.y_bar)
        assert abs(affine - delta**2 * np.sqrt(5.0)) <= 1e-14
        total = r_alt(prob, cert, xk)
        sub = prob.reg.subdiff_distance(xk, -cert.g_bar)
        assert abs(total - (affine + sub)) <= 1e-14

    def test_grouped_lasso_matches_per_group_oracle(self):
        prob = grouped_toy()
        cert = certify(prob, np.array([1.0, 0.0]), tol=1e-9)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = cert.x_star + 0.1 * rng.standard_normal(2)
            got = r_alt(prob, cert, x)
            affine = norm(prob.smooth.A(x) - cert.y_bar)
            expected = affine + oracles.grouped_subdiff_distance_oracle(
                x, -cert.g_bar, prob.reg.groups, prob.reg.weights)
            assert abs(got - expected) <= 1e-9

    def test_infinite_outside_the_orthant(self):
        # ∂P(x) is empty off C: alt_residual raises, and probe records inf
        A = DenseMap(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]), (3,))
        smooth = CompositeSmooth(LeastSquares(np.array([1.0, -1.0])), A, np.zeros(3))
        prob = ProblemInstance(smooth, OrthantIndicator([1, 1, 0]), np.zeros(3))
        cert = certify(prob, np.array([1.0, 0.0, -1.0]), tol=1e-12)
        samples = probe(prob, cert, [1e-2, 1e-3], RandomDirections(6, seed=0))
        inside = [prob.reg.value(s.x) == 0.0 for s in samples]
        assert 0 < sum(inside) < len(samples)
        assert [s.r_alt == np.inf for s in samples] == [not i for i in inside]
        x = samples[inside.index(False)].x
        with pytest.raises(DomainError):
            alt_residual(prob, cert, x, A(x))


def grouped_toy():
    """f = ½(x₁ − 3)² with singleton groups, weights (2, 0): the optimal set
    is the vertical line {1} × ℝ."""
    smooth = CompositeSmooth(LeastSquares(np.array([3.0])),
                             DenseMap(np.array([[1.0, 0.0]]), (2,)), np.zeros(2))
    reg = GroupedLasso([[0], [1]], [2.0, 0.0])
    return ProblemInstance(smooth, reg, np.array([1.0, 0.0]))


def record_inverse_images(monkeypatch, cls):
    """Record the g of every cls.inverse_image(g) call."""
    calls = []
    build = cls.inverse_image

    def recording(self, g, *args):
        calls.append(g)
        return build(self, g, *args)

    monkeypatch.setattr(cls, "inverse_image", recording)
    return calls


class TestDistanceToSolutionSet:
    def test_counterexample_unique_distance(self, monkeypatch):
        # the optimum is unique, so a curve carries d = ‖x − x̄‖ and probe
        # never runs Dykstra, which stalls on the counterexample's touching sets
        def no_dykstra(*args):
            raise AssertionError("probe measured a curve point by Dykstra")

        monkeypatch.setattr(diagnostics, "distance_to_solution_set", no_dykstra)
        prob = counterexample_instance()
        x_bar = prob.feasible_point
        cert = certify(prob, x_bar, tol=1e-10)
        deltas = (1e-1, 1e-2, 1e-3)
        curve = Curve.from_map(deltas, counterexample_curve_point, lambda x: norm(x - x_bar))
        for s, delta in zip(probe(prob, cert, None, curve), deltas):
            assert abs(s.d - delta * np.sqrt(2.0 + 5.0 * delta**2)) <= 1e-12

    def test_zero_on_members(self):
        prob = nuclear_regular_instance()
        x_star = prob.feasible_point
        cert = certify(prob, x_star, tol=1e-9)
        member = np.array([[1.0, 0.4], [0.4, 1.0]])
        assert distance_to_solution_set(prob, cert, member) <= 1e-8

    def test_grouped_toy_matches_line_oracle(self):
        prob = grouped_toy()
        cert = certify(prob, np.array([1.0, 5.0]), tol=1e-9)
        x = np.array([2.5, -0.7])
        d = distance_to_solution_set(prob, cert, x)
        ts = np.linspace(-10.0, 10.0, 400001)
        brute = np.min(np.hypot(x[0] - 1.0, x[1] - ts))
        assert abs(d - 1.5) <= 1e-8
        assert abs(d - brute) <= 1e-6

    def test_nuclear_segment_matches_parameterization_oracle(self):
        prob = nuclear_regular_instance()
        x_star = prob.feasible_point
        cert = certify(prob, x_star, tol=1e-9)
        rng = np.random.default_rng(2)
        ts = np.linspace(-1.0, 1.0, 200001)
        segment = np.empty((ts.size, 2, 2))
        segment[:, 0, 0] = segment[:, 1, 1] = 1.0
        segment[:, 0, 1] = segment[:, 1, 0] = ts
        for _ in range(10):
            x = x_star + 0.3 * rng.standard_normal((2, 2))
            d = distance_to_solution_set(prob, cert, x)
            brute = np.min(np.linalg.norm(x - segment, axis=(1, 2)))
            assert abs(d - brute) <= 1e-5

    def test_image_built_once_per_certificate(self, monkeypatch):
        calls = record_inverse_images(monkeypatch, GroupedLasso)
        prob = grouped_toy()
        cert = certify(prob, np.array([1.0, 5.0]), tol=1e-9)
        first = probe(prob, cert, [0.1, 0.01], RandomDirections(3, seed=0))
        second = probe(prob, cert, [0.05], RandomDirections(3, seed=1))
        assert len(first) == 6 and len(second) == 3
        assert len(calls) == 1 and calls[0] is cert.g_bar

    def test_empty_image_raises_on_every_call(self, monkeypatch):
        # f = ½(x₁ − 3)² with λ = 1: x* = (2, 0), and (2 − 1e-4, 0) certifies
        # at tol 1e-3 with |ḡ₁| = 1 + 1e-4 > λ, so Γ_P(ḡ) is empty
        calls = record_inverse_images(monkeypatch, L1)
        smooth = CompositeSmooth(LeastSquares(np.array([3.0])),
                                 DenseMap(np.array([[1.0, 0.0]]), (2,)), np.zeros(2))
        prob = ProblemInstance(smooth, L1(1.0), np.zeros(2))
        cert = certify(prob, np.array([2.0 - 1e-4, 0.0]), tol=1e-3)
        for _ in range(3):
            with pytest.raises(InfeasibleTargetError,
                               match=r"^inverse image is empty: coordinate 0 has \|g_i\| > λ$"):
                distance_to_solution_set(prob, cert, np.array([1.5, 0.5]))
        assert len(calls) == 3

    def test_loss_not_strongly_convex_rejected(self):
        # 𝒳 is the ray {(x, 0) : x ≤ 0}, but {A z = ȳ} ∩ Γ_P(ḡ) is {x*}: at
        # (−0.95, 0.05) Dykstra measured ‖x − x*‖ = 0.071, not the true 0.05
        prob = noncompact_instance()
        cert = certify(prob, np.array([-1.0, 0.0]), tol=1e-12)
        with pytest.raises(InvalidInputError, match="strongly convex on compact sets"):
            distance_to_solution_set(prob, cert, np.array([-0.95, 0.05]))
        with pytest.raises(InvalidInputError):
            probe(prob, cert, [0.1], RandomDirections(3, seed=0))

    def test_strongly_convex_shortcut(self):
        prob = ridge_instance(0)
        L = lipschitz_bound(prob)
        trace = proximal_gradient(prob, prob.feasible_point, step=Fixed(1.0 / L),
                                  tol=1e-12, max_iter=10000)
        cert = certify(prob, trace.terminal, tol=1e-9)
        x = cert.x_star + 0.01 * np.ones_like(cert.x_star)
        assert abs(distance_to_solution_set(prob, cert, x)
                   - norm(x - cert.x_star)) <= 1e-14


@functools.cache
def _certified(name):
    """The lasso or ridge instance of seed 0 solved to 1e-11, or
    nuclear-regular at its known optimum, certified at 1e-9."""
    if name == "nuclear-regular":
        prob = nuclear_regular_instance()
        x = prob.feasible_point
    else:
        prob = {"lasso": lasso_instance, "ridge": ridge_instance}[name](0)
        x = proximal_gradient(prob, prob.feasible_point, step=Fixed(1.0 / lipschitz_bound(prob)),
                              tol=1e-11, max_iter=100000).terminal
    return prob, certify(prob, x, tol=1e-9)


class TestNonFinitePoint:
    """A NaN or inf anywhere in the point raises InvalidInputError at once and
    warns nothing: in a face coordinate of the lasso it used to spend
    Dykstra's whole budget, and off the face it returned d = nan or inf."""

    @pytest.mark.parametrize("name, index", [
        ("lasso", 0),     # in the face of Γ_P(ḡ)
        ("lasso", 3),
        ("lasso", 1),     # pinned at 0
        ("nuclear-regular", (0, 1)),
        ("ridge", 2),     # the identity map's shortcut
    ], ids=["lasso-face-0", "lasso-face-3", "lasso-off-face", "nuclear-regular", "ridge"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_raises_at_once(self, name, index, value):
        prob, cert = _certified(name)
        x = cert.x_star.copy()
        x[index] = value
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="point has non-finite entries"):
                distance_to_solution_set(prob, cert, x)
        assert time.perf_counter() - start < 0.05


class TestDykstraAccuracy:
    """Where B = A∘T has a null space, Dykstra iterates, and its stopping rule
    bounds no error: the distance is checked against the projection onto
    {M x = ȳ} ∩ Γ_P(ḡ) found by enumerating its active sets in the ambient
    coordinates (n ≤ 5 here)."""

    @pytest.mark.parametrize("name, k", [("orthant-dense", 3), ("orthant-wide", 5)])
    def test_matches_the_enumerated_projection(self, monkeypatch, name, k):
        prob = validated_problem(load_config(MATRIX / f"{name}.json"))
        trace = proximal_gradient(prob, prob.feasible_point, step=Fixed(1.0 / lipschitz_bound(prob)),
                                  tol=1e-11, max_iter=200000)
        cert = certify(prob, trace.terminal, tol=1e-9)
        assert cert.image.k == k
        lo, hi = oracles.orthant_inverse_image_oracle(cert.g_bar, prob.reg.signs, TAU_EQ)
        sweeps = []
        project_K = BoxImage.project_K

        def counted(self, z):
            sweeps[-1] += 1
            return project_K(self, z)

        monkeypatch.setattr(BoxImage, "project_K", counted)
        units = _directions(cert.x_star.shape, 6, seed=0)
        for rho in np.logspace(-2, -4, 9):
            for u in units:
                x = cert.x_star + rho * u
                sweeps.append(0)
                d = distance_to_solution_set(prob, cert, x)
                nearest = oracles.box_affine_project_oracle(
                    x, prob.smooth.A.matrix, cert.y_bar, lo, hi)
                assert abs(d - norm(x - nearest)) <= 1e-9
        assert max(sweeps) > 2  # Dykstra iterated, not just the closed form


def _sparse_instance(seed, groups=None, m=60, n=150):
    """min ½‖Mx − b‖² + P(x) with P = λ‖x‖₁, or the grouped norm over
    consecutive groups of the given size, built like the sparse workloads."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((m, n))
    x_true = np.zeros(n)
    x_true[:4] = [1.5, 0.0, -1.0, -2.0]
    b = M @ x_true + 0.05 * rng.standard_normal(m)
    smooth = CompositeSmooth(LeastSquares(b), DenseMap(M, (n,)), np.zeros(n))
    if groups is None:
        reg = L1(0.3 * float(np.max(np.abs(M.T @ b))))
    else:
        blocks = np.arange(n).reshape(-1, groups)
        w = 0.45 * float(np.max(np.linalg.norm((M.T @ b)[blocks], axis=1)))
        reg = GroupedLasso(blocks.tolist(), [w] * len(blocks))
    prob = ProblemInstance(smooth, reg, np.zeros(n))
    trace = proximal_gradient(prob, np.zeros(n), step=Fixed(1.0 / lipschitz_bound(prob)),
                              tol=1e-11, max_iter=100000)
    return prob, M, certify(prob, trace.terminal, tol=1e-9)


def _completion_instance(seed, m=20, n=30, rank=2):
    """The matrix-completion family of the nuclear-completion workload: a
    rank-2 truth, each entry observed with probability 1/2, solved to 1e-11."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    rows, cols = np.nonzero(rng.random((m, n)) < 0.5)
    A = CoordinateSelectMap(tuple(zip(rows.tolist(), cols.tolist())), (m, n))
    smooth = CompositeSmooth(LeastSquares(X[rows, cols]), A, np.zeros((m, n)))
    prob = ProblemInstance(smooth, NuclearNorm(), np.zeros((m, n)))
    trace = proximal_gradient(prob, prob.feasible_point,
                              step=Fixed(1.0 / lipschitz_bound(prob)), tol=1e-11,
                              max_iter=200000)
    return prob, certify(prob, trace.terminal, tol=1e-10)


def _directions(shape, count, seed):
    rng = np.random.default_rng(seed)
    return [u / norm(u) for u in rng.standard_normal((count, *shape))]


class TestFaceDistance:
    """Distances through the face of Γ_P(ḡ), checked against numpy."""

    def test_lasso_is_distance_to_the_support_least_squares_point(self):
        # 𝒳 = {x̂}: M restricted to the support S of x* is injective, and the
        # least-squares solution of M_S x_S = ȳ carries the signs of x*
        prob, M, cert = _sparse_instance(0)
        S = np.flatnonzero(cert.x_star)
        x_hat = np.zeros_like(cert.x_star)
        x_hat[S] = np.linalg.lstsq(M[:, S], cert.y_bar, rcond=None)[0]
        np.testing.assert_array_equal(np.sign(x_hat[S]), np.sign(cert.x_star[S]))
        assert cert.image.k == S.size
        for rho in (1.0, 1e-1, 1e-2):
            for u in _directions(x_hat.shape, 3, 1):
                x = cert.x_star + rho * u
                exact = norm(x - x_hat)
                assert abs(distance_to_solution_set(prob, cert, x) - exact) <= 1e-12 * exact

    def test_grouped_lasso_is_distance_to_the_ray_least_squares_point(self):
        # 𝒳 = {x̂}: x̂ = Σ a_J u_J over the ray blocks, u_J = ḡ_J/‖ḡ_J‖, with a
        # the least-squares solution of M U a = ȳ, all a_J < 0
        prob, M, cert = _sparse_instance(0, groups=5)
        norms = np.linalg.norm(cert.g_bar.reshape(-1, 5), axis=1)
        rays = np.flatnonzero(np.isclose(norms, prob.reg.weights[0], rtol=1e-8))
        U = np.zeros((cert.x_star.size, rays.size))
        for col, J in enumerate(rays):
            U[5 * J:5 * J + 5, col] = cert.g_bar[5 * J:5 * J + 5] / norms[J]
        a = np.linalg.lstsq(M @ U, cert.y_bar, rcond=None)[0]
        assert rays.size >= 1 and np.all(a < 0)
        x_hat = U @ a
        assert cert.image.k == rays.size
        for rho in (1.0, 1e-1, 1e-2):
            for u in _directions(x_hat.shape, 3, 2):
                x = cert.x_star + rho * u
                exact = norm(x - x_hat)
                assert abs(distance_to_solution_set(prob, cert, x) - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_completion_distance_is_bracketed(self, seed):
        # d(x, A⁻¹ȳ) and d(x, Γ_P(ḡ)) bound d below; ‖x − x*‖ plus the
        # certificate's gap to {A z = ȳ} bounds it above
        prob, cert = _completion_instance(seed)
        for rho in (1e-2, 1e-3, 1e-4):
            for u in _directions(cert.x_star.shape, 2, seed):
                x = cert.x_star + rho * u
                d = distance_to_solution_set(prob, cert, x)
                lower = max(norm(prob.smooth.A(x) - cert.y_bar), cert.image.distance(x))
                assert lower <= d <= norm(x - cert.x_star) + cert.reduced.gap

    def test_inconsistent_completion_certificate_raises_at_once(self):
        # family seed 2 certifies, but the least-squares point of the face
        # misses {A z = ȳ} by 5.1e-10 > DYKSTRA_TOL, so no Dykstra sweep can
        # close the gap: the error comes from the cached certificate
        prob, cert = _completion_instance(2)
        x = cert.x_star + 1e-3 * _directions(cert.x_star.shape, 1, 0)[0]
        start = time.perf_counter()
        for _ in range(3):
            with pytest.raises(ConvergenceError, match="do not meet") as err:
                distance_to_solution_set(prob, cert, x)
            assert 4e-10 <= err.value.gap <= 6e-10
        assert time.perf_counter() - start < 0.1


def _ridge_dense_instance():
    """ridge on a dense 3×4 map: Γ_P(ḡ) is one point, so k = 0."""
    M = np.array([[1.0, 0.0, 2.0, 0.0], [0.0, 1.0, 0.0, -1.0], [1.0, 1.0, 0.0, 1.0]])
    smooth = CompositeSmooth(LeastSquares(np.array([1.0, -1.0, 0.5])), DenseMap(M, (4,)),
                             np.zeros(4))
    prob = ProblemInstance(smooth, Ridge(0.3), np.zeros(4))
    trace = proximal_gradient(prob, np.zeros(4), step=Fixed(1.0 / lipschitz_bound(prob)),
                              tol=1e-12, max_iter=10000)
    return prob, certify(prob, trace.terminal, tol=1e-9)


class TestReducedGap:
    """The certificate's "do not meet" gap, ‖r − B B⁺r‖ / max(1, ‖B‖₂)."""

    @pytest.mark.parametrize("build", [
        _ridge_dense_instance,
        lambda: _sparse_instance(0)[::2],
        lambda: _sparse_instance(0, groups=5)[::2],
        lambda: _completion_instance(0),
    ], ids=["ridge-dense", "lasso", "grouped-lasso", "completion"])
    def test_gap_is_the_scaled_least_squares_residual_of_B(self, build):
        prob, cert = build()
        red, image = cert.reduced, cert.image
        assert red.B.shape == (cert.y_bar.size, image.k)
        np.testing.assert_array_equal(red.r, cert.y_bar - prob.smooth.A(image.c))
        B_pinv = np.linalg.pinv(red.B, rcond=1e-12)
        expected = norm(red.r - red.B @ (B_pinv @ red.r)) / max(1.0, np.linalg.norm(red.B, 2))
        assert red.gap == expected

    def test_gap_with_no_face_coordinates_is_the_residual(self):
        prob, cert = _ridge_dense_instance()
        assert cert.image.k == 0
        assert cert.reduced.gap == norm(cert.reduced.r)

    @pytest.mark.parametrize("seed", range(6))
    def test_completion_gap_is_the_distance_to_the_affine_piece(self, seed):
        # a coordinate-select map has ‖B‖ ≤ 1, so the gap is the distance from
        # the face's least-squares point to {A z = ȳ}, up to rounding in ȳ
        # (at most 0.2·eps·‖ȳ‖ apart on these seeds); seeds 2, 4 and 5 do not meet
        prob, cert = _completion_instance(seed)
        red, image = cert.reduced, cert.image
        p = image.c + image.T(red.B_pinv @ red.r)
        old = norm(p - space.affine_project(p, prob.smooth.A, cert.y_bar))
        assert abs(red.gap - old) <= 4 * np.finfo(float).eps * norm(cert.y_bar)
        assert (red.gap > problem.DYKSTRA_TOL) == (seed in (2, 4, 5))

    def test_target_off_the_range_of_B_does_not_meet(self):
        # move ȳ by δ along a unit vector orthogonal to the range of B
        prob, _, cert = _sparse_instance(0)
        B = cert.reduced.B
        scale = max(1.0, float(np.linalg.norm(B, 2)))
        assert scale > 1.0
        v = np.random.default_rng(5).standard_normal(cert.y_bar.size)
        e = v - B @ np.linalg.lstsq(B, v, rcond=None)[0]
        delta = 1e-6
        moved = dataclasses.replace(cert, y_bar=cert.y_bar + delta * e / norm(e))
        with pytest.raises(ConvergenceError, match="do not meet") as err:
            distance_to_solution_set(prob, moved, cert.x_star)
        assert abs(err.value.gap - delta / scale) <= 1e-6 * delta / scale

    def test_dense_certificate_stays_in_k_coordinates(self, monkeypatch):
        # neither the ambient projection nor a pseudoinverse of the m×n map
        prob, _, cert = _sparse_instance(0, m=200, n=500)
        shapes = []
        pinv = np.linalg.pinv

        def recording_pinv(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return pinv(a, *args, **kwargs)

        def no_affine_project(*args):
            raise AssertionError("affine_project called")

        monkeypatch.setattr(np.linalg, "pinv", recording_pinv)
        monkeypatch.setattr(problem, "affine_project", no_affine_project)
        monkeypatch.setattr(space, "affine_project", no_affine_project)
        fresh = certify(prob, cert.x_star, tol=1e-9)
        x = fresh.x_star + 1e-3 * _directions(fresh.x_star.shape, 1, 0)[0]
        assert distance_to_solution_set(prob, fresh, x) > 0.0
        assert shapes == [(200, fresh.image.k)]


class TestResidualComparisons:
    """Empirical sides of the residual/distance inequalities near the
    optimal set: the fitted constants stay below instance-derived caps."""

    def test_residual_bounded_by_distance(self):
        prob = ridge_instance(1)
        L = lipschitz_bound(prob)
        trace = proximal_gradient(prob, prob.feasible_point, step=Fixed(1.0 / L),
                                  tol=1e-12, max_iter=10000)
        cert = certify(prob, trace.terminal, tol=1e-9)
        rng = np.random.default_rng(3)
        # ‖R(x)‖ ≤ L_R d(x, 𝒳) with L_R ≤ L_A‖A‖ + 2 and L_A = ‖B‖ here
        cap = float(np.linalg.norm(prob.smooth.h.B, 2)) + 2.0
        worst_r = 0.0
        worst_g = 0.0
        for _ in range(200):
            u = rng.standard_normal(cert.x_star.shape)
            x = cert.x_star + rng.uniform(1e-4, 1e-1) * u / norm(u)
            d = norm(x - cert.x_star)
            worst_r = max(worst_r, norm(residual_map(prob, x)) / d)
            gap = norm(prob.smooth.gradient(x) - cert.g_bar)
            worst_g = max(worst_g, gap / norm(prob.smooth.A(x) - cert.y_bar))
        assert worst_r <= cap + 1e-9
        assert worst_g <= float(np.linalg.norm(prob.smooth.h.B, 2)) + 1e-9

    def test_prox_and_alt_residuals_two_sided(self):
        prob = ridge_instance(2)
        L = lipschitz_bound(prob)
        trace = proximal_gradient(prob, prob.feasible_point, step=Fixed(1.0 / L),
                                  tol=1e-12, max_iter=10000)
        cert = certify(prob, trace.terminal, tol=1e-9)
        rng = np.random.default_rng(4)
        ratios = []
        for _ in range(200):
            u = rng.standard_normal(cert.x_star.shape)
            x = cert.x_star + rng.uniform(1e-4, 1e-1) * u / norm(u)
            ratios.append(norm(residual_map(prob, x)) / r_alt(prob, cert, x))
        spread = max(ratios) / min(ratios)
        assert spread <= 1e3


def test_r_alt_is_nan_for_a_loss_not_strongly_convex():
    # ȳ and ḡ are not invariant over 𝒳, so ‖A(x) − ȳ‖ + d(−ḡ, ∂P(x)) means nothing
    prob = noncompact_instance()
    cert = certify(prob, np.array([-1.0, 0.0]), tol=1e-12)
    assert np.isnan(r_alt(prob, cert, np.array([-5.0, 1.0])))


class TestFeasiblePointValidation:
    def test_rejects_infeasible_witness(self):
        smooth = CompositeSmooth(LeastSquares(np.zeros(2)), IdentityMap((2,)), np.zeros(2))
        from ebound.regularizers import OrthantIndicator
        with pytest.raises(DomainError):
            ProblemInstance(smooth, OrthantIndicator([-1, 1]), np.array([1.0, 1.0]))


class TestDykstraBudget:
    def test_degenerate_intersection_raises_convergence_error(self):
        # the counterexample's touching sets exhaust Dykstra's sweep budget;
        # the error carries the last gap
        from ebound.errors import ConvergenceError
        prob = counterexample_instance()
        x_bar = prob.feasible_point
        cert = certify(prob, x_bar, tol=1e-10)
        with pytest.raises(ConvergenceError) as err:
            distance_to_solution_set(prob, cert, counterexample_curve_point(0.1))
        assert err.value.gap > 0.0


class TestStackedDistance:
    """A stack of points (a leading axis) gets each point's own distance;
    a single point is a stack of one."""

    @pytest.mark.parametrize("name", ["lasso", "ridge", "nuclear-regular"])
    def test_each_point_as_its_own_call(self, name):
        prob, cert = _certified(name)
        u = np.random.default_rng(8).standard_normal((5, *cert.x_star.shape))
        scales = np.array([1.0, 1e-2, 0.0, 1e-4, 3.0]).reshape((5,) + (1,) * cert.x_star.ndim)
        xs = cert.x_star + scales * u
        stacked = distance_to_solution_set(prob, cert, xs)
        assert stacked.shape == (5,)
        assert list(stacked) == [distance_to_solution_set(prob, cert, x) for x in xs]
        assert isinstance(distance_to_solution_set(prob, cert, xs[0]), float)

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3, 8), (1, 9)], ids=str)
    def test_a_stack_of_other_points_is_refused(self, shape):
        prob, cert = _certified("lasso")
        with pytest.raises(InvalidInputError, match="or a stack of points of that shape"):
            distance_to_solution_set(prob, cert, np.zeros(shape))

    def test_an_empty_stack_has_no_distances(self):
        prob, cert = _certified("lasso")
        assert distance_to_solution_set(prob, cert, np.zeros((0, 8))).shape == (0,)

    def test_a_non_finite_point_in_a_stack_raises_at_once(self):
        prob, cert = _certified("lasso")
        xs = np.repeat(cert.x_star[None], 3, axis=0)
        xs[2, 0] = np.nan
        with pytest.raises(InvalidInputError, match="point has non-finite entries"):
            distance_to_solution_set(prob, cert, xs)

    def test_alt_residual_of_a_stack(self):
        prob, cert = _certified("lasso")
        xs = cert.x_star + 1e-2 * np.random.default_rng(9).standard_normal((4, 8))
        ys = np.array([prob.smooth.A(x) for x in xs])
        assert list(alt_residual(prob, cert, xs, ys)) == [
            alt_residual(prob, cert, x, y) for x, y in zip(xs, ys)]
