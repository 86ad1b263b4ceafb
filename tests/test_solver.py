import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import pytest

from ebound import regularizers
from ebound.errors import (ConvergenceError, DomainError, InsufficientDataError, InvalidInputError,
                           LineSearchError)
from ebound.experiments import counterexample_instance, ridge_instance
from ebound.losses import CompositeSmooth, LeastSquares, SmoothLoss
from ebound.problem import ProblemInstance, certify, objective
from ebound.regularizers import L1, NuclearNorm, Ridge
from ebound.solver import (
    CONVERGED,
    ITERATION_LIMIT,
    Backtracking,
    Fixed,
    SolveTrace,
    estimate_linear_rate,
    lipschitz_bound,
    proximal_gradient,
)
from ebound.space import (
    GATHER_MIN_ENTRIES,
    GATHER_RATIO,
    CoordinateSelectMap,
    DenseMap,
    IdentityMap,
    LinearMap,
    norm,
)


@dataclass(frozen=True)
class CountingMap(DenseMap):
    """DenseMap that counts its support scans and its forward and adjoint
    applications, per point and stacked, and keeps the union of its
    per-point inputs' supports.  Every per-point forward, A(x) included,
    goes through apply_on, and every scan through support."""

    calls: Counter = field(default_factory=Counter, compare=False)
    supports: set = field(default_factory=set, compare=False)

    def support(self, x):
        self.calls["scan"] += 1
        return super().support(x)

    def apply_on(self, x, s):
        self.calls["forward"] += 1
        self.supports.update(np.asarray(x).reshape(-1).nonzero()[0].tolist())
        return super().apply_on(x, s)

    def adjoint(self, y):
        self.calls["adjoint"] += 1
        return super().adjoint(y)

    def apply_each(self, xs):
        self.calls["forward_each"] += 1
        return super().apply_each(xs)

    def adjoint_each(self, ys):
        self.calls["adjoint_each"] += 1
        return super().adjoint_each(ys)


@dataclass(frozen=True)
class CountingRidge(Ridge):
    """Ridge that counts its value calls."""

    calls: Counter = field(default_factory=Counter, compare=False)

    def value(self, x, *, stack=False):
        self.calls["value"] += 1
        return super().value(x, stack=stack)


def lasso_toy(seed=0, m=30, n=60):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((m, n))
    b = M[:, :3] @ np.array([1.5, -2.0, 0.5]) + 0.05 * rng.standard_normal(m)
    lam = 0.3 * float(np.max(np.abs(M.T @ b)))
    A = CountingMap(M, (n,))
    prob = ProblemInstance(CompositeSmooth(LeastSquares(b), A, np.zeros(n)), L1(lam), np.zeros(n))
    A.calls.clear()
    A.supports.clear()
    return prob, M, b, lam


def completion_toy(seed=0, m=6, n=8):
    """Nuclear-norm matrix completion of a rank-2 matrix from about half of
    its entries; least squares on a coordinate selection, so L = 1."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, 2)) @ rng.standard_normal((2, n))
    rows, cols = np.nonzero(rng.random((m, n)) < 0.5)
    b = X[rows, cols]
    A = CoordinateSelectMap(tuple(zip(rows.tolist(), cols.tolist())), (m, n))
    smooth = CompositeSmooth(LeastSquares(b), A, np.zeros((m, n)))
    return ProblemInstance(smooth, NuclearNorm(), np.zeros((m, n))), rows, cols, b


def ridge_toy(lam=0.3):
    b = np.array([1.0, -2.0, 0.5, 3.0])
    smooth = CompositeSmooth(LeastSquares(b), IdentityMap((4,)), np.zeros(4))
    return ProblemInstance(smooth, Ridge(lam), np.zeros(4)), b / (1.0 + 2.0 * lam)


class TestProximalGradient:
    def test_counterexample_reaches_unique_optimum(self):
        prob = counterexample_instance()
        x_bar = prob.feasible_point
        trace = proximal_gradient(prob, np.diag([2.0, 1.0]), step=Fixed(0.2),
                                  tol=1e-8, max_iter=20000)
        assert trace.status == CONVERGED
        assert norm(trace.terminal - x_bar) <= 1e-6

    def test_ridge_matches_closed_form(self):
        prob, x_star = ridge_toy()
        trace = proximal_gradient(prob, np.zeros(4), step=Backtracking(),
                                  tol=1e-10, max_iter=5000)
        assert trace.status == CONVERGED
        assert norm(trace.terminal - x_star) <= 1e-9

    def test_backtracking_descends(self):
        # F(xₖ) recomputed at each iterate, from a re-run stopped at k
        prob, x0 = ridge_instance(0), np.ones(8) * 3.0
        trace = proximal_gradient(prob, x0, step=Backtracking(), tol=1e-10, max_iter=5000)
        assert trace.status == CONVERGED and len(trace.iterations) > 10
        values = [objective(prob, proximal_gradient(prob, x0, step=Backtracking(), tol=1e-10,
                                                    max_iter=k).terminal)
                  for k, _, _ in trace.iterations]
        assert values[-1] < values[0]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_zero_steps_at_optimum(self):
        prob, x_star = ridge_toy()
        trace = proximal_gradient(prob, x_star, tol=1e-9)
        assert trace.status == CONVERGED
        assert len(trace.iterations) == 1
        np.testing.assert_allclose(trace.terminal, x_star)

    def test_fixed_step_limits_agree(self):
        prob = ridge_instance(1)
        L = lipschitz_bound(prob)
        terminals = []
        for t in (1.0 / L, 0.5 / L):
            trace = proximal_gradient(prob, np.zeros(8), step=Fixed(t),
                                      tol=1e-10, max_iter=20000)
            assert trace.status == CONVERGED
            terminals.append(trace.terminal)
        assert norm(terminals[0] - terminals[1]) <= 1e-5

    def test_divergent_step_stops_at_first_non_finite_residual(self):
        A = DenseMap(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]), (3,))
        prob = ProblemInstance(CompositeSmooth(LeastSquares(np.array([1.0, -1.0])), A,
                                               np.zeros(3)), L1(0.4), np.zeros(3))
        step = Fixed(5.0)  # 1/L = 1/‖A‖² = 0.5
        with pytest.raises(ConvergenceError, match=r"not finite at iteration (\d+)") as err:
            proximal_gradient(prob, np.zeros(3), step=step, max_iter=20000)
        assert not np.isfinite(err.value.gap)
        k = int(err.value.args[0].split("iteration ")[1].split()[0])
        trace = proximal_gradient(prob, np.zeros(3), step=step, max_iter=k - 1)
        assert trace.status == ITERATION_LIMIT
        assert np.all(np.isfinite(trace.residuals)) and len(trace.residuals) == k

    def test_divergent_step_raises_without_numpy_warnings(self):
        A = DenseMap(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]), (3,))
        prob = ProblemInstance(CompositeSmooth(LeastSquares(np.array([1.0, -1.0])), A,
                                               np.zeros(3)), L1(0.4), np.zeros(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="not finite at iteration"):
                proximal_gradient(prob, np.zeros(3), step=Fixed(5.0), max_iter=20000)

    def test_iteration_limit_status(self):
        prob = ridge_instance(2)
        trace = proximal_gradient(prob, np.ones(8), step=Fixed(1e-4),
                                  tol=1e-12, max_iter=5)
        assert trace.status == ITERATION_LIMIT
        assert len(trace.iterations) == 6

    @pytest.mark.parametrize("make", [
        lambda: Fixed(-0.01), lambda: Fixed(0.0), lambda: Fixed(float("nan")),
        lambda: Fixed(float("inf")), lambda: Backtracking(beta=1.0, t0=10.0),
        lambda: Backtracking(beta=0.0), lambda: Backtracking(beta=float("nan")),
        lambda: Backtracking(t0=-1.0), lambda: Backtracking(t0=float("inf")),
    ])
    def test_step_policy_rejects_bad_values(self, make):
        # beta = 1 never shrinks a rejected step, and a negative t ascends
        with pytest.raises(InvalidInputError):
            make()

    @pytest.mark.parametrize("kwargs, message", [
        ({"tol": float("nan")}, "tol must be finite and > 0"),
        ({"tol": float("inf")}, "tol must be finite and > 0"),
        ({"tol": 0.0}, "tol must be finite and > 0"),
        ({"tol": -1e-9}, "tol must be finite and > 0"),
        ({"max_iter": -3}, "max_iter must be >= 0"),
    ])
    def test_rejects_bad_arguments(self, kwargs, message):
        # a NaN tol would run to the iteration limit, and a negative
        # max_iter would return a trace with no rows
        with pytest.raises(InvalidInputError, match=message):
            proximal_gradient(ridge_toy()[0], np.zeros(4), **kwargs)

    def test_zero_iterations_records_x0(self):
        trace = proximal_gradient(ridge_toy()[0], np.ones(4), step=Fixed(0.1), max_iter=0)
        assert trace.status == ITERATION_LIMIT and len(trace.iterations) == 1

    def test_x0_outside_domain_rejected(self):
        from ebound.experiments import noncompact_instance
        prob = noncompact_instance()
        with pytest.raises(DomainError):
            proximal_gradient(prob, np.array([2.0, 1.0]))

    def test_line_search_collapse(self):
        # a smooth part whose domain admits only the starting point forces
        # every candidate step to be rejected
        class PointDomain(SmoothLoss):
            def in_domain(self, y):
                return bool(np.allclose(y, 0.0))

            def _value(self, y):
                return float(np.sum(y ** 2))

            def _gradient(self, y):
                return 2.0 * y

        smooth = CompositeSmooth(PointDomain(), IdentityMap((3,)), np.ones(3))
        prob = ProblemInstance(smooth, Ridge(0.0), np.zeros(3))
        with pytest.raises(LineSearchError):
            proximal_gradient(prob, np.zeros(3), step=Backtracking())

    def test_solver_limit_certifies(self):
        prob = ridge_instance(3)
        L = lipschitz_bound(prob)
        trace = proximal_gradient(prob, np.zeros(8), step=Fixed(1.0 / L),
                                  tol=1e-11, max_iter=10000)
        cert = certify(prob, trace.terminal, tol=1e-9)
        assert cert.residual_norm <= 1e-11


class TestWorkPerIteration:
    def test_fixed_step_one_forward_one_adjoint(self):
        prob, *_ = lasso_toy()
        trace = proximal_gradient(prob, np.zeros(60), step=Fixed(1.0 / lipschitz_bound(prob)),
                                  tol=1e-14, max_iter=40)
        K = len(trace.iterations) - 1
        assert trace.status == ITERATION_LIMIT and K == 40
        calls = prob.smooth.A.calls
        assert calls["forward"] <= K + 2
        assert calls["adjoint"] <= K + 1
        # the solver applies A one point at a time, so a sparse iterate's
        # forward can read only the columns on its support
        assert calls["forward_each"] == calls["adjoint_each"] == 0

    def test_backtracking_one_adjoint_per_iteration(self):
        prob, *_ = lasso_toy(1)
        trace = proximal_gradient(prob, np.zeros(60), step=Backtracking(),
                                  tol=1e-14, max_iter=40)
        K = len(trace.iterations) - 1
        assert prob.smooth.A.calls["adjoint"] == K + 1

    @pytest.mark.parametrize("step", ["fixed", "backtracking"])
    def test_one_support_scan_per_point(self, monkeypatch, step):
        # once the columns of MᵀM are built, each point's support is scanned
        # once and kept: a Fixed iterate's gradient reads the columns and
        # makes no forward, and a Backtracking trial makes one forward, for
        # f(x⁺), as does x0 for the first sufficient-decrease test
        m, n = 200, GATHER_MIN_ENTRIES // 200
        prob, *_ = lasso_toy(0, m, n)
        rule = Fixed(1.0 / lipschitz_bound(prob)) if step == "fixed" else Backtracking()
        proximal_gradient(prob, np.zeros(n), step=rule, tol=1e-11)
        built = len(prob.smooth._columns.rows)
        A = prob.smooth.A
        A.calls.clear()
        scans = []
        flatnonzero = np.flatnonzero

        def spy(v):
            scans.append(v.size)
            return flatnonzero(v)

        monkeypatch.setattr(np, "flatnonzero", spy)
        trace = proximal_gradient(prob, np.zeros(n), step=rule, tol=1e-11)
        K = len(trace.iterations) - 1
        assert trace.status == CONVERGED and len(prob.smooth._columns.rows) == built
        if step == "fixed":
            points, forwards = K + 1, 0
        else:
            # beta = 1/2 halves t exactly, so the halvings are log2(t₀/t_K)
            halvings = round(np.log2(trace.iterations[0][2] / trace.iterations[-1][2]))
            points = forwards = K + halvings + 1
        assert A.calls["scan"] == points and A.calls["forward"] == forwards
        assert A.calls["adjoint"] == 0 and scans == [n] * points

    @pytest.mark.parametrize("make, x0, t", [
        (lambda: lasso_toy()[0], np.zeros(60), None),
        (lambda: ridge_instance(0), np.full(8, 2.0), None),
        (counterexample_instance, np.diag([2.0, 1.0]), 0.2),
    ], ids=["lasso", "ridge", "counterexample"])
    def test_a_fixed_solve_never_evaluates_h(self, monkeypatch, make, x0, t):
        # a Fixed step reads only ∇f, so neither h nor its domain is
        # evaluated; a Backtracking solve of the same instance reads f(x⁺)
        prob = make()
        loss = type(prob.smooth.h)
        evaluated = Counter()
        for name in ("_value", "in_domain"):
            def spy(self, y, _name=name, _original=getattr(loss, name)):
                evaluated[_name] += 1
                return _original(self, y)

            monkeypatch.setattr(loss, name, spy)
        step = Fixed(t or 1.0 / lipschitz_bound(prob))
        trace = proximal_gradient(prob, x0, step=step, tol=1e-11, max_iter=300)
        assert len(trace.iterations) > 20 and not evaluated
        trace = proximal_gradient(prob, x0, step=Backtracking(), tol=1e-11, max_iter=20)
        assert evaluated["_value"] >= len(trace.iterations) > 1

    def test_a_fixed_solve_forwards_only_to_build_columns(self):
        # on the column path an iterate's gradient reads cached columns of
        # MᵀM: the only forwards are those that build a new column
        m, n = 200, GATHER_MIN_ENTRIES // 200
        prob, *_ = lasso_toy(0, m, n)
        trace = proximal_gradient(prob, np.zeros(n), step=Fixed(1.0 / lipschitz_bound(prob)),
                                  tol=1e-11)
        A = prob.smooth.A
        assert trace.status == CONVERGED
        assert A.calls["forward"] == len(prob.smooth._columns.rows) < len(trace.iterations)
        assert A.calls["scan"] == len(trace.iterations) + A.calls["forward"]

    @pytest.mark.parametrize("step", ["fixed", "backtracking"])
    def test_regularizer_value_only_at_x0(self, step):
        # P is evaluated once, to check that x0 lies in dom(P), and at no iterate
        base = ridge_instance(0)
        reg = CountingRidge(base.reg.weight)
        prob = ProblemInstance(base.smooth, reg, base.feasible_point)
        reg.calls.clear()
        rule = Fixed(1.0 / lipschitz_bound(prob)) if step == "fixed" else Backtracking()
        trace = proximal_gradient(prob, prob.feasible_point, step=rule, tol=1e-10)
        assert trace.status == CONVERGED and len(trace.iterations) > 30
        assert reg.calls["value"] == 1

    def test_fixed_step_matches_numpy_ista(self):
        prob, M, b, lam = lasso_toy(2)
        t = 1.0 / lipschitz_bound(prob)
        K = 60
        trace = proximal_gradient(prob, np.zeros(60), step=Fixed(t), tol=1e-14, max_iter=K)

        def soft(z, level):
            return np.sign(z) * np.maximum(np.abs(z) - level, 0.0)

        x = np.zeros(60)
        for k, r, step in trace.iterations:
            g = M.T @ (M @ x - b)
            assert abs(r - np.linalg.norm(soft(x - g, lam) - x)) <= 1e-12
            assert step == t
            if k < K:
                x = soft(x - t * g, t * lam)
        np.testing.assert_allclose(trace.terminal, x, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("t", [1.0, 0.5])
    def test_fixed_step_matches_numpy_svt(self, t):
        # singular value thresholding as a plain numpy loop: the iterates and
        # residuals agree bit for bit
        prob, rows, cols, b = completion_toy()
        K = 30
        trace = proximal_gradient(prob, np.zeros((6, 8)), step=Fixed(t), tol=1e-14, max_iter=K)
        assert len(trace.iterations) == K + 1

        def svt(z, level):
            U, sigma, Vt = np.linalg.svd(z, full_matrices=False)
            return (U * np.maximum(sigma - level, 0.0)) @ Vt

        x = np.zeros((6, 8))
        for k, r, step in trace.iterations:
            g = np.zeros((6, 8))
            g[rows, cols] = x[rows, cols] - b
            assert r == np.linalg.norm(svt(x - g, 1.0) - x)
            assert step == t
            if k < K:
                x = svt(x - t * g, t)
        assert np.array_equal(trace.terminal, x)

    def test_backtracking_matches_numpy_svt_with_halving(self):
        # Backtracking from t0 = 3 on L = 1 halves to 0.75 in the first
        # iteration: the first trial is the stacked step's point, and each
        # halving's trial a prox of its own; the iterates, residuals and
        # steps agree bit for bit with a plain numpy loop
        prob, rows, cols, b = completion_toy(2)
        K = 20
        trace = proximal_gradient(prob, np.zeros((6, 8)), step=Backtracking(t0=3.0),
                                  tol=1e-14, max_iter=K)
        assert len(trace.iterations) == K + 1

        def svt(z, level):
            U, sigma, Vt = np.linalg.svd(z, full_matrices=False)
            return (U * np.maximum(sigma - level, 0.0)) @ Vt

        def f(x):
            return 0.5 * float(np.sum((x[rows, cols] - b) ** 2))

        x, t, halvings = np.zeros((6, 8)), 3.0, 0
        for k, r, step in trace.iterations:
            g = np.zeros((6, 8))
            g[rows, cols] = x[rows, cols] - b
            assert r == np.linalg.norm(svt(x - g, 1.0) - x)
            assert step == t
            if k == K:
                break
            while True:
                cand = svt(x - t * g, t)
                dx = cand - x
                fx, fc = f(x), f(cand)
                slack = 4.0 * np.finfo(float).eps * max(1.0, abs(fx), abs(fc))
                if fc <= fx + float(np.sum(g * dx)) + float(np.sum(dx * dx)) / (2.0 * t) + slack:
                    break
                t *= 0.5
                halvings += 1
            x = cand
        assert halvings >= 1 and t == 0.75
        assert np.array_equal(trace.terminal, x)

    @pytest.mark.parametrize("t, svds_per_iter", [(1.0, 1), (0.5, 1)])
    def test_nuclear_svds_per_iteration(self, monkeypatch, t, svds_per_iter):
        # the unit step is the residual's prox; any other step stacks its own
        # point under the residual's in one SVD call, and the nuclear norm is
        # evaluated at x0 only
        prob, *_ = completion_toy(1)
        calls = {"svd": 0, "value": 0}
        shapes = set()
        svd, value = regularizers.svd, NuclearNorm.value

        def counted_svd(X, *args, **kwargs):
            calls["svd"] += 1
            shapes.add(np.shape(X))
            return svd(X, *args, **kwargs)

        def counted_value(self, x):
            calls["value"] += 1
            return value(self, x)

        monkeypatch.setattr(regularizers, "svd", counted_svd)
        monkeypatch.setattr(NuclearNorm, "value", counted_value)
        K = 25
        trace = proximal_gradient(prob, np.zeros((6, 8)), step=Fixed(t), tol=1e-14, max_iter=K)
        assert trace.status == ITERATION_LIMIT
        # K iterations, then the residual at the last point
        assert calls == {"svd": svds_per_iter * K + 1, "value": 1}
        assert shapes == {(6, 8) if t == 1.0 else (2, 6, 8)}


@dataclass(frozen=True)
class FullProductMap(LinearMap):
    """Dense matrix whose forward always forms the full matrix @ x."""

    matrix: np.ndarray
    in_shape: tuple

    @property
    def out_shape(self):
        return (self.matrix.shape[0],)

    def __call__(self, x):
        return self.matrix @ np.asarray(x, dtype=float).reshape(-1)

    def adjoint(self, y):
        return (self.matrix.T @ np.asarray(y, dtype=float)).reshape(self.in_shape)

    def operator_norm(self):
        return float(np.linalg.norm(self.matrix, 2))


class TestSparseForward:
    """On a map large enough to gather, a sparse iterate's forward product
    reads only its support; the solve is the full-product solve to rounding."""

    @pytest.mark.parametrize("step", ["fixed", "backtracking"])
    def test_same_iterations_as_full_product(self, step):
        m, n = 200, GATHER_MIN_ENTRIES // 200
        prob, M, b, lam = lasso_toy(0, m, n)
        smooth = CompositeSmooth(LeastSquares(b), FullProductMap(M, (n,)), np.zeros(n))
        reference = ProblemInstance(smooth, L1(lam), np.zeros(n))
        rule = Fixed(1.0 / lipschitz_bound(prob)) if step == "fixed" else Backtracking()
        traces = [proximal_gradient(p, np.zeros(n), step=rule, tol=1e-11)
                  for p in (prob, reference)]
        gathered, full = traces
        assert gathered.status == full.status == CONVERGED
        assert len(gathered.iterations) == len(full.iterations)
        assert norm(gathered.terminal - full.terminal) <= 1e-13 * norm(full.terminal)
        assert 0 < GATHER_RATIO * np.count_nonzero(gathered.terminal) <= n

    def test_one_adjoint_per_new_support_coordinate(self):
        # least squares has a constant Hessian, so a sparse iterate's gradient
        # reads cached columns of MᵀM: one adjoint for ∇f(0) and one for each
        # coordinate the first time it enters a support, not one per iteration
        m, n = 200, GATHER_MIN_ENTRIES // 200
        prob, *_ = lasso_toy(0, m, n)
        trace = proximal_gradient(prob, np.zeros(n), step=Fixed(1.0 / lipschitz_bound(prob)),
                                  tol=1e-11)
        A = prob.smooth.A
        assert trace.status == CONVERGED
        assert A.calls["adjoint"] <= len(A.supports) + 1 < len(trace.iterations)
        assert len(prob.smooth._columns.rows) <= m


class TestRateEstimation:
    def test_strongly_convex_rate(self):
        prob = ridge_instance(0)
        L = lipschitz_bound(prob)
        trace = proximal_gradient(prob, np.ones(8) * 2.0, step=Fixed(1.0 / L),
                                  tol=1e-12, max_iter=5000)
        rate = estimate_linear_rate(trace)
        assert rate is not None and 0.0 < rate < 1.0

    def test_constant_residual_gives_rate_one(self):
        rows = [(k, 0.5, 0.1) for k in range(30)]
        trace = SolveTrace(rows, np.zeros(2), ITERATION_LIMIT)
        assert estimate_linear_rate(trace) == 1.0

    def test_insufficient_data(self):
        rows = [(k, 0.5, 0.1) for k in range(5)]
        trace = SolveTrace(rows, np.zeros(2), ITERATION_LIMIT)
        with pytest.raises(InsufficientDataError):
            estimate_linear_rate(trace)

    def test_noisy_trace_returns_none(self):
        rng = np.random.default_rng(0)
        rows = [(k, float(np.exp(rng.uniform(-8, 0))), 0.1) for k in range(40)]
        trace = SolveTrace(rows, np.zeros(2), ITERATION_LIMIT)
        assert estimate_linear_rate(trace) is None


class TestLipschitzBound:
    def test_quadratic_and_least_squares(self):
        prob = ridge_instance(0)
        assert abs(lipschitz_bound(prob)
                   - np.linalg.norm(prob.smooth.h.B, 2)) <= 1e-12
        prob2, _ = ridge_toy()
        assert lipschitz_bound(prob2) == 1.0

    def test_unbounded_losses_return_none(self):
        from ebound.experiments import noncompact_instance
        assert lipschitz_bound(noncompact_instance()) is None

    def test_loss_declares_its_gradient_lipschitz_constant(self):
        from ebound.losses import GeneralQuadratic, Logistic, NoncompactExample, Poisson

        B = np.array([[3.0, 1.0], [1.0, 2.0]])
        assert GeneralQuadratic(B, np.ones(2)).grad_lipschitz == float(np.linalg.norm(B, 2))
        assert LeastSquares(np.ones(2)).grad_lipschitz == 1.0
        assert Logistic(np.ones(2)).grad_lipschitz == 0.25
        assert Poisson(np.ones(2)).grad_lipschitz is None
        assert NoncompactExample().grad_lipschitz is None

    def test_bound_scales_by_operator_norm_squared(self):
        from ebound.losses import Logistic

        M = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0]])
        smooth = CompositeSmooth(Logistic(np.ones(2)), DenseMap(M, (3,)), np.zeros(3))
        prob = ProblemInstance(smooth, L1(0.1), np.zeros(3))
        # M Mᵀ = [[5, 2], [2, 2]] has top eigenvalue 6, so ‖M‖₂² = 6
        assert abs(lipschitz_bound(prob) - 0.25 * 6.0) <= 4 * np.spacing(1.5)
