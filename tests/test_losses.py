import re
from dataclasses import dataclass, field

import numpy as np
import pytest

from ebound.errors import DomainError, InvalidInputError
from ebound.losses import (
    CompositeSmooth,
    GeneralQuadratic,
    LeastSquares,
    Logistic,
    NoncompactExample,
    Poisson,
    SmoothLoss,
    SmoothPoint,
)
from ebound.problem import ProblemInstance, objective
from ebound.regularizers import L1
from ebound.space import (GATHER_MIN_ENTRIES, GATHER_RATIO, PANEL_BYTES, CoordinateSelectMap,
                          DenseMap, IdentityMap, inner, norm)

from test_solver import CountingMap

COUNTER_B = np.array([[1.5, -2.0], [-2.0, 3.0]])
COUNTER_D = np.array([2.5, -1.0])


def quadratic_oracle(B, d, y):
    # evaluate ½‖B^{1/2} y − B^{−1/2} d‖² through explicit matrix square roots
    w, Q = np.linalg.eigh(B)
    root = Q @ np.diag(np.sqrt(w)) @ Q.T
    inv_root = Q @ np.diag(1.0 / np.sqrt(w)) @ Q.T
    return 0.5 * np.sum((root @ y - inv_root @ d) ** 2)


def counterexample_smooth():
    A = CoordinateSelectMap(((0, 0), (1, 1)), (2, 2))
    return CompositeSmooth(GeneralQuadratic(COUNTER_B, COUNTER_D), A, np.zeros((2, 2)))


class TestValues:
    def test_general_quadratic_matches_sqrt_oracle(self):
        h = GeneralQuadratic(COUNTER_B, COUNTER_D)
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = rng.standard_normal(2)
            assert abs(h.value(y) - quadratic_oracle(COUNTER_B, COUNTER_D, y)) <= 1e-12
        assert abs(h.value(np.array([1.0, 0.0]))
                   - quadratic_oracle(COUNTER_B, COUNTER_D, np.array([1.0, 0.0]))) <= 1e-12

    def test_least_squares_perfect_fit(self):
        b = np.array([1.0, -2.0, 3.0])
        assert LeastSquares(b).value(b) == 0.0

    def test_noncompact_lower_branch_is_zero(self):
        h = NoncompactExample()
        assert h.value(np.array([0.5, -1.0])) == 0.0
        assert h.value(np.array([-3.0, 0.0])) == 0.0
        np.testing.assert_allclose(h.gradient(np.array([0.5, -1.0])), np.zeros(2))

    def test_noncompact_upper_branch(self):
        h = NoncompactExample()
        x, y = -2.0, 0.5
        assert abs(h.value(np.array([x, y])) - y * np.exp((x - 1) / y)) <= 1e-15

    def test_noncompact_domain(self):
        h = NoncompactExample()
        assert not h.in_domain(np.array([1.0, 0.5]))
        with pytest.raises(DomainError):
            h.value(np.array([1.5, 0.5]))

    def test_poisson_overflow_guard(self):
        h = Poisson(np.array([1.0, 2.0]))
        with pytest.raises(DomainError):
            h.value(np.array([800.0, 0.0]))

    def test_general_quadratic_requires_pd(self):
        with pytest.raises(InvalidInputError):
            GeneralQuadratic(np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros(2))
        with pytest.raises(InvalidInputError):
            GeneralQuadratic(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))

    @pytest.mark.parametrize("make, what", [
        (lambda bad: LeastSquares(np.array([bad, 1.0])), "LeastSquares targets"),
        (lambda bad: Poisson(np.array([bad, 1.0])), "Poisson counts"),
        (lambda bad: GeneralQuadratic(np.eye(2), np.array([bad, 0.0])), "GeneralQuadratic d"),
        (lambda bad: GeneralQuadratic(np.array([[1.0, 0.0], [0.0, bad]]), np.zeros(2)),
         "GeneralQuadratic B"),
    ], ids=["least_squares", "poisson", "quadratic_d", "quadratic_B"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_data_must_be_finite(self, make, what, bad):
        # checked before any other test of the data, so a NaN in B is not
        # reported as a matrix that is not positive definite
        with pytest.raises(InvalidInputError, match=f"^{what} has non-finite entries$"):
            make(bad)

    def test_logistic_labels_checked(self):
        with pytest.raises(InvalidInputError):
            Logistic(np.array([1.0, 2.0]))

    @pytest.mark.parametrize("h", [
        LeastSquares(np.array([1.0, 2.0, 3.0])), Logistic(np.array([1.0, -1.0, 1.0])),
        Poisson(np.array([0.0, 1.0, 2.0])), GeneralQuadratic(np.eye(3), np.ones(3)),
        NoncompactExample(),
    ], ids=lambda h: type(h).__name__)
    def test_input_must_have_the_data_shape(self, h):
        # NoncompactExample has no data and takes (2,) inputs: a wrong shape
        # is a wrong input, not a point outside its domain
        # (1,) and (3, 1) would broadcast against the three data entries
        for y in (np.array([0.5]), np.zeros((3, 1)), np.zeros(4)):
            for evaluate in (h.value, h.gradient):
                with pytest.raises(InvalidInputError, match=re.escape(f"input of shape {y.shape} ")):
                    evaluate(y)

    def test_shape_checked_before_domain(self):
        with pytest.raises(InvalidInputError):
            Poisson(np.array([1.0, 2.0])).value(np.array([800.0]))


def _interior_points(kind, rng, count=100):
    if kind == "noncompact":
        xs = rng.uniform(-4.0, 0.8, count)
        ys = rng.uniform(-2.0, 2.0, count)
        ys[np.abs(ys) < 1e-2] = 0.5  # keep clear of the C¹ seam for differencing
        return np.column_stack([xs, ys])
    return rng.uniform(-2.0, 2.0, (count, 4))


LOSSES = {
    "least_squares": LeastSquares(np.array([0.3, -1.2, 0.7, 2.0])),
    "general_quadratic": GeneralQuadratic(
        np.diag([1.0, 2.0, 0.5, 3.0]) + 0.1, np.array([1.0, -1.0, 0.5, 0.0])),
    "logistic": Logistic(np.array([1.0, -1.0, 1.0, -1.0])),
    "poisson": Poisson(np.array([0.0, 1.0, 3.0, 2.0])),
    "noncompact": NoncompactExample(),
}


class TestGradients:
    @pytest.mark.parametrize("kind", sorted(LOSSES))
    def test_matches_finite_differences(self, kind):
        h = LOSSES[kind]
        rng = np.random.default_rng(hash(kind) % 2**32)
        step = 1e-6
        for y in _interior_points(kind, rng):
            grad = h.gradient(y)
            for i in range(y.size):
                e = np.zeros_like(y)
                e[i] = step
                fd = (h.value(y + e) - h.value(y - e)) / (2 * step)
                assert abs(grad[i] - fd) <= 1e-5 * max(1.0, abs(fd))

    @pytest.mark.parametrize("kind", sorted(LOSSES))
    def test_midpoint_convexity(self, kind):
        h = LOSSES[kind]
        rng = np.random.default_rng(hash(kind) % 2**31)
        for _ in range(100):
            pts = _interior_points(kind, rng, 2)
            y1, y2 = pts[0], pts[1]
            mid = h.value((y1 + y2) / 2)
            assert mid <= 0.5 * h.value(y1) + 0.5 * h.value(y2) + 1e-12

    def test_logistic_at_zero(self):
        h = Logistic(np.ones(3))
        np.testing.assert_allclose(h.gradient(np.zeros(3)), -0.5 * np.ones(3))


class TestComposite:
    def test_gradient_at_counterexample_optimum(self):
        f = counterexample_smooth()
        np.testing.assert_allclose(
            f.gradient(np.diag([1.0, 0.0])), -np.eye(2), atol=1e-14)

    def test_gradient_on_counterexample_curve(self):
        f = counterexample_smooth()
        for delta in (0.1, 0.01):
            xk = np.array([[1 + 2 * delta**2, delta], [delta, delta**2]])
            expected = np.diag([-1 + delta**2, -1 - delta**2])
            np.testing.assert_allclose(f.gradient(xk), expected, atol=1e-14)

    def test_gradient_closed_form_on_random_matrices(self):
        f = counterexample_smooth()
        rng = np.random.default_rng(1)
        for _ in range(100):
            X = rng.standard_normal((2, 2))
            expected = np.diag([
                1.5 * X[0, 0] - 2.0 * X[1, 1] - 2.5,
                -2.0 * X[0, 0] + 3.0 * X[1, 1] + 1.0,
            ])
            assert np.max(np.abs(f.gradient(X) - expected)) <= 1e-12

    def test_identity_map_reduces_to_loss_gradient(self):
        h = LOSSES["least_squares"]
        f = CompositeSmooth(h, IdentityMap((4,)), np.zeros(4))
        y = np.array([0.1, 0.2, -0.3, 0.4])
        np.testing.assert_allclose(f.gradient(y), h.gradient(y))
        assert abs(f.value(y) - h.value(y)) == 0.0

    def test_linear_term(self):
        c = np.array([1.0, -2.0, 0.0, 0.5])
        f = CompositeSmooth(LOSSES["least_squares"], IdentityMap((4,)), c)
        y = np.zeros(4)
        np.testing.assert_allclose(f.gradient(y), LOSSES["least_squares"].gradient(y) + c)

    def test_domain_error_propagates(self):
        f = CompositeSmooth(NoncompactExample(), IdentityMap((2,)), np.zeros(2))
        with pytest.raises(DomainError):
            f.value(np.array([2.0, 1.0]))
        with pytest.raises(DomainError):
            f.at(np.array([2.0, 1.0]))

    def test_point_record_matches_value_and_gradient(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((3, 5))
        b = rng.standard_normal(3)
        c = rng.standard_normal(5)
        f = CompositeSmooth(LeastSquares(b), DenseMap(M, (5,)), c)
        x = rng.standard_normal(5)
        point = f.at(x)
        assert np.array_equal(point.y, M @ x)
        assert point.value == 0.5 * float(np.sum((M @ x - b) ** 2)) + float(np.sum(c * x))
        assert np.array_equal(point.gradient, M.T @ (M @ x - b) + c)
        assert point.value == f.value(x)
        assert np.array_equal(point.gradient, f.gradient(x))

    def test_parts_of_other_shapes_are_refused(self):
        A = DenseMap(np.arange(6.0).reshape(2, 3), (3,))
        b = np.array([1.0, -1.0])
        for c in (np.zeros((3, 1)), np.zeros(4), np.zeros((1, 3))):
            with pytest.raises(InvalidInputError, match="c has shape"):
                CompositeSmooth(LeastSquares(b), A, c)
        for h in (LeastSquares(np.zeros(3)), GeneralQuadratic(np.eye(1), np.ones(1)),
                  Logistic(np.ones((2, 1)))):
            with pytest.raises(InvalidInputError, match="does not fit"):
                CompositeSmooth(h, A, np.zeros(3))
        # no data: the loss declares its (2,) input
        CompositeSmooth(NoncompactExample(), IdentityMap((2,)), np.zeros(2))
        with pytest.raises(InvalidInputError, match="does not fit"):
            CompositeSmooth(NoncompactExample(), IdentityMap((3,)), np.zeros(3))

    def test_points_of_another_shape_are_refused(self):
        # when a dense map took its input by size, x = e₁ as a 3×1 column
        # passed it, and ⟨c, x⟩ broadcast to a 3×3 sum: f read 10.5, not 5.5
        A = DenseMap(np.arange(6.0).reshape(2, 3), (3,))
        f = CompositeSmooth(LeastSquares(np.zeros(2)), A, np.array([1.0, 2.0, 3.0]))
        x = np.array([1.0, 0.0, 0.0])
        assert f.value(x) == 5.5
        for bad in (x.reshape(3, 1), x.reshape(1, 3), np.zeros(4)):
            with pytest.raises(InvalidInputError, match="a point takes shape"):
                f.value(bad)
            with pytest.raises(InvalidInputError, match="each point takes shape"):
                f.at_each(bad[None])
        # one point is not a stack of them
        with pytest.raises(InvalidInputError, match="each point takes shape"):
            f.at_each(x)

    def test_linear_term_only_when_c_is_nonzero(self):
        rng = np.random.default_rng(5)
        M, b, x = rng.standard_normal((3, 4)), rng.standard_normal(3), rng.standard_normal(4)
        h = LeastSquares(b)
        zero = CompositeSmooth(h, DenseMap(M, (4,)), np.zeros(4))
        assert zero.at(x).value == h.value(M @ x)
        _, X, Y, _ = zero.at_each(x[None])
        assert zero._value(X, Y)[0] == h.value(M @ x)
        c = np.zeros(4)
        c[2] = -0.75
        linear = CompositeSmooth(h, DenseMap(M, (4,)), c)
        assert linear.at(x).value == h.value(M @ x) + float(np.sum(c * x)) != h.value(M @ x)
        _, X, Y, _ = linear.at_each(x[None])
        assert linear._value(X, Y)[0] == linear.at(x).value

    def test_a_point_forms_its_gradient_once(self):
        f = counterexample_smooth()
        x = np.array([[1.0, 0.0], [0.0, 2.0]])
        point = f.at(x)
        assert type(point) is SmoothPoint
        assert np.array_equal(point.gradient, f.gradient(x))
        assert point.gradient is point.gradient

    def test_each_point_meets_the_domain_check_once(self):
        # at and at_each check A(x) against the loss domain once per point;
        # its value and gradient then take the unchecked _value and _gradient
        seen = []

        class CountingPoisson(Poisson):
            def in_domain(self, y):
                seen.append(np.array(y))
                return super().in_domain(y)

        rng = np.random.default_rng(6)
        f = CompositeSmooth(CountingPoisson(np.array([1.0, 0.0, 2.0])),
                            DenseMap(rng.standard_normal((3, 4)), (4,)), np.zeros(4))
        xs = [rng.standard_normal(4) for _ in range(5)]
        point = f.at(xs[0])
        point.gradient
        assert len(seen) == 1
        seen.clear()
        live, X, Y, G = f.at_each(np.array(xs))
        assert len(seen) == len(xs) == len(live)
        # the checked forms give the same figures; at_each's stacked adjoint
        # rounds differently from the per-point one
        assert point.value == f.h.value(point.y)
        assert np.array_equal(point.gradient, f.A.adjoint(f.h.gradient(point.y)))
        for value, y, g in zip(f._value(X, Y), Y, G, strict=True):
            assert value == f.h.value(y)
            np.testing.assert_allclose(g, f.A.adjoint(f.h.gradient(y)), rtol=1e-13)


def gathering_smooth(loss, in_shape, seed=0, m=None):
    """f on a dense map just large enough to gather, with a nonzero c."""
    rng = np.random.default_rng(seed)
    n = int(np.prod(in_shape))
    m = m or GATHER_MIN_ENTRIES // n
    M = rng.standard_normal((m, n))
    if loss == "least_squares":
        h = LeastSquares(rng.standard_normal(m))
    elif loss == "general_quadratic":
        R = rng.standard_normal((m, m))
        h = GeneralQuadratic(R @ R.T / m + np.eye(m), rng.standard_normal(m))
    else:
        h = Logistic(np.where(rng.random(m) < 0.5, -1.0, 1.0))
    return CompositeSmooth(h, DenseMap(M, in_shape), rng.standard_normal(in_shape)), M


def sparse_point(in_shape, support, seed=1):
    rng = np.random.default_rng(seed)
    x = np.zeros(in_shape)
    x.flat[rng.choice(x.size, support, replace=False)] = rng.standard_normal(support)
    return x


class TestSparseGradient:
    """With a constant-Hessian loss, a point whose forward product gathers
    takes its gradient from cached columns of A*HA on its support."""

    @pytest.mark.parametrize("loss", ["least_squares", "general_quadratic"])
    @pytest.mark.parametrize("in_shape", [(400,), (16, 25)])
    @pytest.mark.parametrize("support", [0, 1, 400 // GATHER_RATIO, 400 // GATHER_RATIO + 1])
    def test_matches_adjoint_form(self, loss, in_shape, support):
        f, M = gathering_smooth(loss, in_shape)
        x = sparse_point(in_shape, support)
        g = f.at(x).gradient
        expected = (M.T @ f.h.gradient(M @ x.reshape(-1))).reshape(in_shape) + f.c
        assert g.shape == in_shape
        if GATHER_RATIO * support <= x.size:
            assert len(f._columns.rows) == support
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert np.max(np.abs(g - expected)) <= 1e-12 * scale
        else:
            assert "_columns" not in vars(f)
            assert np.array_equal(g, f.A.adjoint(f.h.gradient(f.A(x))) + f.c)

    def test_columns_are_built_once_and_capped_at_the_output_size(self):
        # 50 outputs: the cache holds at most 50 columns, and a point whose
        # support would take it past that takes the adjoint
        f, M = gathering_smooth("least_squares", (2000,), m=50)
        first, second = sparse_point((2000,), 40, seed=1), sparse_point((2000,), 40, seed=2)
        f.at(first).gradient
        rows = f._columns.rows
        assert len(rows) == 40
        f.at(2.0 * first).gradient
        assert f._columns.rows is rows
        new = np.setdiff1d(np.flatnonzero(second), np.flatnonzero(first))
        assert 40 + new.size > 50
        g = f.at(second).gradient
        assert len(f._columns.rows) == 40
        assert np.array_equal(g, f.A.adjoint(f.h.gradient(f.A(second))) + f.c)

    def test_block_is_kept_while_the_support_holds(self):
        f, M = gathering_smooth("least_squares", (400,))
        x = sparse_point((400,), 5)
        s = np.flatnonzero(x)
        block = f.hessian_columns(s)
        np.testing.assert_allclose(block, (M.T @ M)[s], rtol=1e-12, atol=1e-12)
        with pytest.raises(ValueError):
            block[0, 0] = 1.0
        # an equal support, as a new array or through a new point: the same block
        assert f.hessian_columns(s.copy()) is block
        assert np.array_equal(f.at(3.0 * x).gradient, f.at(3.0 * x).gradient)
        assert f._columns.block is block
        # a changed support, even one of the same size: a new block
        moved = s.copy()
        moved[-1] = np.setdiff1d(np.arange(400), s)[0]
        other = f.hessian_columns(moved)
        assert other is not block and np.array_equal(other[:-1], block[:-1])
        np.testing.assert_allclose(other, (M.T @ M)[moved], rtol=1e-12, atol=1e-12)
        assert f.hessian_columns(s[:-1]) is not other
        assert np.array_equal(f.hessian_columns(s), block)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_gives_non_finite_gradient(self, bad):
        f, _ = gathering_smooth("least_squares", (400,))
        x = sparse_point((400,), 3)
        x[np.flatnonzero(x)[1]] = bad
        assert not np.isfinite(f.at(x).gradient).all()

    def test_other_losses_and_small_maps_keep_the_adjoint(self):
        f, _ = gathering_smooth("logistic", (400,))
        x = sparse_point((400,), 3)
        assert np.array_equal(f.at(x).gradient, f.A.adjoint(f.h.gradient(f.A(x))) + f.c)
        assert "_columns" not in vars(f)
        rng = np.random.default_rng(2)
        small = CompositeSmooth(LeastSquares(rng.standard_normal(30)),
                                DenseMap(rng.standard_normal((30, 400)), (400,)),
                                rng.standard_normal(400))
        assert np.array_equal(small.at(x).gradient,
                              small.A.adjoint(small.h.gradient(small.A(x))) + small.c)
        assert "_columns" not in vars(small)


def _lazy_cases():
    """(name, f, x): points on the column path (a sparse point of a gathering
    map with a constant-Hessian loss) and off it, with zero and nonzero c."""
    rng = np.random.default_rng(40)
    f, _ = gathering_smooth("least_squares", (500,), m=200)
    yield "column-path", f, sparse_point((500,), 8)
    yield "gathering-dense-point", f, rng.standard_normal(500)
    logistic, _ = gathering_smooth("logistic", (500,), m=200)
    yield "gathering-logistic", logistic, sparse_point((500,), 8)
    M = rng.standard_normal((6, 8))
    yield "small-dense", CompositeSmooth(LeastSquares(rng.standard_normal(6)),
                                         DenseMap(M, (8,)), np.zeros(8)), rng.standard_normal(8)
    select = CoordinateSelectMap(((0, 1), (2, 3), (1, 0)), (3, 4))
    h = GeneralQuadratic(np.diag([1.5, 2.0, 0.5]), np.ones(3))
    yield "select", CompositeSmooth(h, select, rng.standard_normal((3, 4))), \
        rng.standard_normal((3, 4))


class TestLazyForms:
    """A point forms y, f(x) and ∇f(x) on first read, in any order, bit for
    bit as the eager forms A(x) and h(A(x)) + ⟨c, x⟩."""

    @pytest.mark.parametrize("case", list(_lazy_cases()), ids=lambda c: c[0])
    @pytest.mark.parametrize("first", ["y", "value", "gradient"])
    def test_lazy_forms_equal_the_eager_ones(self, case, first):
        _, f, x = case
        y = f.A(x)
        value = f.h.value(y) + inner(f.c, x)
        point = f.at(x)
        getattr(point, first)
        assert point.y.tobytes() == y.tobytes()
        assert point.value.hex() == value.hex()
        assert point.gradient.tobytes() == f.at(x).gradient.tobytes()

    def test_cases_cover_the_column_path_and_a_nonzero_c(self):
        cases = {name: (f, x) for name, f, x in _lazy_cases()}
        f, x = cases["column-path"]
        assert f.c.any() and f.A.support(x) is not None and f.h.constant_hessian
        assert all(f.A.support(x) is None for name, (f, x) in cases.items()
                   if name not in ("column-path", "gathering-logistic"))

    def test_a_constant_hessian_loss_keeps_the_base_domain(self):
        # at skips the domain check for these losses: each is a quadratic on
        # the whole target space, with no domain of its own to check
        quadratic = [cls for cls in (LeastSquares, GeneralQuadratic, Logistic, Poisson,
                                     NoncompactExample) if cls.constant_hessian]
        assert quadratic == [LeastSquares, GeneralQuadratic]
        for cls in quadratic:
            assert cls.in_domain is SmoothLoss.in_domain


def panelled_smooth(loss, in_shape=(1000,), seed=0, m=300):
    """f on a counting dense map past PANEL_BYTES, with a nonzero c, and
    five points near 0."""
    rng = np.random.default_rng(seed)
    n = int(np.prod(in_shape))
    M = rng.standard_normal((m, n))
    h = {"least_squares": lambda: LeastSquares(rng.standard_normal(m)),
         "logistic": lambda: Logistic(np.where(rng.random(m) < 0.5, -1.0, 1.0)),
         "poisson": lambda: Poisson(rng.integers(0, 4, m).astype(float)),
         "general_quadratic": lambda: GeneralQuadratic(np.eye(m), rng.standard_normal(m))}[loss]()
    f = CompositeSmooth(h, CountingMap(M, in_shape), rng.standard_normal(in_shape))
    return f, M, [0.02 * rng.standard_normal(in_shape) for _ in range(5)]


class TestRowPanels:
    """On a dense map past PANEL_BYTES, at_each forms y and ∇f one row panel
    at a time when the loss splits, and on the map whole otherwise."""

    @pytest.mark.parametrize("loss", ["least_squares", "logistic", "poisson"])
    @pytest.mark.parametrize("in_shape", [(1000,), (20, 50)], ids=["vector", "matrix"])
    def test_samples_match_a_per_point_evaluation(self, loss, in_shape):
        # the bounds of test_diagnostics' per-point comparison: ‖Δy‖ ≤
        # 1e-13·‖M‖₂‖x‖ and ‖Δ∇f‖ ≤ 1e-13·‖M‖₂(L‖M‖₂‖x‖ + ‖∇h(y)‖), L the
        # Lipschitz constant of ∇h near y (e^max y for Poisson); f(x) moves
        # by ‖∇h(y)‖·‖Δy‖ to first order
        f, M, xs = panelled_smooth(loss, in_shape)
        assert len(f.A.row_panels) == 3 and f.c.any()
        M2 = f.A.operator_norm()
        live, X, Y, G = f.at_each(np.array(xs))
        assert f.A.calls["forward_each"] == f.A.calls["adjoint_each"] == 0
        assert np.array_equal(live, np.arange(len(xs))) and G.shape == (len(xs), *in_shape)
        for x, got_x, y, g, value in zip(xs, X, Y, G, f._value(X, Y), strict=True):
            want = f.at(x)
            dy = 1e-13 * M2 * norm(x)
            grad_h = norm(f.h.gradient(want.y))
            lip = float(np.exp(np.max(want.y))) if loss == "poisson" else 1.0
            assert np.array_equal(got_x, x)
            assert norm(y - want.y) <= dy
            assert norm(g - want.gradient) <= 1e-13 * M2 * (lip * M2 * norm(x) + grad_h)
            assert abs(value - want.value) <= (1.0 + grad_h) * dy

    def test_panels_are_views_that_cover_every_row_once(self):
        f, M, _ = panelled_smooth("least_squares")
        panels = f.A.row_panels
        assert len(panels) == -(-M.nbytes // PANEL_BYTES) == 3
        covered = np.concatenate([np.arange(M.shape[0])[rows] for rows, _ in panels])
        assert np.array_equal(covered, np.arange(M.shape[0]))
        for rows, P in panels:
            assert type(P) is DenseMap and P.in_shape == f.A.in_shape
            assert np.shares_memory(P.matrix, f.A.matrix) and np.array_equal(P.matrix, M[rows])
            assert P.matrix.nbytes <= PANEL_BYTES
        # a map that keeps no matrix, or one that fits, is its own single panel
        for A in (IdentityMap((3,)), CoordinateSelectMap((0,), (3,)),
                  DenseMap(np.ones((2, 3)), (3,))):
            (rows, P), = A.row_panels
            assert rows == slice(None) and P is A

    @pytest.mark.parametrize("m, count", [(128, 1), (129, 2), (1, 1), (0, 1)])
    def test_one_panel_while_the_matrix_fits(self, m, count):
        # 128 rows of 1024 entries are exactly PANEL_BYTES
        A = DenseMap(np.ones((m, 1024)), (1024,))
        assert len(A.row_panels) == count

    def test_a_loss_that_does_not_split_takes_one_product_each_way(self):
        f, M, xs = panelled_smooth("general_quadratic")
        assert len(f.A.row_panels) == 3
        _, _, Y, G = f.at_each(np.array(xs))
        assert f.A.calls == {"forward_each": 1, "adjoint_each": 1}
        want = f.A.adjoint_each([f.h.gradient(y) for y in Y])
        assert np.array_equal(G, want + f.c)

    def test_no_points(self):
        # a stack of no points gives empty stacks, and no ∇h is formed
        f, _, _ = panelled_smooth("logistic")
        live, X, Y, G = f.at_each(np.empty((0, *f.c.shape)))
        assert live.shape == (0,) and X.shape == G.shape == (0, *f.c.shape)
        assert Y.shape == (0, *f.A.out_shape)


def _split_losses(m, rng):
    return {"least_squares": LeastSquares(rng.standard_normal(m)),
            "logistic": Logistic(np.where(rng.random(m) < 0.5, -1.0, 1.0)),
            "poisson": Poisson(rng.integers(0, 4, m).astype(float))}


class TestSplit:
    """SmoothLoss.split(rows) is the loss on those target coordinates."""

    @pytest.mark.parametrize("loss", ["least_squares", "logistic", "poisson"])
    def test_the_split_loss_is_the_loss_on_its_rows(self, loss):
        rng = np.random.default_rng(11)
        m = 257
        h = _split_losses(m, rng)[loss]
        ys = 3.0 * rng.standard_normal((4, m))
        ys[1, 200] = ys[2, 17] = 701.0  # past Poisson's exp cap
        for rows in (rng.choice(m, 60, replace=False), slice(100, 257), np.arange(m)):
            part = h.split(rows)
            assert type(part) is type(h)
            for y in ys:
                restricted = np.zeros(m)
                restricted[rows] = y[rows]
                assert part.in_domain(y[rows]) == h.in_domain(restricted)
                assert part._gradient(y[rows]).tobytes() == h._gradient(y)[rows].tobytes()

    def test_losses_that_do_not_split(self):
        class Quartic(SmoothLoss):
            def _value(self, y):
                return float(np.sum(y**4))

            def _gradient(self, y):
                return 4.0 * y**3

        rows = slice(0, 1)
        assert GeneralQuadratic(np.eye(2), np.ones(2)).split(rows) is None
        assert NoncompactExample().split(rows) is None
        assert Quartic().split(rows) is None


def _stackable_losses(rng):
    """(name, loss, stack of seeded points) for each loss, GeneralQuadratic
    at m = 2 and 8 and NoncompactExample on each of its branches."""
    for m in (2, 8):
        R = rng.standard_normal((m, m))
        B = R @ R.T + m * np.eye(m)
        yield f"general-quadratic-{m}", GeneralQuadratic((B + B.T) / 2.0,
                                                         rng.standard_normal(m)), \
            rng.standard_normal((5, m))
    for name, h in _split_losses(6, rng).items():
        yield name, h, 3.0 * rng.standard_normal((5, 6))
    # data of a matrix's shape: each point's value sums over both axes
    yield "least-squares-matrix", LeastSquares(rng.standard_normal((2, 3))), \
        3.0 * rng.standard_normal((5, 2, 3))
    # y > 0, y ≤ 0 and exp((x − 1)/y) past underflow
    yield "noncompact", NoncompactExample(), \
        np.array([[0.5, 2.0], [-3.0, 0.0], [0.2, -1.0], [-1000.0, 1.0], [-0.5, 0.25]])


class TestStackedGradient:
    """_value and _gradient take a stack of points, and at_each forms ∇h
    once a call."""

    @pytest.mark.parametrize("case", list(_stackable_losses(np.random.default_rng(12))),
                             ids=lambda c: c[0])
    def test_a_stack_is_each_points_own_gradient_bit_for_bit(self, case):
        # and its own value, which the public value returns as a float
        _, h, Y = case
        for form, shape in ((h._gradient, Y.shape), (h._value, Y.shape[:1])):
            got = form(Y)
            assert got.shape == shape
            for row, y in zip(got, Y, strict=True):
                assert row.tobytes() == np.asarray(form(y)).tobytes()
        assert all(type(h.value(y)) is float for y in Y)

    def test_every_value_is_a_float(self):
        rng = np.random.default_rng(15)
        M, x = rng.standard_normal((3, 4)), rng.standard_normal(4)
        f = CompositeSmooth(GeneralQuadratic(np.eye(3), rng.standard_normal(3)),
                            DenseMap(M, (4,)), rng.standard_normal(4))
        prob = ProblemInstance(f, L1(0.5), np.zeros(4))
        assert type(f.value(x)) is type(f.at(x).value) is type(objective(prob, x)) is float

    @pytest.mark.parametrize("A", [
        DenseMap(np.random.default_rng(13).standard_normal((6, 8)), (8,)),
        CoordinateSelectMap(((0, 1), (2, 3), (1, 0)), (3, 4)),
    ], ids=["dense", "select"])
    def test_one_gradient_call_per_at_each(self, A):
        @dataclass(frozen=True)
        class CountingLeastSquares(LeastSquares):
            blocks: list = field(default_factory=list, compare=False)

            def _gradient(self, y):
                self.blocks.append(y.shape)
                return super()._gradient(y)

        rng = np.random.default_rng(14)
        f = CompositeSmooth(CountingLeastSquares(rng.standard_normal(A.out_shape)), A,
                            np.zeros(A.in_shape))
        X = rng.standard_normal((5, *A.in_shape))
        _, _, _, G = f.at_each(X)
        assert f.h.blocks == [(5, *A.out_shape)]
        assert G.tobytes() == A.adjoint_each(f.h._gradient(A.apply_each(X))).tobytes()
