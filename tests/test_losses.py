import re

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
)
from ebound.space import CoordinateSelectMap, DenseMap, IdentityMap

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

    def test_logistic_labels_checked(self):
        with pytest.raises(InvalidInputError):
            Logistic(np.array([1.0, 2.0]))

    @pytest.mark.parametrize("h", [
        LeastSquares(np.array([1.0, 2.0, 3.0])), Logistic(np.array([1.0, -1.0, 1.0])),
        Poisson(np.array([0.0, 1.0, 2.0])), GeneralQuadratic(np.eye(3), np.ones(3)),
    ], ids=lambda h: type(h).__name__)
    def test_input_must_have_the_data_shape(self, h):
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
