import warnings

import numpy as np
import pytest

from ebound.errors import InfeasibleTargetError, InvalidInputError
from ebound.experiments import _solver_settings
from ebound.losses import CompositeSmooth, LeastSquares
from ebound.problem import ProblemInstance
from ebound.regularizers import L1
from ebound.solver import Backtracking
from ebound.space import (
    GATHER_MIN_ENTRIES,
    GATHER_RATIO,
    GRAM_SAFE_EXPONENT,
    CoordinateSelectMap,
    DenseMap,
    IdentityMap,
    LinearMap,
    affine_project,
    inner,
    norm,
    norms,
    numerical_rank,
    psd_project,
    singular_values,
    svd,
)

from oracles import eig_2x2_sym


def reconstruction_error(U, sigma, Vt, X):
    k = min(X.shape)
    return np.linalg.norm((U[:, :k] * sigma) @ Vt[:k] - X)


class TestSvd:
    def test_diagonal(self):
        U, sigma, Vt = svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(sigma, [3.0, 1.0])
        np.testing.assert_allclose(U, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(Vt, np.eye(2), atol=1e-14)

    def test_psd_2x2_matches_eigenvalue_oracle(self):
        delta = 0.1
        X = np.array([[2 + delta**2, delta], [delta, 1 + 2 * delta**2]])
        _, sigma, _ = svd(X)
        np.testing.assert_allclose(sigma, eig_2x2_sym(X), rtol=1e-13)

    def test_zero_matrix(self):
        U, sigma, _ = svd(np.zeros((3, 2)))
        np.testing.assert_allclose(sigma, [0.0, 0.0])
        np.testing.assert_allclose(U.T @ U, np.eye(3), atol=1e-14)
        assert numerical_rank(sigma) == 0

    def test_invariants_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m, n = rng.integers(1, 9, size=2)
            X = rng.standard_normal((m, n)) * rng.uniform(0.1, 10)
            U, sigma, Vt = svd(X)
            scale = max(1.0, np.linalg.norm(X))
            assert reconstruction_error(U, sigma, Vt, X) <= 1e-10 * scale
            assert np.linalg.norm(U.T @ U - np.eye(m)) <= 1e-10
            assert np.linalg.norm(Vt @ Vt.T - np.eye(n)) <= 1e-10
            assert np.all(np.diff(sigma) <= 0)

    def test_wide_matrix_has_full_factors(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((2, 5))
        U, sigma, Vt = svd(X)
        assert U.shape == (2, 2) and Vt.shape == (5, 5)
        assert sigma.size == 2
        assert reconstruction_error(U, sigma, Vt, X) <= 1e-12

    def test_deterministic(self):
        X = np.random.default_rng(2).standard_normal((4, 4))
        (Ua, _, Vta), (Ub, _, Vtb) = svd(X), svd(X)
        assert np.array_equal(Ua, Ub) and np.array_equal(Vta, Vtb)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            svd(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_singular_value_lipschitz(self):
        # |σ_i(X) − σ_i(Y)| ≤ ‖X − Y‖_F on random pairs
        rng = np.random.default_rng(3)
        for _ in range(100):
            X = rng.standard_normal((5, 4))
            Y = rng.standard_normal((5, 4))
            gap = np.max(np.abs(svd(X)[1] - svd(Y)[1]))
            assert gap <= np.linalg.norm(X - Y) + 1e-9

    def test_groups_and_rank(self):
        _, sigma, _ = svd(np.diag([2.0, 2.0 + 1e-12, 1.0]))
        assert numerical_rank(sigma) == 3

    def test_singular_values_are_numpys_values_only_svd(self):
        rng = np.random.default_rng(4)
        for shape in ((5, 3), (2, 7), (4, 4), (1, 6)):
            X = rng.standard_normal(shape)
            np.testing.assert_array_equal(singular_values(X),
                                          np.linalg.svd(X, compute_uv=False))
        with pytest.raises(InvalidInputError):
            singular_values(np.array([[1.0, np.inf], [0.0, 1.0]]))


def reduction_inputs():
    """1-d, 2-d and non-contiguous (strided, transposed) float arrays, with
    sizes past numpy's pairwise-summation block."""
    rng = np.random.default_rng(5)
    big = rng.standard_normal((60, 70)) * 1e3
    return [rng.standard_normal(7), rng.standard_normal(1001), rng.standard_normal((9, 13)),
            big, big.T, big[::3, 1::2], rng.standard_normal(3000)[::7], np.zeros(0)]


class TestReductions:
    """norm and inner skip numpy's Python wrappers, bit for bit."""

    @pytest.mark.parametrize("i", range(len(reduction_inputs())))
    def test_norm_is_numpys_norm(self, i):
        x = reduction_inputs()[i]
        assert norm(x).hex() == float(np.linalg.norm(x)).hex()

    @pytest.mark.parametrize("i", range(len(reduction_inputs())))
    def test_inner_is_numpys_sum_of_products(self, i):
        x = reduction_inputs()[i]
        y = np.random.default_rng(6).standard_normal(x.shape)
        for a, b in ((x, y), (x, x), (y.T.copy().T, x)):
            assert inner(a, b).hex() == float(np.sum(a * b)).hex()

    def test_non_finite_entries(self):
        for bad in (np.inf, -np.inf, np.nan):
            x = np.array([1.0, bad, 2.0])
            assert norm(x).hex() == float(np.linalg.norm(x)).hex()
            with np.errstate(invalid="ignore"):
                assert inner(x, x[::-1]).hex() == float(np.sum(x * x[::-1])).hex()

    def test_inner_of_two_shapes_is_refused(self):
        # numpy would broadcast these to 6.0 and 3.0
        with pytest.raises(InvalidInputError, match="shapes"):
            inner(np.ones(3), np.ones((2, 3)))
        with pytest.raises(InvalidInputError, match="shapes"):
            inner(np.ones(3), np.ones((3, 1)))


class TestPsdProject:
    def test_clips_negative_eigenvalue(self):
        out = psd_project(np.diag([1.0, -2.0]))
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-14)
        assert abs(norm(np.diag([1.0, -2.0]) - out) - 2.0) <= 1e-12

    def test_skew_projects_to_zero(self):
        M = np.array([[0.0, 1.0], [-1.0, 0.0]])
        out = psd_project(M)
        np.testing.assert_allclose(out, np.zeros((2, 2)), atol=1e-14)
        assert abs(norm(M - out) - np.sqrt(2.0)) <= 1e-12

    def test_idempotent_on_psd(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 4))
        P = A @ A.T
        np.testing.assert_allclose(psd_project(P), P, atol=1e-10)

    def test_distance_decomposition(self):
        # ‖M − proj‖² = ‖skew(M)‖² + Σ min(λ_i(sym(M)), 0)²
        rng = np.random.default_rng(6)
        for _ in range(50):
            M = rng.standard_normal((4, 4))
            S = psd_project(M)
            H = (M + M.T) / 2
            expected = np.linalg.norm((M - M.T) / 2) ** 2
            expected += np.sum(np.minimum(np.linalg.eigvalsh(H), 0.0) ** 2)
            assert abs(norm(M - S) ** 2 - expected) <= 1e-10

    def test_beats_random_psd_candidates(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((3, 3))
        S = psd_project(M)
        best = norm(M - S)
        for _ in range(10**4):
            B = S + 0.05 * rng.standard_normal((3, 3))
            cand = B @ B.T / max(np.linalg.norm(B), 1.0)  # PSD by construction
            t = rng.random()
            cand = (1 - t) * S + t * cand  # PSD cone is convex
            assert norm(M - cand) >= best - 1e-9


class TestAffineProject:
    def test_identity_map(self):
        y = np.array([1.0, 2.0])
        np.testing.assert_allclose(affine_project(np.zeros(2), IdentityMap((2,)), y), y)

    def test_coordinate_select(self):
        A = CoordinateSelectMap(((0, 0), (1, 1)), (2, 2))
        X = np.array([[5.0, 7.0], [8.0, 9.0]])
        out = affine_project(X, A, np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, [[1.0, 7.0], [8.0, 0.0]])

    def test_dense_matches_lagrange_oracle(self):
        # project onto {x : ⟨a, x⟩ = y}: x + a (y − ⟨a, x⟩)/‖a‖²
        A = DenseMap(np.array([[1.0, 1.0]]), (2,))
        out = affine_project(np.zeros(2), A, np.array([2.0]))
        np.testing.assert_allclose(out, [1.0, 1.0], atol=1e-12)

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(8)
        A = DenseMap(rng.standard_normal((2, 5)), (5,))
        y = A(rng.standard_normal(5))
        x, z = rng.standard_normal(5), rng.standard_normal(5)
        px, pz = affine_project(x, A, y), affine_project(z, A, y)
        np.testing.assert_allclose(affine_project(px, A, y), px, atol=1e-10)
        assert norm(px - pz) <= norm(x - z) + 1e-12

    def test_inconsistent_target_rejected(self):
        A = DenseMap(np.array([[1.0, 0.0], [1.0, 0.0]]), (2,))
        with pytest.raises(InfeasibleTargetError):
            affine_project(np.zeros(2), A, np.array([0.0, 1.0]))

    def test_dense_map_on_matrix_elements(self):
        rng = np.random.default_rng(11)
        A = DenseMap(rng.standard_normal((2, 4)), (2, 2))
        X = rng.standard_normal((2, 2))
        y = A(rng.standard_normal((2, 2)))
        out = affine_project(X, A, y)
        assert out.shape == (2, 2)
        assert norm(A(out) - y) <= 1e-9
        np.testing.assert_allclose(affine_project(out, A, y), out, atol=1e-10)


class TestLinearMaps:
    def test_adjoint_consistency(self):
        rng = np.random.default_rng(9)
        maps = [
            DenseMap(rng.standard_normal((3, 6)), (6,)),
            DenseMap(rng.standard_normal((2, 4)), (2, 2)),
            CoordinateSelectMap(((0, 0), (1, 1)), (2, 2)),
            IdentityMap((4,)),
        ]
        for A in maps:
            for _ in range(50):
                x = rng.standard_normal(A.in_shape)
                y = rng.standard_normal(A.out_shape)
                lhs = inner(A(x), y)
                rhs = inner(x, A.adjoint(y))
                assert abs(lhs - rhs) <= 1e-12 * (1.0 + norm(x) * norm(y))

    def test_coordinate_select_adjoint_places_entries(self):
        A = CoordinateSelectMap(((0, 0), (1, 1)), (2, 2))
        np.testing.assert_allclose(A.adjoint(np.array([3.0, 4.0])),
                                   np.diag([3.0, 4.0]))

    def test_duplicate_indices_rejected(self):
        with pytest.raises(InvalidInputError):
            CoordinateSelectMap(((0, 0), (0, 0)), (2, 2))

    def test_out_of_range_indices_rejected(self):
        for idx in (((0, 0), (2, 1)), ((0, -1),)):
            with pytest.raises(InvalidInputError):
                CoordinateSelectMap(idx, (2, 2))

    def test_coordinate_select_matches_entrywise_loop(self):
        rng = np.random.default_rng(14)
        for shape, indices in (((4, 5), ((3, 1), (0, 4), (2, 2), (0, 0))),
                               ((6,), (5, 0, 3))):
            A = CoordinateSelectMap(indices, shape)
            X = rng.standard_normal(shape)
            y = rng.standard_normal(len(indices))
            assert np.array_equal(A(X), np.array([X[i] for i in A.indices]))
            back = np.zeros(shape)
            for i, yi in zip(A.indices, y):
                back[i] = yi
            assert np.array_equal(A.adjoint(y), back)
            placed = X.copy()
            for i, yi in zip(A.indices, y):
                placed[i] = yi
            assert np.array_equal(affine_project(X, A, y), placed)

    def test_dense_forward_rejects_wrong_size(self):
        # inputs must have the declared shape; a short sparse input on a map
        # that gathers would otherwise read the wrong columns silently
        A = DenseMap(np.ones((GATHER_MIN_ENTRIES // 400, 400)), (20, 20))
        assert A(np.ones((20, 20))).shape == (A.matrix.shape[0],)
        for x in (np.ones(400), np.ones(399), np.eye(1, 399).ravel(), np.eye(1, 401).ravel(),
                  np.ones((20, 21))):
            with pytest.raises(InvalidInputError, match=r"dense map takes shape \(20, 20\)"):
                A(x)

    def test_dense_adjoint_rejects_wrong_size(self):
        A = DenseMap(np.ones((3, 4)), (2, 2))
        assert A.adjoint(np.ones(3)).shape == (2, 2)
        for y in (np.ones((3, 1)), np.ones(2), np.ones(4), np.ones((2, 2))):
            with pytest.raises(InvalidInputError, match=r"dense map adjoint takes shape \(3,\)"):
                A.adjoint(y)

    def test_coordinate_select_forward_rejects_wrong_shape(self):
        C = CoordinateSelectMap((0, 2), (5,))
        for x in (np.arange(7.0), np.arange(4.0), np.zeros((5, 1))):
            with pytest.raises(InvalidInputError):
                C(x)

    def test_coordinate_select_adjoint_rejects_wrong_shape(self):
        C = CoordinateSelectMap((0, 2), (5,))
        for y in (np.ones(1), np.ones(3), np.ones((2, 1))):
            with pytest.raises(InvalidInputError):
                C.adjoint(y)

    def test_identity_forward_rejects_wrong_shape(self):
        identity = IdentityMap((2, 3))
        for x in (np.zeros(6), np.zeros((3, 2)), np.zeros((2, 4))):
            with pytest.raises(InvalidInputError):
                identity(x)

    def test_identity_adjoint_rejects_wrong_shape(self):
        identity = IdentityMap((3,))
        for y in (np.zeros(2), np.zeros((3, 1)), 1.0):
            with pytest.raises(InvalidInputError):
                identity.adjoint(y)


def sparse_input(rng, shape, k):
    """Gaussian entries on k random positions of an element of the shape."""
    x = np.zeros(int(np.prod(shape)))
    x[rng.choice(x.size, k, replace=False)] = rng.standard_normal(k)
    return x.reshape(shape)


class TestDenseSupportGather:
    """The forward product of a large dense map reads only the columns on
    its input's support when GATHER_RATIO·|supp x| ≤ n."""

    @pytest.mark.parametrize("in_shape", [(400,), (16, 25)])
    def test_agrees_with_full_product(self, in_shape):
        rng = np.random.default_rng(21)
        n = int(np.prod(in_shape))
        M = rng.standard_normal((GATHER_MIN_ENTRIES // n, n))
        A = DenseMap(M, in_shape)
        threshold = n // GATHER_RATIO
        for k in (0, 1, 4, threshold, threshold + 1, n):
            x = sparse_input(rng, in_shape, k)
            full = M @ x.reshape(-1)
            out = A(x)
            assert out.shape == (M.shape[0],)
            assert norm(out - full) <= 1e-14 * norm(full)

    def test_zero_input_gives_zeros(self):
        A = DenseMap(np.ones((GATHER_MIN_ENTRIES // 500, 500)), (500,))
        out = A(np.zeros(500))
        assert out.shape == (A.matrix.shape[0],) and not out.any()

    def test_nonfinite_entries_propagate_as_in_full_product(self):
        rng = np.random.default_rng(22)
        M = rng.standard_normal((250, 400))
        M[::7, 5] = 0.0   # 0·inf = nan in some rows of the output
        A = DenseMap(M, (400,))
        for bad in ({5: np.inf}, {5: -np.inf, 90: 2.0}, {17: np.nan},
                    {5: np.inf, 17: np.nan}, {5: np.inf, 6: -np.inf}):
            x = np.zeros(400)
            for j, v in bad.items():
                x[j] = v
            with np.errstate(invalid="ignore", over="ignore"):
                np.testing.assert_array_equal(A(x), M @ x)

    @pytest.mark.parametrize("rows, k, gathers", [
        (40, 1, False),
        (GATHER_MIN_ENTRIES // 1000 - 1, 1, False),
        (GATHER_MIN_ENTRIES // 1000, 1000 // GATHER_RATIO, True),
        (GATHER_MIN_ENTRIES // 1000, 1000 // GATHER_RATIO + 1, False),
    ])
    def test_gather_rule(self, monkeypatch, rows, k, gathers):
        # below the size gate the support is never scanned; at or above it,
        # x is scanned once, and past the support ratio the product is the
        # full one, bit for bit, as it is below the gate
        rng = np.random.default_rng(23)
        M = rng.standard_normal((rows, 1000))
        x = sparse_input(rng, (1000,), k)
        scans = []
        flatnonzero = np.flatnonzero

        def spy(v):
            scans.append(v.size)
            return flatnonzero(v)

        monkeypatch.setattr(np, "flatnonzero", spy)
        A = DenseMap(M, (1000,))
        scanned = [1000] if M.size >= GATHER_MIN_ENTRIES else []
        out = A(x)
        assert scans == scanned
        if not gathers:
            assert np.array_equal(out, M @ x)
        # support hands a caller the indices it scanned, and apply_on forms
        # the same product from them, so the caller never scans again
        scans.clear()
        s = A.support(x)
        assert scans == scanned
        scans.clear()
        assert np.array_equal(A.apply_on(x, s), out) and scans == []
        if gathers:
            assert np.array_equal(s, flatnonzero(x))
        else:
            assert s is None

    def test_other_maps_read_the_whole_input(self):
        x = np.arange(6.0).reshape(2, 3)
        for A in (IdentityMap((2, 3)), CoordinateSelectMap(((0, 1), (1, 2)), (2, 3))):
            assert A.support(x) is None and np.array_equal(A.apply_on(x, None), A(x))


class Reversal(LinearMap):
    """A user-defined map that inherits the stacked products: x ↦ 2·x[::-1]."""

    in_shape = out_shape = (5,)

    def __call__(self, x):
        return 2.0 * np.asarray(x, dtype=float)[::-1]

    def adjoint(self, y):
        return 2.0 * np.asarray(y, dtype=float)[::-1]


class TestStackedProducts:
    """apply_each and adjoint_each take a stack of points (a leading axis)
    and return one array: a loop over the per-point products on the base
    class, a gather or scatter on a coordinate-select map, one
    matrix–matrix product on a dense map."""

    @pytest.mark.parametrize("A", [
        IdentityMap((2, 3)),
        CoordinateSelectMap(((3, 1), (0, 4), (2, 2)), (4, 5)),
        CoordinateSelectMap((5, 0, 3), (6,)),
        Reversal(),
    ], ids=["identity", "select-matrix", "select-vector", "user-defined"])
    def test_base_loop_is_the_per_point_products_bit_for_bit(self, A):
        rng = np.random.default_rng(30)
        X = rng.standard_normal((4, *A.in_shape))
        Y = rng.standard_normal((4, *A.out_shape))
        forward, back = A.apply_each(X), A.adjoint_each(Y)
        assert forward.shape == (4, *A.out_shape) and back.shape == (4, *A.in_shape)
        for got, x in zip(forward, X, strict=True):
            assert got.tobytes() == A(x).tobytes()
        for got, y in zip(back, Y, strict=True):
            assert got.tobytes() == A.adjoint(y).tobytes()

    @pytest.mark.parametrize("rows, in_shape, k", [
        (7, (9,), None), (5, (4, 6), None),
        (GATHER_MIN_ENTRIES // 1000, (1000,), 3),   # each point alone would gather
    ])
    def test_dense_agrees_with_the_per_point_products(self, rows, in_shape, k):
        # rounding differs between the matrix–matrix and matrix–vector
        # products; each entry is off by a few ulps of ‖M‖₂·‖x‖
        rng = np.random.default_rng(31)
        n = int(np.prod(in_shape))
        A = DenseMap(rng.standard_normal((rows, n)), in_shape)
        M2 = A.operator_norm()
        X = np.array([rng.standard_normal(in_shape) if k is None
                      else sparse_input(rng, in_shape, k) for _ in range(6)])
        Y = rng.standard_normal((6, rows))
        forward, back = A.apply_each(X), A.adjoint_each(Y)
        assert forward.shape == (6, rows) and back.shape == (6, *in_shape)
        for got, x in zip(forward, X, strict=True):
            assert norm(got - A(x)) <= 1e-13 * M2 * norm(x)
        for got, y in zip(back, Y, strict=True):
            assert norm(got - A.adjoint(y)) <= 1e-13 * M2 * norm(y)

    def test_dense_takes_points_of_its_shape_only(self):
        # one input rule for every map: a (2, 3) map refuses a (3, 2) point
        # of the same size, where a row-major flattening would multiply it,
        # and a stack of such points or a bare point where it takes a stack
        A = DenseMap(np.arange(24.0).reshape(4, 6), (2, 3))
        x = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(A(x), A.matrix @ x.ravel())
        np.testing.assert_array_equal(A.apply_each(np.stack([x, x]))[1], A.matrix @ x.ravel())
        for call in (A, lambda v: A.apply_on(v, None)):
            for bad in (x.reshape(3, 2), x.ravel(), x.reshape(6, 1)):
                with pytest.raises(InvalidInputError, match=r"takes shape \(2, 3\)"):
                    call(bad)
        for bad in (np.ones((2, 3, 2)), np.ones((2, 6)), np.ones((2, 6, 1)), x):
            with pytest.raises(InvalidInputError, match=r"takes shape \(2, 3\)"):
                A.apply_each(bad)
        for call, bads in ((A.adjoint, (np.ones((4, 1)), np.ones((2, 2)))),
                           (A.adjoint_each, (np.ones((2, 4, 1)), np.ones((2, 2, 2)), np.ones(4)))):
            for bad in bads:
                with pytest.raises(InvalidInputError, match=r"takes shape \(4,\)"):
                    call(bad)

    @pytest.mark.parametrize("A", [
        DenseMap(np.ones((3, 4)), (2, 2)),
        IdentityMap((4,)),
        CoordinateSelectMap((0, 2), (4,)),
    ], ids=["dense", "identity", "select"])
    def test_wrong_size_raises_the_per_point_error(self, A):
        n, m = int(np.prod(A.in_shape)), int(np.prod(A.out_shape))
        for bad_x, bad_y in ((np.ones(n + 1), np.ones(m + 1)), (np.ones(n - 1), np.ones(m - 1))):
            with pytest.raises(InvalidInputError) as single:
                A(bad_x)
            with pytest.raises(InvalidInputError) as stacked:
                A.apply_each(np.stack([bad_x, bad_x]))
            assert str(stacked.value) == str(single.value)
            with pytest.raises(InvalidInputError) as single:
                A.adjoint(bad_y)
            with pytest.raises(InvalidInputError) as stacked:
                A.adjoint_each(np.stack([bad_y, bad_y]))
            assert str(stacked.value) == str(single.value)

    @pytest.mark.parametrize("A", [
        DenseMap(np.ones((3, 4)), (2, 2)),
        IdentityMap((4,)),
        CoordinateSelectMap((0, 2), (4,)),
        Reversal(),
    ], ids=["dense", "identity", "select", "user-defined"])
    def test_no_points_gives_no_products(self, A):
        assert A.apply_each(np.empty((0, *A.in_shape))).shape == (0, *A.out_shape)
        assert A.adjoint_each(np.empty((0, *A.out_shape))).shape == (0, *A.in_shape)


def _rank_deficient(rng):
    """A 30×40 matrix of rank 5."""
    return rng.standard_normal((30, 5)) @ rng.standard_normal((5, 40))


class TestDenseOperatorNorm:
    """‖A‖₂ of a dense map, read off the top eigenvalue of its smaller Gram
    matrix: the SVD's value up to O(ε) relative, with no SVD."""

    @pytest.mark.parametrize("make", [
        lambda rng: rng.standard_normal((1000, 400)),
        lambda rng: rng.standard_normal((400, 1000)),
        lambda rng: rng.standard_normal((60, 60)),
        lambda rng: rng.standard_normal((1, 50)),
        lambda rng: rng.standard_normal((50, 1)),
        lambda rng: np.outer(rng.standard_normal(20), rng.standard_normal(35)),
        _rank_deficient,
    ], ids=["tall", "wide", "square", "1xn", "nx1", "rank-1", "rank-deficient"])
    def test_agrees_with_the_svd(self, make):
        M = make(np.random.default_rng(40))
        got = DenseMap(M, (M.shape[1],)).operator_norm()
        expected = float(np.linalg.norm(M, 2))
        assert abs(got - expected) <= 1e-13 * expected

    @pytest.mark.parametrize("shape", [(3, 4), (0, 5), (3, 0)], ids=["zero", "0xn", "mx0"])
    def test_zero_and_empty_maps_give_exactly_zero(self, shape):
        got = DenseMap(np.zeros(shape), (shape[1],)).operator_norm()
        assert type(got) is float and got == 0.0

    def test_zero_map_keeps_backtracking(self):
        smooth = CompositeSmooth(LeastSquares(np.ones(3)), DenseMap(np.zeros((3, 4)), (4,)),
                                 np.zeros(4))
        prob = ProblemInstance(smooth, L1(0.1), np.zeros(4))
        step, _, _ = _solver_settings({}, prob)
        assert step == Backtracking()

    @pytest.mark.parametrize("e", [600, -600, GRAM_SAFE_EXPONENT - 2, 2 - GRAM_SAFE_EXPONENT])
    def test_scaled_by_a_power_of_two_neither_overflows_nor_underflows(self, e):
        base = np.random.default_rng(41).standard_normal((40, 70))
        M = np.ldexp(base, e)
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            got = DenseMap(M, (70,)).operator_norm()
        expected = float(np.ldexp(np.linalg.norm(base, 2), e))
        assert abs(got - expected) <= 1e-13 * expected


class TestStackedKernels:
    """norms, svd, singular_values, numerical_rank and psd_project on a
    stack (leading axes) give each element's own result, bit for bit."""

    @pytest.mark.parametrize("shape, ndim", [((6, 1000), 1), ((3, 4, 5), 2), ((2, 3, 7), 1),
                                             ((0, 4), 1), ((4, 0), 1)], ids=str)
    def test_norms_are_norm(self, shape, ndim):
        xs = np.random.default_rng(1).standard_normal(shape) * 1e3
        lead, element = shape[:len(shape) - ndim], shape[len(shape) - ndim:]
        got = norms(xs, ndim)
        assert got.shape == lead
        flat = xs.reshape(int(np.prod(lead)), *element)
        assert list(got.reshape(-1)) == [norm(x) for x in flat]
        if flat.size:
            assert norms(flat[0], ndim).shape == ()

    def test_svd_and_singular_values_of_a_stack(self):
        X = np.random.default_rng(2).standard_normal((5, 4, 6))
        X[3] = np.outer(X[3, :, 0], X[3, 0])  # rank one
        for full in (True, False):
            U, s, Vt = svd(X, full_matrices=full)
            for i, x in enumerate(X):
                u, si, vt = svd(x, full_matrices=full)
                assert np.array_equal(U[i], u) and np.array_equal(s[i], si)
                assert np.array_equal(Vt[i], vt)
        sv = singular_values(X)
        assert all(np.array_equal(sv[i], singular_values(x)) for i, x in enumerate(X))
        assert list(numerical_rank(sv)) == [numerical_rank(si) for si in sv]
        assert numerical_rank(sv)[3] == 1
        with pytest.raises(InvalidInputError):
            singular_values(np.where(np.arange(6) == 5, np.inf, X))

    def test_psd_project_of_a_stack(self):
        M = np.random.default_rng(3).standard_normal((4, 3, 3))
        got = psd_project(M)
        assert all(np.array_equal(got[i], psd_project(m)) for i, m in enumerate(M))
        with pytest.raises(InvalidInputError, match="square matrix"):
            psd_project(np.zeros((2, 3, 4)))
