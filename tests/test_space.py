import numpy as np
import pytest

from ebound.errors import InfeasibleTargetError, InvalidInputError
from ebound.space import (
    GATHER_MIN_ENTRIES,
    GATHER_RATIO,
    CoordinateSelectMap,
    DenseMap,
    IdentityMap,
    affine_project,
    inner,
    norm,
    numerical_rank,
    psd_project,
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
        # inputs are taken by size; a short sparse input on a map that
        # gathers would otherwise read the wrong columns silently
        A = DenseMap(np.ones((GATHER_MIN_ENTRIES // 400, 400)), (20, 20))
        assert A(np.ones(400)).shape == A(np.ones((20, 20))).shape == (A.matrix.shape[0],)
        for x in (np.ones(399), np.eye(1, 399).ravel(), np.eye(1, 401).ravel(),
                  np.ones((20, 21))):
            with pytest.raises(InvalidInputError):
                A(x)

    def test_dense_adjoint_rejects_wrong_size(self):
        A = DenseMap(np.ones((3, 4)), (2, 2))
        assert A.adjoint(np.ones((3, 1))).shape == (2, 2)
        for y in (np.ones(2), np.ones(4), np.ones((2, 2))):
            with pytest.raises(InvalidInputError):
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
        # below the size gate, or past the support ratio, the support is
        # never scanned and the product is the full one, bit for bit
        rng = np.random.default_rng(23)
        M = rng.standard_normal((rows, 1000))
        x = sparse_input(rng, (1000,), k)
        scans = []
        flatnonzero = np.flatnonzero

        def spy(v):
            scans.append(v.size)
            return flatnonzero(v)

        monkeypatch.setattr(np, "flatnonzero", spy)
        out = DenseMap(M, (1000,))(x)
        assert scans == ([1000] if gathers else [])
        if not gathers:
            assert np.array_equal(out, M @ x)
