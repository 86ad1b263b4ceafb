import re

import numpy as np
import pytest

from ebound.errors import DomainError, InfeasibleTargetError, InvalidInputError
from ebound.regularizers import (
    L1,
    GroupedLasso,
    NuclearImage,
    NuclearNorm,
    OrthantIndicator,
    Ridge,
)
from ebound.space import norm

import oracles


def make_grouped():
    return GroupedLasso([[0, 1], [2, 3, 4]], [1.0, 2.0])


def box_bounds(img):
    """The per-coordinate bounds of a box image, read through its projection:
    the nearest points to (−∞, …, −∞) and to (∞, …, ∞)."""
    n = img.c.size
    return img.project(np.full(n, -np.inf)), img.project(np.full(n, np.inf))


def raises_empty(reason):
    """The exact error an empty inverse image raises."""
    return pytest.raises(InfeasibleTargetError,
                         match=f"^{re.escape(f'inverse image is empty: {reason}')}$")


# non-contiguous groups of unequal size with one zero-weight group
SCATTERED_GROUPS = [[4, 0, 7], [2], [8, 1, 5, 3], [6, 9]]
SCATTERED_WEIGHTS = [0.5, 0.0, 1.2, 0.7]


class TestValues:
    def test_l1(self):
        assert L1(1.0).value(np.array([1.0, -2.0])) == 3.0

    def test_nuclear_diagonal(self):
        assert abs(NuclearNorm().value(np.diag([1.0, 0.0])) - 1.0) <= 1e-14

    def test_grouped(self):
        reg = GroupedLasso([[0, 1]], [2.0])
        assert abs(reg.value(np.array([3.0, 4.0])) - 10.0) <= 1e-14

    def test_orthant_indicator(self):
        reg = OrthantIndicator([-1, 1])
        assert reg.value(np.array([-1.0, 2.0])) == 0.0
        assert reg.value(np.array([1.0, 2.0])) == np.inf
        with pytest.raises(InvalidInputError):
            OrthantIndicator([1, 0.5, 0])  # checked before the cast to int

    def test_kind_mismatch(self):
        with pytest.raises(InvalidInputError):
            L1(1.0).value(np.eye(2))
        with pytest.raises(InvalidInputError):
            NuclearNorm().value(np.ones(3))

    def test_grouped_partition_validated(self):
        with pytest.raises(InvalidInputError):
            GroupedLasso([[0, 1], [1, 2]], [1.0, 1.0])
        with pytest.raises(InvalidInputError):
            GroupedLasso([[0, 1]], [-1.0])

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf"), -1.0,
                                        np.array([1.0, 2.0])],
                             ids=["nan", "inf", "-inf", "-1", "array"])
    @pytest.mark.parametrize("make", [L1, Ridge, lambda w: GroupedLasso([[0], [1, 2]], [1.0, w])],
                             ids=["L1", "Ridge", "GroupedLasso"])
    def test_weight_must_be_finite_and_nonnegative(self, make, weight):
        # nan < 0 is False, so a sign check alone let NaN through to value()
        with pytest.raises(InvalidInputError, match="must be finite and >= 0"):
            make(weight)


class TestProx:
    def test_l1_soft_threshold(self):
        out = L1(1.0).prox(np.array([2.0, -0.5, 1.0]))
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0], atol=1e-14)

    def test_grouped_shrinks_radially(self):
        reg = GroupedLasso([[0, 1]], [1.0])
        np.testing.assert_allclose(reg.prox(np.array([3.0, 4.0])), [2.4, 3.2],
                                   atol=1e-14)
        np.testing.assert_allclose(reg.prox(np.zeros(2)), np.zeros(2))

    def test_grouped_matches_per_group_loop(self):
        # non-contiguous groups of unequal size, one zero-weight group and,
        # in the second point, a zero-norm group
        groups = [[4, 0, 7], [2], [8, 1, 5, 3], [6, 9]]
        weights = [0.5, 0.0, 1.2, 0.7]
        reg = GroupedLasso(groups, weights)
        rng = np.random.default_rng(12)
        z_zero_group = rng.standard_normal(10)
        z_zero_group[[6, 9]] = 0.0
        for z in (rng.standard_normal(10), z_zero_group, 0.2 * rng.standard_normal(10)):
            value = sum(w * np.linalg.norm(z[J]) for J, w in zip(groups, weights))
            assert abs(reg.value(z) - value) <= 1e-14 * max(1.0, value)
            for t in (0.3, 1.0, 2.5):
                expected = np.zeros(10)
                for J, w in zip(groups, weights):
                    nz = np.linalg.norm(z[J])
                    if nz > 0.0:
                        expected[J] = max(1.0 - t * w / nz, 0.0) * z[J]
                np.testing.assert_allclose(reg.prox(z, t), expected, rtol=1e-14, atol=1e-15)

    def test_nuclear_matches_full_svd_shrinkage(self):
        rng = np.random.default_rng(13)
        tall = rng.standard_normal((7, 4))
        wide = rng.standard_normal((3, 6))
        rank_two = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 5))
        for Z in (tall, wide, rank_two):
            U, sigma, Vt = np.linalg.svd(Z, full_matrices=True)
            k = sigma.size
            assert abs(NuclearNorm().value(Z) - np.sum(sigma)) <= 1e-12 * np.sum(sigma)
            for t in (0.0, 0.5, float(np.median(sigma))):
                S = np.zeros(Z.shape)
                S[:k, :k] = np.diag(np.maximum(sigma - t, 0.0))
                np.testing.assert_allclose(NuclearNorm().prox(Z, t), U @ S @ Vt, atol=1e-12)

    def test_matrix_shrinkage_on_psd_dominant_matrix(self):
        # for Z ⪰ I the shrinkage just subtracts the identity
        delta = 0.3
        Z = np.array([[2 + delta**2, delta], [delta, 1 + 2 * delta**2]])
        np.testing.assert_allclose(NuclearNorm().prox(Z), Z - np.eye(2), atol=1e-12)

    def test_scaled_prox(self):
        z = np.array([2.0, -0.5])
        np.testing.assert_allclose(L1(1.0).prox(z, t=0.5), [1.5, 0.0])
        np.testing.assert_allclose(Ridge(1.0).prox(z, t=0.5), z / 2.0)

    def test_prox_matches_oracles_spot(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(-3, 3, 5)
        np.testing.assert_allclose(L1(0.7).prox(z), oracles.prox_l1_oracle(z, 0.7),
                                   atol=1e-8)
        reg = make_grouped()
        np.testing.assert_allclose(
            reg.prox(z), oracles.prox_group_oracle(z, reg.groups, reg.weights),
            atol=1e-6)

    def test_prox_optimality_against_perturbations(self):
        rng = np.random.default_rng(1)
        regs = [L1(0.8), Ridge(0.5), make_grouped(), OrthantIndicator([-1, 1, 0, 1, -1])]
        for reg in regs:
            z = rng.uniform(-2, 2, 5)
            p = reg.prox(z)
            base = 0.5 * norm(p - z) ** 2 + reg.value(p)
            for _ in range(10**3):
                cand = p + 0.3 * rng.standard_normal(5)
                val = 0.5 * norm(cand - z) ** 2 + reg.value(cand)
                assert val >= base - 1e-9

    def test_orthant_prox_diff_keeps_tiny_gradients(self):
        reg = OrthantIndicator([-1, 1])
        x = np.array([-50.0, 1.0])
        g = np.array([1e-22, 3e-21])
        np.testing.assert_allclose(reg.prox_diff(x, g), -g, rtol=0, atol=0)


PROX_VALUE_CASES = {
    "l1": (L1(0.7), np.array([1.5, -0.2, 0.0, -3.0, 0.69])),
    "ridge": (Ridge(0.4), np.array([1.5, -0.2, 0.0, -3.0])),
    "grouped": (GroupedLasso(SCATTERED_GROUPS, SCATTERED_WEIGHTS),
                np.random.default_rng(3).standard_normal(10)),
    "orthant": (OrthantIndicator([-1, 0, 1, 1]), np.array([0.5, -0.2, -1.0, 2.0])),
    "nuclear": (NuclearNorm(), 2.0 * np.random.default_rng(4).standard_normal((4, 6))),
}


class TestProxValue:
    """prox_value(z, t) is (prox(z, t), value(prox(z, t))) from one prox, and
    the residual formed from its unit-step point is prox_diff's."""

    @pytest.mark.parametrize("t", [1.0, 0.3])
    @pytest.mark.parametrize("case", PROX_VALUE_CASES)
    def test_point_and_value(self, case, t):
        reg, z = PROX_VALUE_CASES[case]
        p, v = reg.prox_value(z, t)
        assert np.array_equal(p, reg.prox(z, t))
        if isinstance(reg, NuclearNorm):
            # Σ max(σ − t, 0) of z against the singular values of the result
            assert v == pytest.approx(reg.value(p), rel=1e-14)
        else:
            assert v == reg.value(p)

    @pytest.mark.parametrize("t", [1.0, 0.3, 0.25])
    @pytest.mark.parametrize("reg", [
        L1(0.8), L1(0.0), GroupedLasso(SCATTERED_GROUPS, SCATTERED_WEIGHTS),
    ], ids=["l1", "l1-zero-weight", "grouped"])
    def test_one_pass_is_prox_then_value_bit_for_bit(self, reg, t):
        # random inputs with ±0, coordinates exactly at the threshold
        # |z_i| = tλ (0.2 = 0.25·0.8 is exact) and NaN
        rng = np.random.default_rng(7)
        edges = np.array([0.0, -0.0, 0.2, -0.2, 0.24, -0.8, 0.8 * t, -0.8 * t, 1e-300, -5e307])
        for k in range(30):
            z = rng.standard_normal(10) * rng.choice([1e-3, 1.0, 1e3])
            pick = rng.random(10) < 0.4
            z[pick] = rng.choice(edges, pick.sum())
            if k % 5 == 0:
                z[rng.integers(10)] = np.nan
            with np.errstate(invalid="ignore", over="ignore"):
                p, v = reg.prox_value(z, t)
                expected = reg.prox(z, t)
                np.testing.assert_array_equal(p, expected)
                assert np.signbit(p).tolist() == np.signbit(expected).tolist()
                assert float(v).hex() == float(reg.value(expected)).hex()

    @pytest.mark.parametrize("case", PROX_VALUE_CASES)
    def test_residual_from_the_unit_point_is_prox_diff(self, case):
        reg, z = PROX_VALUE_CASES[case]
        x = reg.prox(z)
        g = 0.5 * np.ones_like(z)
        p, _ = reg.prox_value(x - g)
        assert np.array_equal(reg.residual(x, g, p), reg.prox_diff(x, g))


class TestSubdiffDistance:
    def test_nuclear_at_rank_deficient_optimum(self):
        # ∂‖diag(1,0)‖_* = {Z : Z₁₁ = 1, off-diag 0, Z₂₂ ∈ [−1, 1]}
        P = NuclearNorm()
        x = np.diag([1.0, 0.0])
        assert P.subdiff_distance(x, np.eye(2)) <= 1e-12
        assert abs(P.subdiff_distance(x, np.diag([1.0, 2.0])) - 1.0) <= 1e-12

    def test_nuclear_matches_interval_brute_force(self):
        P = NuclearNorm()
        x = np.diag([1.0, 0.0])
        rng = np.random.default_rng(2)
        grid = np.linspace(-1, 1, 20001)
        for _ in range(20):
            s = rng.standard_normal((2, 2))
            cands = np.array([
                [np.hypot(np.hypot(s[0, 0] - 1, s[0, 1]), np.hypot(s[1, 0], s[1, 1] - w))
                 for w in grid]
            ])
            assert abs(P.subdiff_distance(x, s) - cands.min()) <= 1e-7

    @pytest.mark.parametrize("m,n,rank", [(5, 3, 2), (3, 5, 2), (4, 4, 1), (4, 4, 0)],
                             ids=["tall", "wide", "rank-deficient", "zero"])
    def test_nuclear_matches_graph_member(self, m, n, rank):
        # (x, s) with s ∈ ∂‖x‖_* is at distance 0; moving s by E inside the
        # rank block costs ‖E‖, and scaling the tail block W to spectral norm
        # c > 1 costs ‖(σ(cW/‖W‖₂) − 1)₊‖
        P = NuclearNorm()
        rng = np.random.default_rng(15)
        for _ in range(20):
            x, s = oracles.nuclear_graph_member(rng, m, n, rank)
            assert P.subdiff_distance(x, s) <= 1e-9
            U, _, Vt = np.linalg.svd(x)
            E = rng.standard_normal((rank, rank))
            moved = s + U[:, :rank] @ E @ Vt[:rank]
            assert abs(P.subdiff_distance(x, moved) - np.linalg.norm(E)) <= 1e-9
            W = U[:, rank:].T @ s @ Vt[rank:].T
            if W.size == 0:
                continue
            c = rng.uniform(1.5, 3.0)
            spread = s + U[:, rank:] @ ((c / np.linalg.norm(W, 2) - 1.0) * W) @ Vt[rank:]
            over = np.linalg.svd(c * W / np.linalg.norm(W, 2), compute_uv=False) - 1.0
            expected = np.linalg.norm(np.maximum(over, 0.0))
            assert abs(P.subdiff_distance(x, spread) - expected) <= 1e-9

    def test_grouped_on_unit_direction(self):
        reg = GroupedLasso([[0, 1]], [1.0])
        assert reg.subdiff_distance(np.array([3.0, 4.0]),
                                    np.array([0.6, 0.8])) <= 1e-14

    def test_l1_cases(self):
        P = L1(2.0)
        x = np.array([1.0, 0.0, -3.0])
        s = np.array([2.0, 5.0, -2.0])
        # active coords pin s to ±λ; the zero coord measures overshoot past λ
        assert abs(P.subdiff_distance(x, s) - 3.0) <= 1e-14

    def test_ridge_singleton(self):
        P = Ridge(0.5)
        x = np.array([1.0, -1.0])
        assert abs(P.subdiff_distance(x, np.array([1.0, 0.0])) - 1.0) <= 1e-14

    def test_orthant_normal_cone(self):
        reg = OrthantIndicator([-1, 1])
        x = np.array([0.0, 2.0])
        assert reg.subdiff_distance(x, np.array([3.0, 0.0])) == 0.0
        assert abs(reg.subdiff_distance(x, np.array([-2.0, 1.0])) - np.hypot(2, 1)) <= 1e-14

    def test_grouped_matches_per_group_loop(self):
        reg = GroupedLasso(SCATTERED_GROUPS, SCATTERED_WEIGHTS)
        rng = np.random.default_rng(15)
        for _ in range(40):
            # zero a random set of blocks, the zero-weight block included,
            # and draw s so that ‖s_J‖ falls on both sides of ω_J
            x = rng.standard_normal(10)
            for J in reg.groups:
                if rng.random() < 0.4:
                    x[J] = 0.0
            s = rng.uniform(0.0, 1.5) * rng.standard_normal(10)
            expected = oracles.grouped_subdiff_distance_oracle(x, s, reg.groups, reg.weights)
            assert abs(reg.subdiff_distance(x, s) - expected) <= 1e-14 * max(1.0, expected)

    def test_orthant_matches_coordinate_loop(self):
        rng = np.random.default_rng(16)
        for _ in range(40):
            signs = rng.choice([-1, 0, 1], 12)
            reg = OrthantIndicator(signs)
            # inside the box, with a random share of coordinates on the faces
            x = np.where(signs == 0, rng.standard_normal(12), signs * rng.exponential(size=12))
            x[rng.random(12) < 0.5] = 0.0
            s = rng.standard_normal(12)
            expected = oracles.orthant_subdiff_distance_oracle(x, s, signs)
            assert abs(reg.subdiff_distance(x, s) - expected) <= 1e-14 * max(1.0, expected)

    def test_orthant_outside_domain(self):
        from ebound.errors import DomainError
        reg = OrthantIndicator([-1, 1])
        with pytest.raises(DomainError):
            reg.subdiff_distance(np.array([1.0, 1.0]), np.zeros(2))


#: (regularizer, target g, a point of another shape) per family
MISMATCHED = {
    "l1": (L1(0.5), np.array([-0.5, 0.5, 0.1]), np.array([5.0])),
    "ridge": (Ridge(0.5), np.array([1.0, -1.0, 0.0]), np.array([5.0])),
    "grouped": (GroupedLasso([[0, 1], [2]], [1.0, 1.0]), np.array([0.6, 0.8, 0.0]),
                np.array([5.0])),
    "orthant": (OrthantIndicator([-1, 0, 1]), np.zeros(3), np.array([5.0])),
    "nuclear": (NuclearNorm(), -np.eye(2, 3), np.ones((3, 2))),
    "nuclear_row": (NuclearNorm(), -np.eye(2, 3), np.ones((1, 3))),
}


class TestShapeMismatch:
    """A point whose shape differs from the target's, or from the
    subgradient candidate's, raises instead of broadcasting."""

    @pytest.mark.parametrize("case", MISMATCHED)
    def test_inverse_image_distance(self, case):
        reg, g, x = MISMATCHED[case]
        with pytest.raises(InvalidInputError):
            reg.inverse_image_distance(g, x)

    @pytest.mark.parametrize("case", MISMATCHED)
    def test_subdiff_distance(self, case):
        reg, g, x = MISMATCHED[case]
        with pytest.raises(InvalidInputError):
            reg.subdiff_distance(np.zeros_like(g), np.ones_like(x))

    @pytest.mark.parametrize("case", MISMATCHED)
    def test_prox_diff(self, case):
        # the point has the target's shape, the gradient the other one
        reg, g, x = MISMATCHED[case]
        with pytest.raises(InvalidInputError):
            reg.prox_diff(g, x)


class TestInverseImage:
    def test_grouped_cases(self):
        x = np.array([1.0, -3.0])
        reg = GroupedLasso([[0, 1]], [2.0])
        with raises_empty("group 0 has ‖g_J‖ > ω_J"):
            reg.inverse_image(np.array([1.8, 2.4]))  # ‖g‖ = 3 > 2
        img = reg.inverse_image(np.array([0.3, 0.4]))  # ‖g‖ = 0.5 < 2: the block is {0}
        np.testing.assert_array_equal(img.project(x), np.zeros(2))
        reg1 = GroupedLasso([[0, 1]], [1.0])
        img = reg1.inverse_image(np.array([0.6, 0.8]))  # the ray {a·(0.6, 0.8) : a ≤ 0}
        np.testing.assert_allclose(img.project(np.array([-3.8, -3.4])), [-3.0, -4.0],
                                   rtol=1e-15)
        np.testing.assert_array_equal(img.project(np.array([3.0, 4.0])), np.zeros(2))
        reg0 = GroupedLasso([[0, 1]], [0.0])
        np.testing.assert_array_equal(reg0.inverse_image(np.zeros(2)).project(x), x)
        with raises_empty("group 0 has ‖g_J‖ > ω_J"):
            reg0.inverse_image(np.array([0.1, 0.0]))

    @staticmethod
    def _group_gradients(rng, groups, weights, band):
        """Random gradients, and gradients whose blocks sit on the case edges:
        ‖g_J‖ inside the ray band, next to its boundary on either side, or
        outside it, g_J = 0, and zero-weight blocks inside or outside the
        tolerance."""
        n = sum(len(J) for J in groups)
        cases = [rng.uniform(-1.0, 1.0, n) for _ in range(10)]
        for _ in range(30):
            g = np.zeros(n)
            for J, w in zip(groups, weights):
                u = rng.standard_normal(len(J))
                u /= np.linalg.norm(u)
                # two ways of summing ‖g_J‖² may round apart, so stay 1e-3
                # band widths (far above the rounding) off the band's boundary
                offset = rng.choice([0.0, 0.5, -0.5, 0.999, -0.999, 1.001, -1.001,
                                     2.0, -2.0]) * band
                g[J] = rng.choice([0.0, rng.uniform(0.0, 1.0), 1.0]) * u * w \
                    if rng.random() < 0.3 else (w + offset) * u
            cases.append(g)
        return cases

    # the weight 1e-9 lies inside the band around 0, so g_J = 0 is a ray block
    @pytest.mark.parametrize("weights", [SCATTERED_WEIGHTS, [1e-9, 2.5, 1.0, 0.0]])
    def test_grouped_matches_per_group_loop(self, weights):
        rng = np.random.default_rng(14)
        reg = GroupedLasso(SCATTERED_GROUPS, weights)
        groups = reg.groups
        empties = 0
        for g in self._group_gradients(rng, groups, weights, 1e-8):
            expected = oracles.grouped_inverse_image_oracle(g, groups, weights, 1e-8)
            if isinstance(expected, int):
                empties += 1
                with raises_empty(f"group {expected} has ‖g_J‖ > ω_J"):
                    reg.inverse_image(g)
                continue
            img = reg.inverse_image(g)
            for x in (rng.standard_normal(10), -g, g, np.zeros(10)):
                np.testing.assert_allclose(
                    img.project(x), oracles.grouped_image_project_oracle(x, groups, expected),
                    rtol=1e-13, atol=1e-15)
        assert 0 < empties < 40

    def test_grouped_ray_distances(self):
        reg = GroupedLasso([[0, 1]], [1.0])
        g = np.array([0.6, 0.8])
        assert reg.inverse_image_distance(g, np.array([-0.6, -0.8])) <= 1e-14
        assert abs(reg.inverse_image_distance(g, np.array([0.6, 0.8])) - 1.0) <= 1e-14

    def test_grouped_ray_matches_grid_oracle(self):
        reg = GroupedLasso([[0, 1]], [1.0])
        g = np.array([0.6, 0.8])
        rng = np.random.default_rng(3)
        grid = np.linspace(-50.0, 0.0, 200001)
        for _ in range(10):
            x = rng.uniform(-2, 2, 2)
            brute = np.min(np.linalg.norm(x - grid[:, None] * g, axis=1))
            assert abs(reg.inverse_image_distance(g, x) - brute) <= 1e-6

    def test_nuclear_split_index_and_distance(self):
        P = NuclearNorm()
        img = P.inverse_image(-np.diag([1.0, 0.3]))
        assert img.s_bar == 1
        # the set is {diag(z, 0) : z ≥ 0}
        d = P.inverse_image_distance(-np.diag([1.0, 0.3]), np.diag([5.0, 0.2]))
        assert abs(d - 0.2) <= 1e-12
        zs = np.linspace(0.0, 10.0, 100001)
        brute = min(np.linalg.norm(np.diag([5.0, 0.2]) - np.diag([z, 0.0]))
                    for z in zs)
        assert abs(d - brute) <= 1e-6

    def test_nuclear_empty_when_spectral_norm_exceeds_one(self):
        P = NuclearNorm()
        with raises_empty("spectral norm of -g is 1.5 > 1"):
            P.inverse_image(-np.diag([1.5, 0.2]))
        with pytest.raises(InfeasibleTargetError):
            P.inverse_image_distance(-np.diag([1.5, 0.2]), np.eye(2))

    def test_l1_cases(self):
        P = L1(1.0)
        lo, hi = box_bounds(P.inverse_image(np.array([-1.0, 1.0, 0.2])))
        np.testing.assert_allclose(lo, [0.0, -np.inf, 0.0])
        np.testing.assert_allclose(hi, [np.inf, 0.0, 0.0])
        with raises_empty("coordinate 0 has |g_i| > λ"):
            P.inverse_image(np.array([2.0, 0.0, 0.0]))

    def test_orthant_cases(self):
        reg = OrthantIndicator([-1, 1])
        lo, hi = box_bounds(reg.inverse_image(np.array([-1.0, 0.0])))  # -g = (1, 0)
        np.testing.assert_allclose(lo, [0.0, 0.0])
        np.testing.assert_allclose(hi, [0.0, np.inf])
        with raises_empty("coordinate 0: -g_i < 0 not in cone [0, ∞)"):
            reg.inverse_image(np.array([1.0, 0.0]))

    @staticmethod
    def _box_cases(rng, edges, band):
        """Random gradients; gradients on the band around the case edges (so
        the image is nonempty), the same with one coordinate moved just off
        it, and gradients on the band's boundary; NaN entries; and the empty
        vector."""
        cases = [rng.uniform(-1.5, 1.5, 40) for _ in range(10)]
        for _ in range(20):
            g = rng.choice(edges, 40) + rng.uniform(-0.5, 0.5, 40) * band
            off = g.copy()
            off[rng.integers(40)] += rng.choice([-2.0, 2.0]) * band
            on_edge = rng.choice(edges, 40) + rng.choice([-1.0, 1.0], 40) * band
            cases.extend([g, off, on_edge])
        nan = cases[10].copy()
        nan[7] = np.nan
        cases.extend([nan, np.full(5, np.nan), np.array([])])
        return cases

    @staticmethod
    def _assert_matches(reg, g, expected):
        if isinstance(expected, int):
            with pytest.raises(InfeasibleTargetError, match=rf"coordinate {expected}\b"):
                reg.inverse_image(g)
        else:
            lo, hi = box_bounds(reg.inverse_image(g))
            np.testing.assert_array_equal(lo, expected[0])
            np.testing.assert_array_equal(hi, expected[1])

    @pytest.mark.parametrize("lam", [1.0, 0.3, 2.5, 1e-9])
    def test_l1_matches_coordinate_loop(self, lam):
        rng = np.random.default_rng(11)
        P = L1(lam)
        for g in self._box_cases(rng, [lam, -lam, 0.0], 1e-8 * max(1.0, lam)):
            self._assert_matches(P, g, oracles.l1_inverse_image_oracle(g, lam, 1e-8))

    def test_l1_zero_weight_is_whole_space_or_empty(self):
        P = L1(0.0)
        lo, hi = box_bounds(P.inverse_image(np.zeros(3)))
        np.testing.assert_array_equal(lo, np.full(3, -np.inf))
        np.testing.assert_array_equal(hi, np.full(3, np.inf))
        with raises_empty("zero weight but g ≠ 0"):
            P.inverse_image(np.array([0.0, 1e-7, 0.0]))

    def test_orthant_matches_coordinate_loop(self):
        rng = np.random.default_rng(12)
        for g in self._box_cases(rng, [0.0], 1e-8):
            signs = rng.choice([-1, 0, 1], g.size)
            reg = OrthantIndicator(signs)
            self._assert_matches(reg, g, oracles.orthant_inverse_image_oracle(g, signs, 1e-8))
        # every sign in one vector, with a gradient that keeps the image nonempty
        reg = OrthantIndicator([-1, -1, 0, 1, 1])
        g = np.array([-2.0, 0.0, 0.0, 2.0, 0.0])
        self._assert_matches(reg, g, oracles.orthant_inverse_image_oracle(g, reg.signs, 1e-8))

    def test_empty_reason_names_first_offending_coordinate(self):
        with raises_empty("coordinate 1 has |g_i| > λ"):
            L1(1.0).inverse_image(np.array([0.1, 3.0, 5.0]))
        reg = OrthantIndicator([1, 0, -1])
        with raises_empty("coordinate 2: -g_i < 0 not in cone [0, ∞)"):
            reg.inverse_image(np.array([0.0, 0.0, 1.0]))
        with raises_empty("free coordinate 1 needs g_i = 0"):
            reg.inverse_image(np.array([0.0, 1.0, -1.0]))
        with raises_empty("coordinate 0: -g_i > 0 not in cone (−∞, 0]"):
            reg.inverse_image(np.array([-1.0, 0.0, 0.0]))

    def test_ridge_point(self):
        P = Ridge(0.5)
        lo, hi = box_bounds(P.inverse_image(np.array([2.0, -1.0])))
        np.testing.assert_allclose(lo, [-2.0, 1.0])
        np.testing.assert_allclose(hi, [-2.0, 1.0])
        assert abs(P.inverse_image_distance(np.array([2.0, -1.0]),
                                            np.array([-2.0, 0.0])) - 1.0) <= 1e-14


def _nuclear_target(shape, s_bar, seed):
    """G with exactly s_bar singular values of −G equal to 1, the rest in (0, 1)."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((shape[0], shape[0])))
    V, _ = np.linalg.qr(rng.standard_normal((shape[1], shape[1])))
    r = min(shape)
    sigma = np.r_[np.ones(s_bar), np.linspace(0.8, 0.2, r - s_bar)]
    return -(U[:, :r] * sigma) @ V[:, :r].T


#: (regularizer, g, k): each kind of Γ_P(g) with the dimension of its face
FACE_CASES = {
    # coordinates 0 and 4 point up, 1 down, 2 and 3 are interior
    "l1": (L1(0.5), np.array([-0.5, 0.5, 0.1, 0.0, -0.5]), 3),
    "ridge-point": (Ridge(0.3), np.array([0.6, -1.2, 0.0]), 0),
    "zero-weight": (L1(0.0), np.zeros(4), 4),
    # coordinates 3 and 4 are pinned by strictly interior normal-cone members
    "orthant": (OrthantIndicator([-1, 0, 1, 1, -1]), np.array([0.0, 0.0, 0.0, 0.3, -0.2]), 3),
    # blocks: a ray, {0}, free, a ray with g_J = 0 (so {0}), a ray along an axis
    "grouped": (GroupedLasso([[0, 5], [2, 3, 9], [1, 6], [7], [8, 4]],
                             [1.0, 2.0, 0.0, 1e-9, 3.0]),
                np.array([0.6, 0.0, 0.1, 0.2, 0.0, -0.8, 0.0, 0.0, 3.0, 0.3]), 4),
    **{f"nuclear-{shape[0]}x{shape[1]}-s{s_bar}":
       (NuclearNorm(), _nuclear_target(shape, s_bar, 7 * s_bar + shape[0]),
        s_bar * (s_bar + 1) // 2)
       for shape in ((5, 3), (3, 5)) for s_bar in range(4)},
}


def _image_project_oracle(reg, g, x):
    """Nearest point of Γ_P(g) from the oracles' case analysis: a clip onto
    the box [lo, hi], the per-group cases, or the nuclear-norm closed form."""
    if isinstance(reg, NuclearNorm):
        return oracles.nuclear_image_project_oracle(x, g, 1e-8)
    if isinstance(reg, GroupedLasso):
        cases = oracles.grouped_inverse_image_oracle(g, reg.groups, reg.weights, 1e-8)
        return oracles.grouped_image_project_oracle(x, reg.groups, cases)
    if isinstance(reg, OrthantIndicator):
        lo, hi = oracles.orthant_inverse_image_oracle(g, reg.signs, 1e-8)
    elif isinstance(reg, Ridge):
        lo = hi = -g / (2.0 * reg.weight)
    elif reg.weight == 0.0:
        lo, hi = np.full(g.shape, -np.inf), np.full(g.shape, np.inf)
    else:
        lo, hi = oracles.l1_inverse_image_oracle(g, reg.weight, 1e-8)
    return np.clip(x, lo, hi)


class TestFace:
    """Γ_P(g) = {c + T z : z ∈ K}, with T an isometry and its adjoint."""

    @pytest.mark.parametrize("case", FACE_CASES)
    def test_isometry_with_adjoint(self, case):
        reg, g, k = FACE_CASES[case]
        image = reg.inverse_image(g)
        assert image.k == k
        assert image.c.shape == g.shape
        rng = np.random.default_rng(1)
        for _ in range(5):
            z = rng.standard_normal(k)
            x = rng.standard_normal(g.shape)
            np.testing.assert_allclose(image.T_adj(image.T(z)), z, rtol=0, atol=1e-14)
            assert abs(np.sum(image.T(z) * x) - z @ image.T_adj(x)) <= 1e-13

    @pytest.mark.parametrize("case", FACE_CASES)
    def test_projection_through_the_face(self, case):
        reg, g, _ = FACE_CASES[case]
        image = reg.inverse_image(g)
        rng = np.random.default_rng(2)
        for scale in (0.1, 1.0, 10.0):
            x = scale * rng.standard_normal(g.shape)
            np.testing.assert_allclose(image.project(x), _image_project_oracle(reg, g, x),
                                       rtol=0, atol=1e-12 * max(1.0, norm(x)))


def _graph_members(reg, rng, count):
    if isinstance(reg, L1):
        return [oracles.l1_graph_member(rng, 5, reg.weight) for _ in range(count)]
    if isinstance(reg, Ridge):
        return [oracles.ridge_graph_member(rng, 5, reg.weight) for _ in range(count)]
    if isinstance(reg, GroupedLasso):
        return [oracles.grouped_graph_member(rng, reg.groups, reg.weights)
                for _ in range(count)]
    if isinstance(reg, NuclearNorm):
        return [oracles.nuclear_graph_member(rng, 4, 3, rng.integers(1, 3))
                for _ in range(count)]
    return [oracles.orthant_graph_member(rng, reg.signs) for _ in range(count)]


ALL_REGS = [L1(0.8), Ridge(0.6), GroupedLasso([[0, 1], [2, 3, 4]], [1.0, 1.5]),
            NuclearNorm(), OrthantIndicator([-1, 1, 0, 1, -1])]


class TestGraphConsistency:
    @pytest.mark.parametrize("reg", ALL_REGS, ids=lambda r: type(r).__name__)
    def test_members_have_zero_distances(self, reg):
        rng = np.random.default_rng(4)
        for x, s in _graph_members(reg, rng, 40):
            assert reg.subdiff_distance(x, s) <= 1e-9
            assert reg.inverse_image_distance(-s, x) <= 1e-8

    @pytest.mark.parametrize("reg", ALL_REGS, ids=lambda r: type(r).__name__)
    def test_fixed_point_of_prox(self, reg):
        # −g ∈ ∂P(x) implies prox_P(x − g) = x
        rng = np.random.default_rng(5)
        for x, s in _graph_members(reg, rng, 40):
            assert norm(reg.prox(x + s) - x) <= 1e-9

    def test_perturbed_pairs_have_positive_distances(self):
        reg = GroupedLasso([[0, 1, 2]], [1.0])
        rng = np.random.default_rng(6)
        for _ in range(20):
            x, s = oracles.grouped_graph_member(rng, reg.groups, reg.weights)
            shrunk = 0.9 * s  # strictly inside the dual ball
            if norm(x) == 0.0:
                continue
            assert reg.subdiff_distance(x, shrunk) > 1e-3
            assert reg.inverse_image_distance(-shrunk, x) > 1e-3


class TestMetricSubRegularityEmpirics:
    def test_two_norm_ray_case(self):
        # subdifferential of ‖·‖₂ at x₀ ≠ 0: fitted constant stays below the
        # analytic bound ‖x₀‖ + ε on a ball of radius ε
        reg = GroupedLasso([[0, 1, 2]], [1.0])
        rng = np.random.default_rng(7)
        x0 = np.array([1.2, -0.5, 0.3])
        s0 = x0 / np.linalg.norm(x0)
        eps = 0.5
        bound = np.linalg.norm(x0) + eps
        worst = 0.0
        for _ in range(10**3):
            u = rng.standard_normal(3)
            x = x0 + eps * rng.random() * u / np.linalg.norm(u)
            lhs = reg.inverse_image_distance(-s0, x)
            rhs = reg.subdiff_distance(x, s0)
            if rhs > 1e-14:
                worst = max(worst, lhs / rhs)
        print(f"two-norm ray case: max ratio {worst:.4f} (analytic cap {bound:.4f})")
        assert worst <= bound + 1e-9

    def test_two_norm_interior_case(self):
        reg = GroupedLasso([[0, 1]], [1.0])
        rng = np.random.default_rng(8)
        s0 = np.array([0.3, 0.2])  # ‖s₀‖ < 1, so x₀ = 0
        gap = 1.0 - np.linalg.norm(s0)
        eps = 0.4
        worst = 0.0
        for _ in range(10**3):
            u = rng.standard_normal(2)
            x = eps * rng.random() * u / np.linalg.norm(u)
            lhs = reg.inverse_image_distance(-s0, x)
            rhs = reg.subdiff_distance(x, s0)
            if rhs > 1e-14:
                worst = max(worst, lhs / rhs)
        print(f"two-norm interior case: max ratio {worst:.4f} (cap {eps / gap:.4f})")
        assert worst <= eps / gap + 1e-9

    def test_nuclear_inverse_image_distance_bounded_by_argument_gap(self):
        # pairs (X, −G) on the graph near (X₀, −G₀): the distance to the
        # inverse image at −G₀ is controlled by ‖G − G₀‖ (reported ratio)
        P = NuclearNorm()
        rng = np.random.default_rng(9)
        G0 = -np.eye(2)  # Γ_P(G₀) is the PSD cone
        worst = 0.0
        for _ in range(10**3):
            X = np.diag([1.0, 0.0]) + 0.2 * rng.standard_normal((2, 2))
            U, s, Vt = np.linalg.svd(X)
            r = int(np.sum(s > 1e-9))
            W = rng.standard_normal((2 - r, 2 - r))
            if W.size:
                W *= rng.uniform(0.0, 1.0) / max(np.linalg.norm(W, 2), 1e-12)
            core = np.eye(2)
            core[r:, r:] = W
            G = -(U @ core @ Vt)
            lhs = P.inverse_image_distance(G0, X)
            gap = np.linalg.norm(G - G0)
            if gap > 1e-12:
                worst = max(worst, lhs / gap)
        print(f"nuclear inverse-image calmness: max ratio {worst:.4f}")
        assert np.isfinite(worst) and worst <= 100.0


class TestRotationInvariance:
    def test_equal_singular_value_block_rotation(self):
        # Γ_P(G) for −G = I₂ is basis independent: any orthogonal (Q, Q)
        # is a valid SVD pair and must give the same distance
        P = NuclearNorm()
        rng = np.random.default_rng(10)
        base = P.inverse_image(-np.eye(2))
        theta = 0.7
        Q = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        rotated = NuclearImage(U=Q, V=Q)
        for _ in range(50):
            x = rng.standard_normal((2, 2))
            assert abs(base.distance(x) - rotated.distance(x)) <= 1e-10

    def test_permuted_svd_inside_unit_block(self):
        P = NuclearNorm()
        G = -np.diag([1.0, 1.0, 0.3])
        base = P.inverse_image(G)
        perm = np.eye(2)[:, [1, 0]]  # swap the two unit singular directions
        rotated = NuclearImage(U=base.U @ perm, V=base.V @ perm)
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.standard_normal((3, 3))
            assert abs(base.distance(x) - rotated.distance(x)) <= 1e-10

    @pytest.mark.parametrize("shape", [(5, 3), (3, 5), (4, 4)])
    def test_paired_sign_flips_leave_projection_unchanged(self, shape):
        # the singular vectors are LAPACK's, signs included; flipping a
        # column of Ū₁ with its partner in V̄₁ must not move the projection
        rng = np.random.default_rng(14)
        m, n = shape
        U, _, Vt = np.linalg.svd(rng.standard_normal(shape))
        sigma = np.array([1.0, 1.0, 0.6][:min(m, n)])
        G = -(U[:, :sigma.size] * sigma) @ Vt[:sigma.size]
        base = NuclearNorm().inverse_image(G)
        assert base.s_bar == 2
        for _ in range(20):
            D = rng.choice([-1.0, 1.0], base.s_bar)
            flipped = NuclearImage(U=base.U * D, V=base.V * D)
            x = rng.standard_normal(shape)
            np.testing.assert_allclose(flipped.project(x), base.project(x),
                                       rtol=0, atol=1e-12)


class TestMoreauAndNonexpansive:
    def test_moreau_identities(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            z = rng.uniform(-3, 3, 5)
            lam = 0.8
            dual = np.clip(z, -lam, lam)
            assert norm(L1(lam).prox(z) + dual - z) <= 1e-9

            reg = GroupedLasso([[0, 1], [2, 3, 4]], [1.0, 1.5])
            dual = np.zeros(5)
            for J, w in zip(reg.groups, reg.weights):
                zj = z[J]
                nz = np.linalg.norm(zj)
                dual[J] = zj if nz <= w else w * zj / nz
            assert norm(reg.prox(z) + dual - z) <= 1e-9

            Z = rng.standard_normal((4, 3))
            U, s, Vt = np.linalg.svd(Z, full_matrices=False)
            dual = U @ np.diag(np.minimum(s, 1.0)) @ Vt
            assert norm(NuclearNorm().prox(Z) + dual - Z) <= 1e-9

    @pytest.mark.parametrize("reg", ALL_REGS, ids=lambda r: type(r).__name__)
    def test_nonexpansive(self, reg):
        rng = np.random.default_rng(13)
        shape = (4, 3) if reg.expects_matrix else (5,)
        for _ in range(50):
            z1 = rng.standard_normal(shape)
            z2 = rng.standard_normal(shape)
            assert norm(reg.prox(z1) - reg.prox(z2)) <= norm(z1 - z2) + 1e-10


def _stack_points(reg, rng):
    """Six points of reg's kind: generic ones, and ones with zero
    coordinates, blocks and rank, so every branch runs in one stack."""
    if isinstance(reg, NuclearNorm):
        U = rng.standard_normal((6, 4, 2))
        low = U @ rng.standard_normal((6, 2, 3))
        return np.concatenate([rng.standard_normal((3, 4, 3)), low[:2], np.zeros((1, 4, 3))])
    x = rng.standard_normal((6, 5))
    x[2, [0, 3]] = 0.0
    x[3, :2] = 0.0
    x[4] = 0.0
    if isinstance(reg, OrthantIndicator):
        x[:3] = np.abs(x[:3]) * np.where(reg.signs < 0, -1.0, 1.0)  # inside C
    return x


def _reference_value(reg, x):
    """P(x) as a one-point loop of plain numpy forms it."""
    if isinstance(reg, L1):
        return reg.weight * float(np.abs(x).sum())
    if isinstance(reg, Ridge):
        return reg.weight * float(np.sum(x ** 2))
    if isinstance(reg, GroupedLasso):
        group_of = np.zeros(x.size, dtype=int)
        for j, J in enumerate(reg.groups):
            group_of[J] = j
        return float(np.array(reg.weights) @ np.sqrt(np.bincount(group_of, weights=x * x)))
    if isinstance(reg, NuclearNorm):
        return float(np.linalg.svd(x, compute_uv=False).sum())
    return 0.0 if np.all(x * reg.signs >= 0) else np.inf


def _reference_subdiff_distance(reg, x, s):
    """d(s, ∂P(x)) with each sum over its own entries, in their order."""
    if isinstance(reg, L1):
        a = x != 0
        return float(np.sqrt(np.sum((s[a] - reg.weight * np.sign(x[a])) ** 2)
                             + np.sum(np.maximum(np.abs(s[~a]) - reg.weight, 0.0) ** 2)))
    if isinstance(reg, Ridge):
        return norm(s - 2.0 * reg.weight * x)
    if isinstance(reg, GroupedLasso):
        out = np.zeros(len(reg.groups))
        for j, (J, w) in enumerate(zip(reg.groups, reg.weights)):
            nx = np.sqrt(np.bincount(np.zeros(J.size, dtype=int), weights=x[J] * x[J])[0])
            r = s[J] - (w / nx if nx > 0 else 0.0) * x[J]
            r_sq = np.bincount(np.zeros(J.size, dtype=int), weights=r * r)[0]
            out[j] = r_sq if nx > 0 else max(np.sqrt(r_sq) - w, 0.0) ** 2
        return float(np.sqrt(np.sum(out)))
    if isinstance(reg, NuclearNorm):
        U, sigma, Vt = np.linalg.svd(x)
        r = int(np.sum(sigma > 1e-8 * max(1.0, sigma[0])))
        S = U.T @ s @ Vt.T
        d = float(np.sum((S[:r, :r] - np.eye(r)) ** 2))
        d += float(np.sum(S[:r, r:] ** 2)) + float(np.sum(S[r:, :r] ** 2))
        if min(S[r:, r:].shape) > 0:
            sv = np.linalg.svd(S[r:, r:], compute_uv=False)
            d += float(np.sum(np.maximum(sv - 1.0, 0.0) ** 2))
        return float(np.sqrt(d))
    if not np.all(x * reg.signs >= 0):
        return np.inf
    face = x == 0.0
    r = s - np.clip(s, np.where(face & (reg.signs > 0), -np.inf, 0.0),
                    np.where(face & (reg.signs < 0), np.inf, 0.0))
    return float(np.sqrt(np.sum(r * r)))


class TestStacks:
    """value, prox_diff and subdiff_distance with stack=True give each
    point's figure bit for bit, and the images map stacks point by point."""

    @pytest.mark.parametrize("reg", ALL_REGS, ids=lambda r: type(r).__name__)
    def test_each_point_as_its_own_call(self, reg):
        rng = np.random.default_rng(3)
        x = _stack_points(reg, rng)
        g, s = rng.standard_normal(x.shape), rng.standard_normal(x.shape)
        assert list(reg.value(x, stack=True)) == [_reference_value(reg, xi) for xi in x]
        stacked = reg.prox_diff(x, g, stack=True)
        for xi, gi, ri in zip(x, g, stacked):
            assert np.array_equal(ri, reg.prox_diff(xi, gi))

        def one(xi, si):
            try:
                d = reg.subdiff_distance(xi, si)
            except DomainError:
                d = np.inf
            assert d == _reference_subdiff_distance(reg, xi, si)
            return d
        assert list(reg.subdiff_distance(x, s, stack=True)) == [
            one(xi, si) for xi, si in zip(x, s)]
        # one s shared by every point
        assert list(reg.subdiff_distance(x, s[0], stack=True)) == [one(xi, s[0]) for xi in x]

    def test_l1_sums_each_points_own_coordinates(self):
        # rows of 300 coordinates, some zero: each row is its own call, bit
        # for bit, and that call sums the nonzero and the zero coordinates in
        # one pass, so it meets the oracle, which sums them apart, to rounding
        reg, rng = L1(0.3), np.random.default_rng(6)
        x = rng.standard_normal((5, 300)) * (rng.random((5, 300)) < [[0.0], [0.3], [0.7], [1.0],
                                                                     [0.5]])
        s = rng.standard_normal(x.shape)
        for xi, si, d in zip(x, s, reg.subdiff_distance(x, s, stack=True)):
            assert d == reg.subdiff_distance(xi, si)
            np.testing.assert_allclose(d, _reference_subdiff_distance(reg, xi, si), rtol=1e-14)

    @pytest.mark.parametrize("reg", ALL_REGS, ids=lambda r: type(r).__name__)
    def test_a_stack_is_asked_for(self, reg):
        # a bare point is one point; a stack of the wrong kind is refused
        x = _stack_points(reg, np.random.default_rng(4))
        assert isinstance(reg.value(x[0]), float)
        with pytest.raises(InvalidInputError, match="stacked along a leading axis"):
            reg.value(x[0], stack=True)
        with pytest.raises(InvalidInputError):
            reg.subdiff_distance(x, x[:2], stack=True)

    @pytest.mark.parametrize("case", FACE_CASES)
    def test_images_map_stacks_point_by_point(self, case):
        reg, g, k = FACE_CASES[case]
        image = reg.inverse_image(g)
        rng = np.random.default_rng(5)
        z, x = rng.standard_normal((4, k)), rng.standard_normal((4, *g.shape))
        for stacked, one, points in ((image.T, image.T, z), (image.T_adj, image.T_adj, x),
                                     (image.project_K, image.project_K, z)):
            got = stacked(points)
            assert got.shape[0] == 4
            for row, point in zip(got, points):
                assert np.array_equal(row, one(point))
