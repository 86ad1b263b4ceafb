import numpy as np
import pytest

from ebound import regularizers, space
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
from ebound.errors import (EmptyProbeError, InfeasibleTargetError, InsufficientDataError,
                           InvalidInputError)
from ebound.experiments import (
    counterexample_curve_point,
    counterexample_instance,
    grouped_lasso_instance,
    noncompact_instance,
    noncompact_ray_distance,
    nuclear_regular_instance,
    ridge_instance,
)
from ebound.losses import CompositeSmooth, GeneralQuadratic, LeastSquares
from ebound.problem import ProblemInstance, certify
from ebound.regularizers import L1, GroupedLasso, NuclearNorm, OrthantIndicator, Ridge
from ebound.solver import Fixed, lipschitz_bound, proximal_gradient
from ebound.space import CoordinateSelectMap, DenseMap, norm


def certified_counterexample():
    prob, x_bar = counterexample_instance()
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

    @pytest.mark.parametrize("radii, directions", [([], RandomDirections(3, seed=0)),
                                                   ([1e-2], RandomDirections(0, seed=0))],
                             ids=["no-radii", "no-directions"])
    def test_no_points_is_invalid_input(self, radii, directions):
        # nothing was rejected, so this is not an EmptyProbeError
        prob, cert = certified_ridge(0)
        with pytest.raises(InvalidInputError, match="no points"):
            probe(prob, cert, radii, directions)


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
        prob, x_star = nuclear_regular_instance()
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
        prob, _ = counterexample_instance()
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
            prob, x_star = nuclear_regular_instance()
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
        prob, _ = counterexample_instance()
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
        prob, x_star = nuclear_regular_instance()
        summary = regularity_summary(prob, certify(prob, x_star, tol=1e-10))
        assert summary.condition == NUCLEAR_WITH_SC and summary.eb_expected

    def test_noncompact_unverified(self):
        prob = noncompact_instance()
        cert = certify(prob, np.array([-1.0, 0.0]), tol=1e-12)
        summary = regularity_summary(prob, cert)
        assert summary.condition == UNVERIFIED and not summary.eb_expected
