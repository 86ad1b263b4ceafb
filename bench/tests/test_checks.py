"""Each correctness check accepts the program's real output and rejects a
deliberately wrong one, so none of them is vacuous."""

from pathlib import Path

import numpy as np
import pytest

import checks
import ebound
import workloads
from checks import CheckFailed


@pytest.fixture(scope="module")
def sparse():
    out = {}
    for inst in (workloads.lasso(3, 20, 50), workloads.grouped(3, 20, 50, 5)):
        trace = ebound.proximal_gradient(inst.prob, inst.x0, step=ebound.Backtracking(),
                                         tol=workloads.SOLVE_TOL)
        cert = ebound.certify(inst.prob, trace.terminal, workloads.SPARSE_CERT_TOL)
        samples = ebound.probe(inst.prob, cert, workloads.PROBE_RADII,
                               ebound.RandomDirections(2, 5))
        out[inst.data.groups is None] = (inst, trace, cert, samples)
    return out


@pytest.fixture(scope="module")
def nuclear():
    inst = workloads.completion(0)
    trace = ebound.proximal_gradient(inst.prob, inst.x0, step=ebound.Fixed(1.0),
                                     tol=workloads.SOLVE_TOL, max_iter=workloads.MAX_ITER)
    cert = ebound.certify(inst.prob, trace.terminal, workloads.NUCLEAR_CERT_TOL)
    samples = ebound.probe(inst.prob, cert, workloads.SHORT_RADII,
                           ebound.RandomDirections(2, 5))
    return inst, trace, cert, samples


@pytest.mark.parametrize("l1", [True, False])
def test_sparse_kkt_rejects_a_moved_terminal_point(sparse, l1):
    inst, trace, _, _ = sparse[l1]
    x = trace.terminal
    workloads.check_solution(inst, trace)
    support = np.flatnonzero(x)
    for j in (support[0], np.flatnonzero(x == 0)[0]):
        moved = x.copy()
        moved[j] += 1e-6
        with pytest.raises(CheckFailed):
            checks.check_sparse_kkt(inst.data, moved)


def test_solution_check_rejects_an_unconverged_trace(sparse):
    inst, trace, _, _ = sparse[True]
    stopped = ebound.SolveTrace(trace.iterations, trace.terminal, "iteration_limit")
    with pytest.raises(CheckFailed, match="status"):
        workloads.check_solution(inst, stopped)


def test_nuclear_kkt_rejects_a_scaled_terminal_point(nuclear):
    inst, trace, _, _ = nuclear
    workloads.check_solution(inst, trace)
    with pytest.raises(CheckFailed):
        checks.check_nuclear_kkt(inst.data, 1.001 * trace.terminal)


def test_complementarity_rejects_wrong_counts(nuclear):
    inst, _, cert, _ = nuclear
    g = inst.data.gradient(cert.x_star)
    report = ebound.strict_complementarity(inst.prob, cert)
    checks.check_complementarity(report.s_bar, report.rank_x, inst.data, cert.x_star, g)
    with pytest.raises(CheckFailed):
        checks.check_complementarity(report.s_bar + 1, report.rank_x, inst.data,
                                     cert.x_star, g)


def _sample_bounds(data, x_star, s):
    return (data.affine_distance(data.image(x_star), s.x),
            data.gamma_distance(data.gradient(x_star), s.x),
            float(np.linalg.norm(s.x - x_star)))


@pytest.mark.parametrize("scale", [1.01, 0.99])
@pytest.mark.parametrize("kind", ["l1", "grouped", "nuclear"])
def test_distance_bracket_rejects_a_scaled_distance(sparse, nuclear, kind, scale):
    inst, _, cert, samples = {"l1": sparse[True], "grouped": sparse[False],
                              "nuclear": nuclear}[kind]
    workloads.check_samples(inst.data, cert.x_star, samples, len(samples), True)
    s = samples[0]
    bounds = _sample_bounds(inst.data, cert.x_star, s)
    checks.check_distance(s.d, *bounds)
    with pytest.raises(CheckFailed):
        checks.check_distance(scale * s.d, *bounds)


@pytest.mark.parametrize("kind", ["l1", "grouped", "nuclear"])
def test_residual_check_rejects_a_scaled_residual(sparse, nuclear, kind):
    inst, _, _, samples = {"l1": sparse[True], "grouped": sparse[False],
                           "nuclear": nuclear}[kind]
    s = samples[-1]
    checks.check_residual(s.r_prox, inst.data, s.x)
    with pytest.raises(CheckFailed):
        checks.check_residual(1.01 * s.r_prox, inst.data, s.x)


def test_slope_check_rejects_a_quadratic_curve():
    d = np.logspace(-2, -4, 9)
    checks.check_slope(d, 0.7 * d)
    with pytest.raises(CheckFailed, match="slope"):
        checks.check_slope(d, d**2)


def test_sample_check_rejects_a_missing_sample(sparse):
    inst, _, cert, samples = sparse[True]
    with pytest.raises(CheckFailed, match="expected"):
        workloads.check_samples(inst.data, cert.x_star, samples[1:], len(samples), False)


def test_cli_check_rejects_failed_runs():
    checks.check_cli_pass(0, "PASS certified: ok\noverall: PASS\n")
    with pytest.raises(CheckFailed):
        checks.check_cli_pass(1, "FAIL x: y\noverall: FAIL\n")
    with pytest.raises(CheckFailed):
        checks.check_cli_pass(0, "PASS x: y\noverall: FAIL\n")


def test_tree_check_rejects_a_changed_byte_or_a_missing_file(tmp_path: Path):
    for side in ("a", "b"):
        (tmp_path / side / "lasso").mkdir(parents=True)
        (tmp_path / side / "lasso" / "fit.json").write_text("{}\n")
    checks.check_identical_trees(tmp_path / "a", tmp_path / "b")
    (tmp_path / "b" / "lasso" / "fit.json").write_text("{ }\n")
    with pytest.raises(CheckFailed, match="differs"):
        checks.check_identical_trees(tmp_path / "a", tmp_path / "b")
    (tmp_path / "b" / "lasso" / "fit.json").unlink()
    with pytest.raises(CheckFailed, match="file lists"):
        checks.check_identical_trees(tmp_path / "a", tmp_path / "b")
