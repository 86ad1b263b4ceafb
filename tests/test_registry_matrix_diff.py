import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "registry_matrix_diff.py"
_spec = importlib.util.spec_from_file_location("registry_matrix_diff", TOOL)
registry_matrix_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(registry_matrix_diff)

SAMPLES = ("radius,direction_id,d,r_prox,r_alt,F_val\n"
           "0.01,0,0.0099999999999999985,0.0123,nan,1.5\n"
           "0.001,1,0.001,1.25e-06,inf,1.5\n")
SUMMARY = "experiment: lasso\nregularity: polyhedral\nPASS slope_near_one: slope 1.0001\noverall: PASS\n"


def write_tree(root: Path, files: dict) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def tree(**changes):
    files = {"lasso/exit": "0\n", "lasso/stdout": SUMMARY,
             "lasso/reports/lasso/samples.csv": SAMPLES,
             "lasso/reports/lasso/summary.txt": SUMMARY, "list/stdout": "counterexample\nlasso\n"}
    files.update(changes)
    return {k: v for k, v in files.items() if v is not None}


def diff(tmp_path, changed, *flags):
    parent = write_tree(tmp_path / "parent", tree())
    change = write_tree(tmp_path / "change", tree(**changed))
    return registry_matrix_diff.main([str(parent), str(change), *flags])


def report(capsys):
    """(the per-file lines by path, the MISMATCH lines) of the tool's output."""
    out = capsys.readouterr().out.splitlines()
    mismatches = [line for line in out if line.startswith("MISMATCH")]
    return {line.split()[1]: line for line in out if line not in mismatches}, mismatches


def test_identical_trees_match_with_zero_differences(tmp_path, capsys):
    assert diff(tmp_path, {}) == 0
    lines, mismatches = report(capsys)
    assert mismatches == []
    # every file but the exit codes gets a line; NaN and inf equal themselves
    assert set(lines) == {"lasso/stdout", "lasso/reports/lasso/samples.csv",
                          "lasso/reports/lasso/summary.txt", "list/stdout"}
    assert all(line.startswith("0  ") for line in lines.values())


def test_numbers_within_rtol_pass_and_the_largest_difference_is_printed(tmp_path, capsys):
    changed = {"lasso/reports/lasso/samples.csv": SAMPLES.replace("0.0123", "0.0123000000001")}
    assert diff(tmp_path, changed, "--rtol", "1e-9") == 0
    lines, mismatches = report(capsys)
    assert mismatches == []
    line = lines["lasso/reports/lasso/samples.csv"]
    assert line.startswith("8.13e-12  ")
    assert "  d=0  " in line and "r_prox=8.13e-12" in line

    assert diff(tmp_path, changed) == 1
    _, mismatches = report(capsys)
    assert len(mismatches) == 1 and "samples.csv:2 r_prox" in mismatches[0]


def test_a_number_beyond_rtol_fails(tmp_path, capsys):
    changed = {"lasso/stdout": SUMMARY.replace("slope 1.0001", "slope 1.0002")}
    assert diff(tmp_path, changed, "--rtol", "1e-9") == 1
    _, mismatches = report(capsys)
    assert mismatches == ["MISMATCH lasso/stdout:3: 1.0001 vs 1.0002 "
                          "(relative difference 0.0001)"]


@pytest.mark.parametrize("changed", [
    {"lasso/stdout": SUMMARY.replace("overall: PASS", "overall: FAIL")},
    {"lasso/reports/lasso/summary.txt": SUMMARY.replace("polyhedral", "unverified")},
    {"lasso/reports/lasso/samples.csv": SAMPLES.replace("nan", "0.5")},
    {"lasso/exit": "1\n"},
    {"lasso/reports/lasso/samples.csv": None},
    {"lasso/stderr": "ConvergenceError: Dykstra did not reach the intersection\n"},
    {"list/stdout": "counterexample\nlasso"},
], ids=["overall", "regularity", "nan-vs-number", "exit-code", "missing-file", "extra-file",
        "trailing-newline"])
def test_any_other_difference_fails_whatever_the_rtol(tmp_path, capsys, changed):
    assert diff(tmp_path, changed, "--rtol", "1") == 1
    _, mismatches = report(capsys)
    assert mismatches


def test_a_missing_tree_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        registry_matrix_diff.main([str(tmp_path / "none"), str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("rtol", ["nan", "inf", "-1"])
def test_an_rtol_that_is_not_a_finite_number_at_least_zero_is_a_usage_error(
        tmp_path, capsys, rtol):
    # nan and inf let 1.0 against 2.0 pass; -1 failed equal numbers too
    parent = write_tree(tmp_path / "parent", {"fit.json": "1.0\n"})
    change = write_tree(tmp_path / "change", {"fit.json": "2.0\n"})
    with pytest.raises(SystemExit) as exc:
        registry_matrix_diff.main([str(parent), str(change), "--rtol", rtol])
    assert exc.value.code == 2
    assert "--rtol must be a finite number >= 0" in capsys.readouterr().err
