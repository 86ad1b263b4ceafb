"""Every census verdict matches the checked-in census: tools/verdict_census.json
holds, for each run of `tools/registry_matrix.py census` (the random suites
at seeds 0-49 and three runs at a loose solver tolerance), the exit code,
each assertion's pass or fail, and the error class of a run that raises.
The failures it records are today's; a change that mends one regenerates
the file with `PYTHONPATH=src python3 tools/registry_matrix.py census`."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "registry_matrix.py"
_spec = importlib.util.spec_from_file_location("registry_matrix", TOOL)
registry_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(registry_matrix)


def _verdicts(record: dict) -> dict:
    """A run's exit code, error class and each assertion's verdict, by name."""
    return {"exit": record.get("exit"), "error": record.get("error"),
            **{f"assertion {name}": passed
               for name, passed in record.get("assertions", {}).items()}}


def moved(recorded: dict, got: dict) -> list:
    """'case: what was -> what is' for every verdict that moved, appeared or
    went."""
    out = []
    for case in sorted(recorded.keys() | got.keys()):
        want, have = _verdicts(recorded.get(case, {})), _verdicts(got.get(case, {}))
        out.extend(f"{case}: {key} {want.get(key)} -> {have.get(key)}"
                   for key in sorted(want.keys() | have.keys())
                   if want.get(key) != have.get(key))
    return out


def test_census_verdicts_match_the_recorded_census():
    recorded = json.loads(registry_matrix.CENSUS.read_text())
    changed = moved(recorded, registry_matrix.census())
    assert not changed, (f"{len(changed)} verdicts differ from "
                         f"{registry_matrix.CENSUS.name}: {'; '.join(changed)}")


def test_moved_names_each_changed_new_and_missing_verdict():
    recorded = {"lasso-seed4": {"exit": 1, "assertions": {"certified": True, "fit": False}},
                "gone": {"exit": 1, "error": "InfeasibleTargetError"}}
    got = {"lasso-seed4": {"exit": 0, "assertions": {"certified": True, "fit": True}},
           "new": {"exit": 0, "assertions": {}}}
    assert moved(recorded, got) == [
        "gone: error InfeasibleTargetError -> None", "gone: exit 1 -> None",
        "lasso-seed4: assertion fit False -> True", "lasso-seed4: exit 1 -> 0",
        "new: exit None -> 0"]
    assert moved(recorded, recorded) == []


def test_census_command_writes_what_census_returns(tmp_path, monkeypatch, capsys):
    # two runs keep this fast; the test above runs all of them
    runs = registry_matrix.census_runs()
    monkeypatch.setattr(registry_matrix, "census_runs", lambda: [runs[0], runs[-1]])
    monkeypatch.setattr(registry_matrix, "CENSUS", tmp_path / "census.json")
    assert registry_matrix.main(["census"]) == 0
    written = json.loads((tmp_path / "census.json").read_text())
    assert written == registry_matrix.census()
    assert list(written) == ["lasso-seed0", "custom-minimal-tol1e-6"]
    assert written["custom-minimal-tol1e-6"] == {"exit": 1, "error": "InfeasibleTargetError"}
    assert "(2 runs)" in capsys.readouterr().out


def test_usage_names_census(capsys):
    assert registry_matrix.main(["bogus"]) == 2
    assert "registry_matrix.py census" in capsys.readouterr().err
