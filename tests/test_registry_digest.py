"""Every output of the registry matrix is byte-identical to the checked-in
digest: tools/registry_matrix_digest.json holds the sha256 of the exit code,
stdout, stderr and every report file of each command that
`tools/registry_matrix.py tree` writes, and this test runs the same commands
in-process.  A change that means to alter an output regenerates the digest
with `PYTHONPATH=src python3 tools/registry_matrix.py digest`."""

import hashlib
import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "registry_matrix.py"
_spec = importlib.util.spec_from_file_location("registry_matrix", TOOL)
registry_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(registry_matrix)


def differences(recorded: dict, got: dict) -> list:
    """'case/file' for every output that is missing, new or different."""
    out = []
    for case in sorted(recorded.keys() | got.keys()):
        want, have = recorded.get(case, {}), got.get(case, {})
        out.extend(f"{case}/{name}" for name in sorted(want.keys() | have.keys())
                   if want.get(name) != have.get(name))
    return out


def test_registry_outputs_match_the_recorded_digest(tmp_path):
    # output bytes depend on the numpy/BLAS build, so a digest made on
    # another build fails, naming it, rather than skipping
    recorded = json.loads(registry_matrix.DIGEST.read_text())
    here = registry_matrix.environment()
    build = (f"recorded with numpy {recorded['numpy']}, BLAS {recorded['blas']} "
             f"({recorded['platform']}); this run has numpy {here['numpy']}, "
             f"BLAS {here['blas']} ({here['platform']})")
    differ = differences(recorded["cases"], registry_matrix.run_in_process(tmp_path))
    assert not differ, (f"{len(differ)} registry outputs differ from "
                        f"{registry_matrix.DIGEST.name}: {', '.join(differ)}; {build}")
    assert (recorded["numpy"], recorded["blas"]) == (here["numpy"], here["blas"]), (
        f"{registry_matrix.DIGEST.name} was {build}: regenerate it on this build")


def test_differences_names_each_changed_missing_and_new_output():
    recorded = {"lasso": {"exit": "a", "stdout": "b", "reports/fit.json": "c"}, "list": {"exit": "a"}}
    got = {"lasso": {"exit": "a", "stdout": "B", "reports/new.csv": "d"}, "extra": {"exit": "a"}}
    assert differences(recorded, got) == ["extra/exit", "lasso/reports/fit.json",
                                          "lasso/reports/new.csv", "lasso/stdout", "list/exit"]
    assert differences(recorded, recorded) == []


def test_tree_writes_the_files_whose_digests_run_in_process_reports(tmp_path, monkeypatch,
                                                                      capsys):
    # two commands keep this fast; the digest test above runs all of them
    two = registry_matrix.commands(["lasso"])[:1] + registry_matrix.commands([])[:1]
    monkeypatch.setattr(registry_matrix, "commands", lambda names: two)
    assert registry_matrix.main(["tree", str(tmp_path / "tree")]) == 0
    written = {case.name: {path.relative_to(case).as_posix():
                           hashlib.sha256(path.read_bytes()).hexdigest()
                           for path in case.rglob("*") if path.is_file()}
               for case in (tmp_path / "tree").iterdir()}
    assert written == registry_matrix.run_in_process(tmp_path / "again")
    assert sorted(written) == ["lasso", "list", "noncompact-ray"]
    assert any(name.startswith("reports/") for name in written["lasso"])
    printed = capsys.readouterr().out
    assert printed == (f"wrote {tmp_path / 'tree'} (3 commands, "
                       f"ebound from {registry_matrix.checkout()})\n")
    assert Path(registry_matrix.checkout(), "src", "ebound", "__init__.py").is_file()


def test_usage_names_tree_and_digest(capsys):
    assert registry_matrix.main(["commands"]) == 2
    usage = capsys.readouterr().err
    assert "registry_matrix.py tree OUT" in usage and "registry_matrix.py digest" in usage


def test_commands_cover_every_listed_experiment_and_config():
    cases = dict(registry_matrix.commands(["lasso", "custom"]))
    assert cases["lasso"] == ["run", "lasso"]
    assert cases["lasso-seed2"] == ["run", "lasso", "--seed", "2"]
    assert not any(case.startswith("custom-seed") or case == "custom" for case in cases)
    configs = sorted(registry_matrix.CONFIGS.glob("*.json"))
    assert len(cases) == 4 + 1 + 4 * len(configs)
    assert cases[f"custom-{configs[0].stem}-seed1"][-2:] == ["--seed", "1"]


def built_instances():
    """(case, ProblemInstance) for every registry command and census run
    that builds an instance, built as run_experiment builds it; a seeded
    run of an experiment that reads no seed builds none."""
    from ebound.errors import ConfigError
    from ebound.experiments import SCENARIOS, validated_problem

    def option(argv, flag):
        return argv[argv.index(flag) + 1] if flag in argv else None

    runs = []
    for case, argv in registry_matrix.commands(list(SCENARIOS)):
        path, seed = option(argv, "--config"), option(argv, "--seed")
        runs.append((case, argv[1], json.loads(Path(path).read_text()) if path else {},
                     None if seed is None else int(seed)))
    runs += registry_matrix.census_runs()
    for case, name, config, seed in runs:
        config = {"experiment": name, **(config or {})}
        if seed is not None:
            config["seed"] = seed
        try:
            custom = validated_problem(config)
        except ConfigError:
            continue
        yield case, custom or SCENARIOS[name].build(config)


def test_every_registry_and_census_map_has_one_row_panel():
    # every map takes the same at_each body; on more than one row panel,
    # ∇f is a sum over the panels, which rounds differently from the
    # product with the map whole: no report may depend on that rounding
    built = dict(built_instances())
    assert len(built) > 150 and "custom-minimal-tol1e-6" in built
    panels = {case: len(prob.smooth.A.row_panels) for case, prob in built.items()}
    assert {case: n for case, n in panels.items() if n > 1} == {}
    assert sum(n == 1 for n in panels.values()) > 100
