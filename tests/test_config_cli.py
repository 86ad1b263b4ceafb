import inspect
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from ebound import cli as cli_module
from ebound import config as config_module
from ebound import experiments as experiments_module
from ebound.cli import main
from ebound.config import (_LOSSES, _REGULARIZERS, CONFIG, EXPERIMENTS, Field, _ArrayOf,
                           _OneOf, validate_config, validate_config_data, validated_problem)
from ebound.errors import ConfigError
from ebound.experiments import (SCENARIOS, SOLVER_MAX_ITER, Run, _noncompact_ray,
                                _ratio_unbounded, _solver_settings, noncompact_instance,
                                run_experiment)
from ebound.problem import certify
from ebound.solver import Backtracking, Fixed, lipschitz_bound


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


MINIMAL_CUSTOM = {
    "experiment": "custom",
    "problem": {
        "shape": {"vector": 3},
        "loss": {"least_squares": {"targets": [1.0, -1.0]}},
        "linear_map": {"dense": [[1, 0, 0], [0, 1, 1]]},
        "regularizer": {"l1": {"weight": 0.4}},
    },
}

RADII_MESSAGE = "probe.radii: must be a non-empty array of numbers > 0"


class TestValidation:
    def test_minimal_counterexample_config(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "counterexample"})
        assert validate_config(path)["experiment"] == "counterexample"

    def test_negative_group_weight_cites_requirement(self):
        bad = {
            "experiment": "custom",
            "problem": {
                "shape": {"vector": 2},
                "loss": {"least_squares": {"targets": [1.0]}},
                "linear_map": {"dense": [[1, 0]]},
                "regularizer": {"grouped_lasso": {"groups": [[0], [1]],
                                                  "weights": [1.0, -1.0]}},
            },
        }
        with pytest.raises(ConfigError) as err:
            validate_config_data(bad)
        messages = err.value.messages
        assert any("weights[1]" in m and ">= 0" in m for m in messages)

    def test_missing_regularizer(self):
        bad = {k: v for k, v in MINIMAL_CUSTOM.items()}
        bad["problem"] = {k: v for k, v in MINIMAL_CUSTOM["problem"].items()
                          if k != "regularizer"}
        with pytest.raises(ConfigError) as err:
            validate_config_data(bad)
        assert any("problem.regularizer: missing" in m for m in err.value.messages)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError) as err:
            validate_config_data({"experiment": "lasso", "typo": 1})
        assert any("typo: unknown key" in m for m in err.value.messages)

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            validate_config_data({"experiment": "bogus"})

    def test_syntax_error_carries_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "experiment": \n}')
        with pytest.raises(ConfigError) as err:
            validate_config(str(path))
        assert any(":3:" in m or ":2:" in m for m in err.value.messages)

    def test_errors_aggregate(self):
        with pytest.raises(ConfigError) as err:
            validate_config_data({"experiment": "bogus", "seed": -1, "junk": 0})
        assert len(err.value.messages) >= 3

    def test_non_pd_quadratic_rejected(self):
        bad = json.loads(json.dumps(MINIMAL_CUSTOM))
        bad["problem"]["loss"] = {"general_quadratic": {"B": [[1, 2], [2, 1]],
                                                        "d": [0, 0]}}
        with pytest.raises(ConfigError) as err:
            validate_config_data(bad)
        assert any("positive definite" in m for m in err.value.messages)

    def test_problem_only_for_custom(self):
        with pytest.raises(ConfigError):
            validate_config_data({"experiment": "lasso",
                                  "problem": MINIMAL_CUSTOM["problem"]})

    @pytest.mark.parametrize("radii, path", [
        ([-1, 1e-4], "probe.radii[0]"),
        ([0, 1e-4], "probe.radii[0]"),
        ([1e-2, 0.0], "probe.radii[1]"),
        ([1e-2, -1e-3, 1e-4], "probe.radii[1]"),
        ([1e-2, 0, 1e-4], "probe.radii[1]"),
    ])
    def test_nonpositive_radii_rejected(self, radii, path):
        with pytest.raises(ConfigError) as err:
            validate_config_data({"experiment": "lasso", "probe": {"radii": radii}})
        assert err.value.messages == [f"{path}: must be > 0"]

    @pytest.mark.parametrize("radii, message", [
        ([], RADII_MESSAGE),
    ])
    def test_empty_or_incomplete_radii_rejected(self, radii, message):
        with pytest.raises(ConfigError) as err:
            validate_config_data({"experiment": "lasso", "probe": {"radii": radii}})
        assert err.value.messages == [message]

    @pytest.mark.parametrize("config, message", [
        ({"experiment": "lasso", "output": "out"}, "output: unknown key"),
        ({**MINIMAL_CUSTOM, "problem": {**MINIMAL_CUSTOM["problem"],
                                        "feasible_point": [0.0, 0.0, 0.0]}},
         "problem.feasible_point: unknown key"),
        ({"experiment": "lasso", "probe": {"radii": {"start": 1e-2, "stop": 1e-4, "count": 9}}},
         RADII_MESSAGE),
        ({"experiment": "lasso", "probe": {"radii": None}}, RADII_MESSAGE),
        *(({"experiment": "lasso", "solver": {key: value}}, f"solver.{key}: unknown key")
          for key, value in (("step", "backtracking"), ("beta", 0.5), ("t0", 1.0),
                             ("max_iter", 200000))),
        ({"experiment": "lasso", "probe": {"seed": 11}}, "probe.seed: unknown key"),
    ], ids=["output", "problem.feasible_point", "probe.radii-object", "probe.radii-null",
            "solver.step", "solver.beta", "solver.t0", "solver.max_iter", "probe.seed"])
    def test_a_setting_has_one_way_in(self, tmp_path, capsys, config, message):
        # the output directory is --out, the start point x0, the radii an
        # array (absent: the scenario's), the run derives its step policy
        # and iteration budget, and the directions' draw follows seed
        assert main(["validate", write_config(tmp_path, config)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("config, path", [
        ({"experiment": "lasso", "probe": {"radii": [float("nan"), 1e-3]}},
         "probe.radii[0]"),
        ({"experiment": "lasso", "solver": {"tol": float("nan")}}, "solver.tol"),
        ({"experiment": "lasso", "probe": {"radii": [1e-2, float("inf")]}}, "probe.radii[1]"),
        ({"experiment": "noncompact", "noncompact": {"y": float("-inf")}}, "noncompact.y"),
    ])
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, config, path):
        # Python's json reads NaN and Infinity; json.dumps writes them back
        with pytest.raises(ConfigError) as err:
            validate_config_data(config)
        assert [m.split(":")[0] for m in err.value.messages] == [path]
        assert main(["validate", write_config(tmp_path, config)]) == 2
        assert f"error: {path}: must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("block, path", [
        ({"x_stop": 2.0}, "noncompact.x_stop"),
        ({"x_start": 1.0}, "noncompact.x_start"),
    ])
    def test_ray_outside_loss_domain_rejected(self, block, path):
        with pytest.raises(ConfigError) as err:
            validate_config_data({"experiment": "noncompact", "noncompact": block})
        assert err.value.messages == [f"{path}: must be < 1, inside dom(f) = {{x < 1}}"]

    @pytest.mark.parametrize("y", [0, 0.0, -1.0])
    def test_ray_on_or_below_the_solution_set_rejected(self, y):
        # at y = 0 every ray point is optimal (d = ‖R‖ = 0); below it F = inf
        with pytest.raises(ConfigError) as err:
            validate_config_data({"experiment": "noncompact", "noncompact": {"y": y}})
        assert err.value.messages == [RAY_HEIGHT_MESSAGE]


RAY_HEIGHT_MESSAGE = ("noncompact.y: must be > 0: at y = 0 the ray is the solution set, "
                      "below it lies outside dom(P) = {y ≥ 0}")


def test_ratio_unbounded_reads_zero_over_zero_as_bounded():
    # on the solution set d = ‖R‖ = 0, and d ≤ κ‖R‖ holds for every κ
    prob = noncompact_instance()
    run = Run(SCENARIOS["noncompact"], {"noncompact": {"y": 0.0}}, prob)
    run.cert = certify(prob, prob.feasible_point, tol=1e-10)
    run.samples = _noncompact_ray(run)
    assert all(s.d == 0.0 and s.r_prox == 0.0 for s in run.samples)
    assertion = _ratio_unbounded(run)
    assert not assertion["passed"]
    assert run.extra["final_ratio"] == 0.0


def _custom_with(**problem):
    config = json.loads(json.dumps(MINIMAL_CUSTOM))
    config["problem"].update(problem)
    return config


@pytest.mark.parametrize("name", [*_LOSSES, *_REGULARIZERS])
def test_constructor_takes_exactly_the_schema_fields(name):
    # a class fact (polyhedral Γ_P, strong convexity, matrix input) is not a
    # constructor argument, so no config or caller can overturn it
    ctor, schema = {**_LOSSES, **_REGULARIZERS}[name]
    assert list(inspect.signature(ctor).parameters) == list(schema)


def _bounded(kind, path=""):
    """The table path of every field with a value check; an array item's
    path ends in []."""
    if isinstance(kind, Field):
        if kind.checks:
            yield path
        yield from _bounded(kind.type, path)
    elif isinstance(kind, dict):
        for key, sub in kind.items():
            yield from _bounded(sub, f"{path}.{key}" if path else key)
    elif isinstance(kind, _OneOf):
        for key, sub in kind.table.items():
            yield from _bounded(sub, f"{path}.{key}")
    elif isinstance(kind, _ArrayOf):
        yield from _bounded(kind.item, f"{path}[]")


#: (table path, a config breaking that field's bound, the one message it gets)
OUT_OF_RANGE = [
    ("experiment", {"experiment": "bogus"},
     f"experiment: unknown experiment 'bogus'; choose from {tuple(EXPERIMENTS)}"),
    ("seed", {"experiment": "lasso", "seed": -1}, "seed: must be >= 0"),
    ("probe.radii[]", {"experiment": "lasso", "probe": {"radii": [1e-2, 0]}},
     "probe.radii[1]: must be > 0"),
    ("probe.directions", {"experiment": "lasso", "probe": {"directions": 0}},
     "probe.directions: must be >= 1"),
    ("solver.tol", {"experiment": "lasso", "solver": {"tol": -1e-3}}, "solver.tol: must be > 0"),
    ("noncompact.y", {"experiment": "noncompact", "noncompact": {"y": 0}},
     RAY_HEIGHT_MESSAGE),
    ("noncompact.x_start", {"experiment": "noncompact", "noncompact": {"x_start": 1}},
     "noncompact.x_start: must be < 1, inside dom(f) = {x < 1}"),
    ("noncompact.x_stop", {"experiment": "noncompact", "noncompact": {"x_stop": 2.5}},
     "noncompact.x_stop: must be < 1, inside dom(f) = {x < 1}"),
    ("noncompact.count", {"experiment": "noncompact", "noncompact": {"count": 1}},
     "noncompact.count: must be >= 2"),
    ("problem", _custom_with(regularizer={"orthant": {"signs": [1, 1, 1]}},
                             x0=[-1.0, 0.0, 0.0]),
     "problem.x0: lies outside dom(f) ∩ dom(P)"),
    ("problem.linear_map.identity", _custom_with(linear_map={"identity": False}),
     "problem.linear_map.identity: must be true"),
    ("problem.shape.vector", _custom_with(shape={"vector": 0}),
     "problem.shape.vector: must be >= 1"),
    ("problem.shape.matrix[]", _custom_with(shape={"matrix": [2, 0]}),
     "problem.shape.matrix[1]: must be >= 1"),
    ("problem.shape", _custom_with(shape={"vector": 10**9}),
     "problem.shape: must have at most 10000000 entries, got 1000000000"),
    ("problem.shape", _custom_with(shape={"matrix": [4000, 2501]}),
     "problem.shape: must have at most 10000000 entries, got 10004000"),
]


def _never_built(problem):
    raise AssertionError("instance_from_config ran: a table bound let the problem through")


class TestFieldTable:
    def test_every_bound_has_a_case(self):
        # the custom problem's build bounds the problem block; it runs after
        # the tables pass, so the tables do not declare it
        assert {path for path, _, _ in OUT_OF_RANGE} == set(_bounded(CONFIG)) | {"problem"}

    @pytest.mark.parametrize("path, config, message", OUT_OF_RANGE,
                             ids=[path for path, _, _ in OUT_OF_RANGE])
    def test_out_of_range_value_gets_one_message(self, path, config, message, monkeypatch):
        # a table bound refuses before anything is built: a shape past the
        # bound that reached the build would allocate its arrays
        if path != "problem":
            monkeypatch.setattr(config_module, "instance_from_config", _never_built)
        with pytest.raises(ConfigError) as err:
            validate_config_data(config)
        assert err.value.messages == [message]

    @pytest.mark.parametrize("path", [*CONFIG, *(
        f"{block}.{key}" for block in ("probe", "solver", "noncompact", "problem")
        for key in CONFIG[block].type)])
    def test_value_of_the_wrong_type_gets_one_message(self, path):
        # true is a JSON value of no field's type
        block, _, key = path.rpartition(".")
        if "problem" in (block, key):
            config = _custom_with(**{key: True}) if block else {**MINIMAL_CUSTOM, key: True}
        else:  # an experiment that reads the field, so its type is what is refused
            config = {"experiment": "noncompact" if "noncompact" in path else "lasso",
                      **({block: {key: True}} if block else {key: True})}
        with pytest.raises(ConfigError) as err:
            validate_config_data(config)
        assert [m.split(": ")[0] for m in err.value.messages] == [path]


RAY_DEFAULTS = {"x_start": -5.0, "x_stop": -50.0, "count": 46, "y": 1.0}
#: every settings default the table declares, written out, by the path
#: EXPERIMENTS names
WRITTEN_DEFAULTS = {"seed": 0, "probe.directions": 6, "solver.tol": 1e-11,
                    "noncompact": RAY_DEFAULTS}
REPORTS = ("samples.csv", "loglog.csv", "fit.json", "summary.txt")


def _base(name):
    """The config of a run with no settings: the custom run needs its problem."""
    return json.loads(json.dumps(MINIMAL_CUSTOM)) if name == "custom" else {}


def _set(config, path, value):
    """Set the field of config at the dotted path to value."""
    *blocks, key = path.split(".")
    for block in blocks:
        config = config.setdefault(block, {})
    config[key] = value


def _same_reports(tmp_path, name, config, written):
    run_experiment(name, config, out_dir=tmp_path / "given")
    run_experiment(name, written, out_dir=tmp_path / "written")
    for report in REPORTS:
        assert ((tmp_path / "given" / report).read_bytes()
                == (tmp_path / "written" / report).read_bytes()), report


class TestDefaults:
    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_written_defaults_give_the_same_reports(self, tmp_path, name):
        # each field the experiment reads, written out; the radii default is
        # the scenario's own
        written = _base(name)
        for path in EXPERIMENTS[name]:
            if path == "probe.radii":
                _set(written, path, SCENARIOS[name].radii.tolist())
            elif path != "problem":
                _set(written, path, WRITTEN_DEFAULTS[path])
        _same_reports(tmp_path, name, _base(name), written)


#: a loss with no global Lipschitz gradient, so the run backtracks
POISSON_CUSTOM = {
    "problem": {
        "shape": {"vector": 3},
        "loss": {"poisson": {"counts": [1, 0, 2]}},
        "linear_map": {"dense": [[1.0, 0.5, 0.0], [0.0, 1.0, -0.5], [0.3, 0.0, 1.0]]},
        "regularizer": {"l1": {"weight": 0.3}},
    },
}


@pytest.mark.parametrize("name, config, backtracks", [
    ("counterexample", {}, False), ("lasso", {}, False), ("grouped-lasso", {}, False),
    ("strongly-convex", {}, False), ("custom", MINIMAL_CUSTOM, False),
    ("custom", POISSON_CUSTOM, True),
], ids=["counterexample", "lasso", "grouped-lasso", "strongly-convex", "custom-least-squares",
        "custom-poisson"])
def test_the_run_derives_its_step_policy(name, config, backtracks):
    # the fixed step 1/L when ∇f has a global Lipschitz constant L > 0;
    # a Poisson loss has none, so its run backtracks
    config = {**config, "experiment": name, "solver": {"tol": 1e-6}}
    prob = validated_problem(config) or SCENARIOS[name].build(config)
    L = lipschitz_bound(prob)
    assert (L is None) == backtracks
    step = Backtracking() if backtracks else Fixed(1.0 / L)
    assert _solver_settings(config, prob) == (step, 1e-6, SOLVER_MAX_ITER)


def test_a_backtracking_run_certifies(tmp_path):
    code, payload = run_experiment("custom", POISSON_CUSTOM, out_dir=tmp_path)
    assert code == 0
    certified, = (a["detail"] for a in payload["assertions"] if a["name"] == "certified")
    assert certified.endswith("after 69 iterations")


def test_a_solve_stopped_at_its_limit_names_it(tmp_path, monkeypatch, capsys):
    # two iterations leave MINIMAL_CUSTOM far from its optimum, so the
    # certificate fails, and the error says the solve stopped at its limit
    monkeypatch.setattr(experiments_module, "SOLVER_MAX_ITER", 2)
    code = main(["run", "custom", "--config", write_config(tmp_path, MINIMAL_CUSTOM),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert re.fullmatch(r"error: the solve stopped at its iteration limit of 2 "
                        r"iterations: residual norm \S+ exceeds certification tolerance "
                        r"1\.000e-09\n", err), err


def _leaves(table, prefix=""):
    for key, field in table.items():
        sub = field.type if isinstance(field, Field) else field
        if isinstance(sub, dict) and key != "problem":
            yield from _leaves(sub, f"{prefix}{key}.")
        elif key not in ("experiment", "problem"):
            yield prefix + key


#: the fields a config may set beside the experiment and its problem
SETTABLE = list(_leaves(CONFIG))


def test_settable_values():
    assert SETTABLE == ["seed", "probe.radii", "probe.directions", "solver.tol",
                        "noncompact.y", "noncompact.x_start", "noncompact.x_stop",
                        "noncompact.count"]


#: a value other than the default for every settable field; the
#: counterexample reads min(tol, 1e-8), so a tol moves it only below 1e-8
CHANGED = {"seed": 1, "probe.radii": [3e-2, 1e-2, 3e-3, 1e-3], "probe.directions": 3,
           "solver.tol": 1e-9, "noncompact.y": 2.0, "noncompact.x_start": -6.0,
           "noncompact.x_stop": -40.0, "noncompact.count": 30}


def _reads(name, path):
    """Whether EXPERIMENTS says name reads path: named there, or inside a
    block named there."""
    return any(path == r or path.startswith(r + ".") for r in EXPERIMENTS[name])


def _reports(out):
    return [(out / report).read_bytes() for report in REPORTS]


@pytest.mark.parametrize("path", SETTABLE)
@pytest.mark.parametrize("name", EXPERIMENTS)
def test_a_field_moves_the_reports_or_is_refused(tmp_path, capsys, name, path):
    config = _base(name)
    _set(config, path, CHANGED[path])
    if _reads(name, path):
        run_experiment(name, _base(name), out_dir=tmp_path / "default")
        run_experiment(name, config, out_dir=tmp_path / "changed")
        assert _reports(tmp_path / "default") != _reports(tmp_path / "changed")
        return
    # a block the experiment reads nothing of is named whole
    block = path.split(".")[0]
    unread = path if any(r.split(".")[0] == block for r in EXPERIMENTS[name]) else block
    cfg = write_config(tmp_path, {"experiment": name, **config})
    assert main(["validate", cfg]) == 2
    assert main(["run", name, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {unread}: not read by {name}\n" * 2
    assert not (tmp_path / "o").exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_field_table_follows_the_config_tables():
    # a field added or removed, or read by other experiments, fails here
    # until its README row follows
    lines = README.read_text().splitlines()
    start = lines.index("| field | type | bound | default | read by |")
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        rows[cells[0].strip("`")] = cells[-1]
    assert list(rows) == ["experiment", *SETTABLE, "problem"]
    for path, read_by in rows.items():
        assert read_by == ("every experiment" if path == "experiment" else ", ".join(
            f"`{name}`" for name in EXPERIMENTS if _reads(name, path))), path


def test_run_with_config_validates_once(tmp_path, monkeypatch):
    calls = []
    for module, name in ((experiments_module, "validated_problem"),
                         (config_module, "validate_config_data"),
                         (config_module, "instance_from_config")):
        def spy(*args, _fn=getattr(module, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(module, name, spy)
    cfg = write_config(tmp_path, MINIMAL_CUSTOM)
    assert main(["run", "custom", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    # one validation, which builds the instance the run uses
    assert calls == ["validated_problem", "instance_from_config"]


class TestValidationBuildsTheInstance:
    """Each config below passed a types-only validation, then failed at run
    time with a traceback or a bare error; validation now builds the instance
    and evaluates f and P at x0, so validate and run both reject it."""

    @pytest.mark.parametrize("problem, path", [
        ({"x0": "abc"}, "problem.x0"),
        ({"c": [1.0, 2.0]}, "problem.c"),
        ({"x0": [0.0, 0.0]}, "problem.x0"),
        ({"loss": {"least_squares": {"targets": [1.0, -1.0, 2.0]}}},
         "problem.loss.least_squares"),
        # one output against three targets would broadcast
        ({"loss": {"least_squares": {"targets": [1.0, -1.0, 2.0]}},
          "linear_map": {"dense": [[1, 0, 0]]}}, "problem.loss.least_squares"),
        ({"loss": {"least_squares": {"targets": [1.0, -1.0, 2.0]}},
          "linear_map": {"coordinate_select": [0]}}, "problem.loss.least_squares"),
        ({"linear_map": {"dense": [[1, 0], [0, 1]]}}, "problem.linear_map.dense"),
        ({"linear_map": {"coordinate_select": [0, 7]}},
         "problem.linear_map.coordinate_select"),
        ({"regularizer": {"nuclear_norm": {}}}, "problem.regularizer.nuclear_norm"),
        ({"regularizer": {"orthant": {"signs": [1, 0]}}}, "problem.regularizer.orthant"),
        ({"regularizer": {"orthant": {"signs": [1, 1, 1]}}, "x0": [-1.0, 0.0, 0.0]},
         "problem.x0"),
    ])
    def test_rejected_by_validate_and_run(self, tmp_path, capsys, problem, path):
        config = _custom_with(**problem)
        with pytest.raises(ConfigError) as err:
            validate_config_data(config)
        assert [m.split(":")[0] for m in err.value.messages] == [path]

        cfg = write_config(tmp_path, config)
        assert main(["validate", cfg]) == 2
        assert main(["run", "custom", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err_lines = capsys.readouterr().err.splitlines()
        assert err_lines == [f"error: {m}" for m in err.value.messages] * 2

    def test_loss_that_does_not_fit_the_map_is_named_at_validate(self, tmp_path, capsys):
        # the config checks the loss against the map before CompositeSmooth,
        # which would refuse it too, is built; the noncompact loss takes (2,)
        # inputs, so on three outputs the sizes clash, not x0 and dom(f)
        for problem, message in (
                ({"loss": {"least_squares": {"targets": [1.0, -1.0, 2.0]}},
                  "linear_map": {"dense": [[1, 0, 0]]}},
                 "problem.loss.least_squares: does not fit the 1 outputs of the linear map: "
                 "LeastSquares: input of shape (1,) where the loss takes (3,)"),
                ({"loss": {"noncompact": {}}, "linear_map": {"identity": True}},
                 "problem.loss.noncompact: does not fit the 3 outputs of the linear map: "
                 "NoncompactExample: input of shape (3,) where the loss takes (2,)")):
            assert main(["validate", write_config(tmp_path, _custom_with(**problem))]) == 2
            assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


class TestRunExperiment:
    def test_counterexample_artifacts(self, tmp_path):
        code, payload = run_experiment("counterexample", out_dir=tmp_path / "out")
        assert code == 0
        for name in ("samples.csv", "loglog.csv", "fit.json", "summary.txt"):
            assert (tmp_path / "out" / name).exists()
        header = (tmp_path / "out" / "samples.csv").read_text().splitlines()[0]
        assert header == "radius,direction_id,d,r_prox,r_alt,F_val"
        fit = json.loads((tmp_path / "out" / "fit.json").read_text())
        assert 1.9 <= fit["fit"]["slope"] <= 2.1
        assert fit["complementarity"]["holds"] is False

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_byte_identical_reruns(self, tmp_path, experiment):
        config = MINIMAL_CUSTOM if experiment == "custom" else None
        seed = 7 if "seed" in EXPERIMENTS[experiment] else None
        run_experiment(experiment, config, out_dir=tmp_path / "a", seed=seed)
        run_experiment(experiment, config, out_dir=tmp_path / "b", seed=seed)
        for name in ("samples.csv", "loglog.csv", "fit.json", "summary.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_grouped_lasso_seed7_slope(self, tmp_path):
        code, payload = run_experiment("grouped-lasso", out_dir=tmp_path, seed=7)
        assert code == 0
        assert 0.85 <= payload["fit"]["slope"] <= 1.15

    def test_every_experiment_has_a_scenario(self):
        assert set(SCENARIOS) == set(EXPERIMENTS)

    def test_unknown_name_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            run_experiment("nope", out_dir=tmp_path)

    def test_custom_experiment(self, tmp_path):
        code, payload = run_experiment("custom", MINIMAL_CUSTOM, out_dir=tmp_path)
        assert code == 0
        assert payload["fit"] is not None

    def test_default_dir_is_under_the_working_directory(self, tmp_path, monkeypatch):
        # an environment variable named like the old override is not read
        monkeypatch.setenv("EBOUND_OUT", str(tmp_path / "envdir"))
        monkeypatch.chdir(tmp_path)
        code, _ = run_experiment("noncompact")
        assert code == 0
        assert (tmp_path / "ebound-out" / "noncompact" / "fit.json").exists()
        assert not (tmp_path / "envdir").exists()


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("counterexample", "noncompact", "lasso", "custom"):
            assert name in out

    def test_commands_in_one_process_run_as_in_fresh_ones(self, tmp_path, capsys):
        # the parser is built once per process; no command's arguments or
        # outcome carry over into the next
        first, second = tmp_path / "first", tmp_path / "second"
        codes = [main(["run", "strongly-convex", "--seed", "3", "--out", str(first)]),
                 main(["run", "strongly-convex", "--out", str(second)])]
        assert set(codes) <= {0, 1}
        assert json.loads((first / "fit.json").read_text())["seed"] == 3
        assert json.loads((second / "fit.json").read_text())["seed"] == 0
        capsys.readouterr()
        assert main(["list"]) == 0
        assert capsys.readouterr().out.split() == list(EXPERIMENTS)
        with pytest.raises(SystemExit) as exit_:
            main(["run", "strongly-convex", "--seed", "x"])
        assert exit_.value.code == 2
        assert "invalid int value: 'x'" in capsys.readouterr().err
        assert cli_module._build_parser() is cli_module._build_parser()

    def test_validate_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": "lasso", "seed": 3})
        assert main(["validate", path]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_bad_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": "lasso", "seed": -2})
        assert main(["validate", path]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("name,seed", [("lasso", "-1"), ("nuclear-regular", "-3")])
    def test_run_rejects_negative_seed_override(self, tmp_path, capsys, name, seed):
        # the --seed override goes through the same check as a config seed
        out = tmp_path / "out"
        assert main(["run", name, "--seed", seed, "--out", str(out)]) == 2
        assert "error: seed: must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["counterexample", "noncompact"])
    def test_run_refuses_a_seed_it_does_not_read(self, tmp_path, capsys, name):
        out = tmp_path / "out"
        assert main(["run", name, "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: seed: not read by {name}\n"
        assert not out.exists()

    def test_run_unknown_experiment_exit_2(self, capsys):
        assert main(["run", "nonsense"]) == 2

    def test_run_noncompact_with_ray_config(self, tmp_path, capsys):
        assert main(["run", "noncompact", "--config", str(RAY_CONFIG),
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    def test_integer_ray_height_reports_as_a_float(self, tmp_path):
        # "y": 1 and "y": 1.0 are one ray, so they write the same bytes
        for y in (1, 1.0):
            path = write_config(tmp_path, {"experiment": "noncompact", "noncompact": {"y": y}})
            assert main(["run", "noncompact", "--config", path,
                         "--out", str(tmp_path / repr(y))]) == 0
        for report in REPORTS:
            assert ((tmp_path / "1" / report).read_bytes()
                    == (tmp_path / "1.0" / report).read_bytes()), report

    @pytest.mark.parametrize("flag", ["--y=1", "--x-range=-5..-40"])
    @pytest.mark.parametrize("name", ["noncompact", "lasso"])
    def test_run_takes_no_ray_flags(self, tmp_path, capsys, name, flag):
        # the noncompact block of a config is the one way to set the ray
        with pytest.raises(SystemExit) as exit_:
            main(["run", name, "--out", str(tmp_path / "o"), flag])
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_run_help_lists_no_experiment_option(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--help"])
        assert exit_.value.code == 0
        options = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert options == {"--help", "--config", "--out", "--seed"}

    def test_custom_loss_not_strongly_convex_exit_1(self, tmp_path, capsys):
        # the Dykstra distance would measure against {x*}, not the solution ray
        config = write_config(tmp_path, {"experiment": "custom", "problem": {
            "shape": {"vector": 2}, "loss": {"noncompact": {}},
            "linear_map": {"identity": True},
            "regularizer": {"orthant": {"signs": [-1, 1]}}, "x0": [-1.0, 0.0]}})
        assert main(["run", "custom", "--config", config, "--out", str(tmp_path / "o")]) == 1
        assert "needs a loss strongly convex on compact sets" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "top level: must be a JSON object"),
        ('{"experiment": "noncompact", "noncompact": 5}', "noncompact: must be an object"),
        ('{\n  "experiment": \n}', ":3:1: Expecting value"),
        ('{"noncompact": {"x_start": 0, "x_stop": 2}}',
         "noncompact.x_stop: must be < 1, inside dom(f) = {x < 1}"),
        ('{"noncompact": {"x_start": -5, "x_stop": 2}}',
         "noncompact.x_stop: must be < 1, inside dom(f) = {x < 1}"),
        ('{"noncompact": {"y": 0}}', RAY_HEIGHT_MESSAGE),
        ('{"noncompact": {"y": -1}}', RAY_HEIGHT_MESSAGE),
    ], ids=["top-level-array", "block-not-an-object", "syntax-error", "ray-0..2",
            "ray--5..2", "ray-height-0", "ray-height--1"])
    def test_run_rejects_a_bad_config_before_writing(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["run", "noncompact", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_validate_refuses_a_huge_shape_before_building(self, tmp_path, capsys,
                                                           monkeypatch):
        monkeypatch.setattr(config_module, "instance_from_config", _never_built)
        path = write_config(tmp_path, _custom_with(shape={"vector": 10**9}))
        assert main(["validate", path]) == 2
        assert capsys.readouterr().err == (
            "error: problem.shape: must have at most 10000000 entries, got 1000000000\n")

    @pytest.mark.parametrize("experiment, block, key", [("lasso", "probe", "directions"),
                                                        ("noncompact", "noncompact", "count")])
    def test_validate_refuses_a_layout_too_large_to_allocate(self, tmp_path, capsys,
                                                             experiment, block, key):
        # 10¹² directions or ray points would ask numpy for about 10¹³ floats
        path = write_config(tmp_path, {"experiment": experiment, block: {key: 10**12}})
        assert main(["validate", path]) == 2
        assert capsys.readouterr().err == f"error: {block}.{key}: must be at most 10000000\n"

    def test_run_refuses_a_probe_past_max_entries_before_drawing(self, tmp_path, capsys):
        # 10⁷ directions pass the table, but 9 radii around lasso's 8 entries
        # would lay out 7.2·10⁸
        path = write_config(tmp_path, {"experiment": "lasso", "probe": {"directions": 10**7}})
        assert main(["run", "lasso", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "error: 10000000 directions × 9 radii × 8 entries lay out 720000000 entries, "
            "more than 10000000\n")

    def test_divergent_fixed_step_exit_1(self, tmp_path, capsys, monkeypatch):
        # t = 5 > 1/L = 0.5 diverges: the solver stops at the first
        # non-finite residual rather than iterating NaN to the budget, and
        # the CLI reports that solver fault with exit 1
        monkeypatch.setattr(experiments_module, "_solver_settings",
                            lambda config, prob: (Fixed(5.0), 1e-11, SOLVER_MAX_ITER))
        config = write_config(tmp_path, MINIMAL_CUSTOM)
        start = time.perf_counter()
        code = main(["run", "custom", "--config", config, "--out", str(tmp_path / "o")])
        assert code == 1 and time.perf_counter() - start < 2.0
        assert re.fullmatch(r"error: ‖R\(xₖ\)‖ is not finite at iteration \d+ \(last gap (inf|nan)\)\n",
                            capsys.readouterr().err)

    def test_run_with_config_and_seed(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": "strongly-convex",
                                       "probe": {"directions": 4}})
        assert main(["run", "strongly-convex", "--config", path,
                     "--out", str(tmp_path / "o"), "--seed", "1"]) == 0
        fit = json.loads((tmp_path / "o" / "fit.json").read_text())
        assert fit["seed"] == 1

    def test_mismatched_config_experiment(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "lasso"})
        assert main(["run", "counterexample", "--config", path]) == 2


class TestSampleFormatting:
    def test_seventeen_significant_digits(self, tmp_path):
        run_experiment("strongly-convex", out_dir=tmp_path, seed=0)
        lines = (tmp_path / "samples.csv").read_text().splitlines()[1:]
        value = lines[0].split(",")[2]
        assert float(value) == np.float64(value)
        assert len(value.replace("-", "").replace(".", "").split("e")[0]) >= 15


class TestRegistryBudget:
    def test_every_registry_experiment_under_a_minute(self, tmp_path):
        import time

        from ebound.config import EXPERIMENTS

        for name in EXPERIMENTS:
            config = MINIMAL_CUSTOM if name == "custom" else None
            start = time.perf_counter()
            code, _ = run_experiment(name, config, out_dir=tmp_path / name)
            elapsed = time.perf_counter() - start
            assert code == 0, name
            assert elapsed < 60.0, f"{name} took {elapsed:.1f}s"


MATRIX = Path(__file__).resolve().parents[1] / "tools" / "registry_matrix"
#: the noncompact ray that the registry matrix runs
RAY_CONFIG = MATRIX.parent / "noncompact-ray.json"
MATRIX_CONFIGS = sorted(MATRIX.glob("*.json"))
#: configs that exit 1, with the error each prints: the 2×2 least-squares
#: nuclear config's PSD slice meets its affine piece tangentially, so Dykstra
#: spends its budget (open: exact reduced distances).  Drop an entry once its
#: case is mended.
MATRIX_FAILURES = {"nuclear-2x2-least-squares": "Dykstra did not reach the intersection"}


class TestRegistryMatrix:
    """Every config of tools/registry_matrix validates and runs at seed 0."""

    def test_configs_are_found(self):
        assert len(MATRIX_CONFIGS) >= 8

    @pytest.mark.parametrize("path", MATRIX_CONFIGS, ids=lambda p: p.stem)
    def test_validates_and_runs(self, path, tmp_path, capsys):
        assert main(["validate", str(path)]) == 0
        code = main(["run", "custom", "--config", str(path), "--seed", "0",
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        if path.stem in MATRIX_FAILURES:
            assert code == 1 and MATRIX_FAILURES[path.stem] in err
        else:
            assert code == 0, err


class TestAssertionFailureExit:
    def test_short_noncompact_ray_fails_with_exit_1(self, tmp_path, capsys):
        # a ray stopping at x = -6 cannot reach the 1e10 ratio threshold
        path = write_config(tmp_path, {"experiment": "noncompact",
                                       "noncompact": {"x_start": -5.0, "x_stop": -6.0}})
        code = main(["run", "noncompact", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL ratio_unbounded" in out
        assert "overall: FAIL" in out
