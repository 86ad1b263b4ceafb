"""Experiment configuration: a single JSON document, fully validated before
any computation runs.  Matrices are nested row-major arrays; linear maps are
{"identity": true}, {"dense": [[...]]}, or {"coordinate_select": [[i,j],...]}.

Validation aggregates every problem it finds, anchored to JSON paths such as
problem.regularizer.grouped_lasso.weights; syntax errors carry the parser's
line and column.  A custom problem is checked in two passes: the part tables
below check its JSON types, then instance_from_config builds it with the
constructors a run uses and evaluates f and P once at x0, so a value that a
run would reject is rejected here, under the path of the part that holds it.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ConfigError, DomainError
from .losses import (CompositeSmooth, GeneralQuadratic, LeastSquares, Logistic,
                     NoncompactExample, Poisson)
from .problem import ProblemInstance
from .regularizers import L1, GroupedLasso, NuclearNorm, OrthantIndicator, Ridge
from .space import CoordinateSelectMap, DenseMap, IdentityMap

EXPERIMENTS = (
    "counterexample",
    "noncompact",
    "grouped-lasso",
    "lasso",
    "strongly-convex",
    "nuclear-regular",
    "custom",
)


def _is_number(v):
    """A JSON number other than NaN and ±Infinity, which Python's json accepts."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and (isinstance(v, int) or math.isfinite(v)))


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _array_of(test):
    return lambda v: isinstance(v, list) and all(test(x) for x in v)


def _is_matrix(v):
    return _array_of(_array_of(_is_number))(v) and len({len(row) for row in v}) == 1


def _is_array(v):
    return _is_number(v) or _array_of(_is_array)(v)


#: JSON type → (test, message when a value fails it)
_TYPES = {
    "number": (_is_number, "must be a finite number"),
    "integer": (_is_int, "must be an integer"),
    "vector": (_array_of(_is_number), "must be an array of finite numbers"),
    "matrix": (_is_matrix, "must be a rectangular array of finite number rows"),
    "array": (_is_array, "must be a finite number or a nested array of them"),
    "index_groups": (_array_of(_array_of(_is_int)), "must be an array of index arrays"),
    "indices": (_array_of(lambda i: _is_int(i) or _array_of(_is_int)(i)),
                "must be an array of indices"),
    "any": (lambda v: True, ""),
}


# Each part table maps a name to (constructor, schema).  A dict schema makes
# the body an object with exactly those typed fields, passed to the
# constructor as keyword arguments; a string schema types the body itself,
# and the constructor takes (body, shape).  Value checks (B positive
# definite, labels ±1, groups a partition, ...) are the constructors' own.
_LOSSES = {
    "least_squares": (LeastSquares, {"targets": "vector"}),
    "general_quadratic": (GeneralQuadratic, {"B": "matrix", "d": "vector"}),
    "logistic": (Logistic, {"labels": "vector"}),
    "poisson": (Poisson, {"counts": "vector"}),
    "noncompact": (NoncompactExample, {}),
}
_MAPS = {
    "identity": (lambda body, shape: IdentityMap(shape), "any"),
    "dense": (DenseMap, "matrix"),
    "coordinate_select": (CoordinateSelectMap, "indices"),
}
_REGULARIZERS = {
    "l1": (L1, {"weight": "number"}),
    "ridge": (Ridge, {"weight": "number"}),
    "grouped_lasso": (GroupedLasso, {"groups": "index_groups", "weights": "vector"}),
    "nuclear_norm": (NuclearNorm, {}),
    "orthant": (OrthantIndicator, {"signs": "vector"}),
}
_PARTS = {"loss": _LOSSES, "linear_map": _MAPS, "regularizer": _REGULARIZERS}


class _Check:
    def __init__(self):
        self.errors = []

    def fail(self, path, message):
        self.errors.append(f"{path}: {message}")

    def known_keys(self, obj, path, allowed):
        for key in obj:
            if key not in allowed:
                self.fail(f"{path}.{key}" if path else key, "unknown key")

    def typed(self, obj, path, kind="number", *, minimum=None, positive=False):
        """Check obj's JSON type and, for a number, its lower bound; True
        when it passes."""
        test, message = _TYPES[kind]
        if not test(obj):
            self.fail(path, message)
        elif minimum is not None and obj < minimum:
            self.fail(path, f"must be >= {minimum}")
        elif positive and obj <= 0:
            self.fail(path, "must be > 0")
        else:
            return True
        return False

    def attempt(self, path, fn, *args, **kwargs):
        """fn(*args, **kwargs), or None with the ValueError it raised
        recorded under path."""
        try:
            return fn(*args, **kwargs)
        except ValueError as exc:
            self.fail(path, str(exc))
            return None


def _validate_probe(chk, probe, path):
    if not isinstance(probe, dict):
        chk.fail(path, "must be an object")
        return
    chk.known_keys(probe, path, {"radii", "directions", "seed"})
    radii = probe.get("radii")
    if radii is not None:
        if isinstance(radii, dict):
            chk.known_keys(radii, f"{path}.radii", {"start", "stop", "count"})
            for key in ("start", "stop", "count"):
                if key not in radii:
                    chk.fail(f"{path}.radii.{key}", "missing")
                elif key == "count":
                    chk.typed(radii[key], f"{path}.radii.count", "integer", minimum=2)
                else:
                    chk.typed(radii[key], f"{path}.radii.{key}", positive=True)
        elif isinstance(radii, list):
            if not radii:
                chk.fail(f"{path}.radii", "must not be empty")
            for i, r in enumerate(radii):
                chk.typed(r, f"{path}.radii[{i}]", positive=True)
        else:
            chk.fail(f"{path}.radii", "must be an array or a start/stop/count object")
    if "directions" in probe:
        chk.typed(probe["directions"], f"{path}.directions", "integer", minimum=1)
    if "seed" in probe:
        chk.typed(probe["seed"], f"{path}.seed", "integer", minimum=0)


def _validate_solver(chk, solver, path):
    if not isinstance(solver, dict):
        chk.fail(path, "must be an object")
        return
    chk.known_keys(solver, path, {"step", "beta", "t0", "tol", "max_iter"})
    step = solver.get("step")
    if step is not None and step != "backtracking":
        if isinstance(step, dict) and set(step) == {"fixed"}:
            chk.typed(step["fixed"], f"{path}.step.fixed", positive=True)
        else:
            chk.fail(f"{path}.step", 'must be "backtracking" or {"fixed": t}')
    if "beta" in solver:
        if chk.typed(solver["beta"], f"{path}.beta", positive=True) and solver["beta"] >= 1:
            chk.fail(f"{path}.beta", "must be < 1")
    if "t0" in solver:
        chk.typed(solver["t0"], f"{path}.t0", positive=True)
    if "tol" in solver:
        chk.typed(solver["tol"], f"{path}.tol", positive=True)
    if "max_iter" in solver:
        chk.typed(solver["max_iter"], f"{path}.max_iter", "integer", minimum=1)


def _validate_part(chk, spec, path, table):
    if not isinstance(spec, dict) or len(spec) != 1 or next(iter(spec)) not in table:
        chk.fail(path, f"must contain exactly one of {tuple(table)}")
        return
    (kind, body), = spec.items()
    schema = table[kind][1]
    path = f"{path}.{kind}"
    if isinstance(schema, str):
        chk.typed(body, path, schema)
    elif not isinstance(body, dict):
        chk.fail(path, "must be an object")
    else:
        chk.known_keys(body, path, schema)
        for field, field_kind in schema.items():
            if field not in body:
                chk.fail(f"{path}.{field}", "missing")
            else:
                chk.typed(body[field], f"{path}.{field}", field_kind)


def _validate_problem(chk, problem, path):
    if not isinstance(problem, dict):
        chk.fail(path, "must be an object")
        return
    before = len(chk.errors)
    chk.known_keys(problem, path, {"shape", *_PARTS, "c", "x0", "feasible_point"})

    shape = problem.get("shape")
    if shape is None:
        chk.fail(f"{path}.shape", "missing")
    elif not isinstance(shape, dict) or set(shape) not in ({"vector"}, {"matrix"}):
        chk.fail(f"{path}.shape", 'must be {"vector": n} or {"matrix": [m, n]}')
    elif "vector" in shape:
        chk.typed(shape["vector"], f"{path}.shape.vector", "integer", minimum=1)
    else:
        dims = shape["matrix"]
        if not (isinstance(dims, list) and len(dims) == 2):
            chk.fail(f"{path}.shape.matrix", "must be [m, n]")
        else:
            for i, v in enumerate(dims):
                chk.typed(v, f"{path}.shape.matrix[{i}]", "integer", minimum=1)

    for part, table in _PARTS.items():
        if part not in problem:
            chk.fail(f"{path}.{part}", "missing")
        else:
            _validate_part(chk, problem[part], f"{path}.{part}", table)
    for key in ("c", "x0", "feasible_point"):
        if key in problem:
            chk.typed(problem[key], f"{path}.{key}", "array")

    if len(chk.errors) == before:
        try:
            instance_from_config(problem)
        except ConfigError as exc:
            chk.errors.extend(exc.messages)


def instance_from_config(problem: dict) -> tuple:
    """Build (ProblemInstance, x0) from a custom-problem block whose JSON
    types are valid.  Each part is built by its constructor, then P and h∘A
    are evaluated once at x0, so parts of clashing sizes are caught here.
    Raises ConfigError with each failure under its part's JSON path."""
    chk = _Check()
    dims = problem["shape"]
    shape = (dims["vector"],) if "vector" in dims else tuple(dims["matrix"])

    paths, parts = {}, {}
    for part, table in _PARTS.items():
        (kind, body), = problem[part].items()
        ctor, schema = table[kind]
        paths[part] = path = f"problem.{part}.{kind}"
        parts[part] = (chk.attempt(path, ctor, **body) if isinstance(schema, dict)
                       else chk.attempt(path, ctor, body, shape))

    def element(key, default):
        return chk.attempt(f"problem.{key}", lambda: np.array(
            problem.get(key, default), dtype=float).reshape(shape))

    c = element("c", np.zeros(shape))
    feasible = element("feasible_point", np.zeros(shape))
    x0 = element("x0", np.zeros(shape) if feasible is None else feasible)
    if chk.errors:
        raise ConfigError(chk.errors)

    h, A, reg = parts["loss"], parts["linear_map"], parts["regularizer"]
    p0 = chk.attempt(paths["regularizer"], reg.value, x0)
    try:
        f0 = h.value(A(x0))
    except DomainError:
        f0 = float("inf")
    except ValueError as exc:
        chk.fail(paths["loss"], f"does not fit the {A.out_shape[0]} outputs of the "
                                f"linear map: {exc}")
    if not chk.errors:
        prob = chk.attempt("problem.feasible_point", ProblemInstance,
                           CompositeSmooth(h, A, c), reg, feasible)
        if not np.isfinite(f0 + p0):
            chk.fail("problem.x0", "lies outside dom(f) ∩ dom(P)")
    if chk.errors:
        raise ConfigError(chk.errors)
    return prob, x0


def validate_config_data(data) -> dict:
    """Validate a parsed configuration object; returns it unchanged."""
    chk = _Check()
    if not isinstance(data, dict):
        raise ConfigError(["top level: must be a JSON object"])
    chk.known_keys(data, "", {"experiment", "seed", "probe", "solver", "problem",
                              "noncompact", "output"})

    name = data.get("experiment")
    if name is None:
        chk.fail("experiment", "missing")
    elif name not in EXPERIMENTS:
        chk.fail("experiment", f"unknown experiment {name!r}; choose from {EXPERIMENTS}")

    if "seed" in data:
        chk.typed(data["seed"], "seed", "integer", minimum=0)
    if "probe" in data:
        _validate_probe(chk, data["probe"], "probe")
    if "solver" in data:
        _validate_solver(chk, data["solver"], "solver")
    if "output" in data and not isinstance(data["output"], str):
        chk.fail("output", "must be a string path")

    if "noncompact" in data:
        block = data["noncompact"]
        if name not in (None, "noncompact"):
            chk.fail("noncompact", "only valid for the noncompact experiment")
        elif not isinstance(block, dict):
            chk.fail("noncompact", "must be an object")
        else:
            chk.known_keys(block, "noncompact", {"x_start", "x_stop", "count", "y"})
            if "y" in block and chk.typed(block["y"], "noncompact.y") and block["y"] <= 0:
                chk.fail("noncompact.y", "must be > 0: at y = 0 the ray is the solution "
                                         "set, below it lies outside dom(P) = {y ≥ 0}")
            for key in ("x_start", "x_stop"):
                typed = key in block and chk.typed(block[key], f"noncompact.{key}")
                if typed and block[key] >= 1:
                    chk.fail(f"noncompact.{key}", "must be < 1, inside dom(f) = {x < 1}")
            if "count" in block:
                chk.typed(block["count"], "noncompact.count", "integer", minimum=2)

    if name == "custom":
        if "problem" not in data:
            chk.fail("problem", "missing (required for the custom experiment)")
        else:
            _validate_problem(chk, data["problem"], "problem")
    elif "problem" in data:
        chk.fail("problem", "only the custom experiment accepts an inline problem")

    if chk.errors:
        raise ConfigError(chk.errors)
    return data


def validate_config(path) -> dict:
    """Load and validate a JSON config file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError([f"{path}: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"]) from exc
    return validate_config_data(data)


def radii_from_config(spec, default):
    if spec is None:
        return np.asarray(default, dtype=float)
    if isinstance(spec, dict):
        return np.logspace(
            np.log10(spec["start"]), np.log10(spec["stop"]), spec["count"]
        )
    return np.asarray(spec, dtype=float)
