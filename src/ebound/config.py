"""Experiment configuration: a single JSON document, fully validated before
any computation runs.  Matrices are nested row-major arrays; linear maps are
{"identity": true}, {"dense": [[...]]}, or {"coordinate_select": [[i,j],...]}.

Each field's JSON type, bound and default is declared once, in the tables
CONFIG (the top level), PROBE, SOLVER, NONCOMPACT and PROBLEM (the custom
problem), and EXPERIMENTS names the fields each experiment reads.  One
walker checks a config against them, aggregating every failure under its
JSON path (problem.regularizer.grouped_lasso.weights), a given field the
experiment does not read among them; syntax errors carry the parser's line
and column.  settings(config, block) reads a block with its defaults; the
radii's, None, is the scenario's own, and the run derives the solver's step
policy and budget (experiments._solver_settings).  A custom problem that
passes the tables is then built by instance_from_config with the
constructors a run uses, and f and P are evaluated once at x0, so a value
that a run would reject is rejected here, under its part's path;
validated_problem returns that instance, which the run then uses.
"""

from __future__ import annotations

import json
import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, DomainError
from .losses import (CompositeSmooth, GeneralQuadratic, LeastSquares, Logistic,
                     NoncompactExample, Poisson)
from .problem import ProblemInstance
from .regularizers import L1, GroupedLasso, NuclearNorm, OrthantIndicator, Ridge
from .space import MAX_ENTRIES, CoordinateSelectMap, DenseMap, IdentityMap

_SUITE = ("seed", "probe.radii", "probe.directions", "solver.tol")
#: each experiment, in `ebound list` order, and the config fields it reads beside its name
EXPERIMENTS = {
    "counterexample": ("probe.radii", "solver.tol"),
    "noncompact": ("noncompact",),
    "grouped-lasso": _SUITE,
    "lasso": _SUITE,
    "strongly-convex": _SUITE,
    "nuclear-regular": ("seed", "probe.radii", "probe.directions"),
    "custom": (*_SUITE, "problem"),
}


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


class Field(NamedTuple):
    """One config field: its type, the checks on its value (each returns the
    message of the bound the value breaks, or None), its default, and
    whether an experiment that reads it needs it given."""
    type: object
    checks: tuple = ()
    default: object = None
    required: bool = False


class _OneOf(NamedTuple):
    """An object with exactly one key of table, which selects its body's type."""
    table: dict
    message: str


class _ArrayOf(NamedTuple):
    """An array whose length passes sized and whose items have type item."""
    item: object
    sized: Callable
    message: str


def _bound(test, message):
    return lambda v: None if test(v) else message


def _integer(low, *checks, **field):
    return Field("integer", (_bound(lambda v: v >= low, f"must be >= {low}"), *checks), **field)


_POSITIVE = _bound(lambda v: v > 0, "must be > 0")
_INSIDE_DOM_F = _bound(lambda v: v < 1, "must be < 1, inside dom(f) = {x < 1}")
_AT_MOST_MAX_ENTRIES = _bound(lambda v: v <= MAX_ENTRIES, f"must be at most {MAX_ENTRIES}")


def _at_most_max_entries(shape):
    entries = math.prod(shape.get("matrix", [shape.get("vector")]))
    return None if entries <= MAX_ENTRIES else (
        f"must have at most {MAX_ENTRIES} entries, got {entries}")


# Each part table maps a name to (constructor, schema).  A dict schema makes
# the body an object with exactly those typed fields, passed to the
# constructor as keyword arguments; any other schema types the body itself,
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
    "identity": (lambda body, shape: IdentityMap(shape),
                 Field("any", (_bound(lambda v: v is True, "must be true"),))),
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

# In a table, a bare type (not a Field) is a required field with no bound.
PROBE = {
    "radii": Field(_ArrayOf(Field("number", (_POSITIVE,)), bool,
                           "must be a non-empty array of numbers > 0")),
    "directions": _integer(1, _AT_MOST_MAX_ENTRIES, default=6),
}
SOLVER = {
    "tol": Field("number", (_POSITIVE,), default=1e-11),
}
NONCOMPACT = {
    "y": Field("number", (_bound(lambda v: v > 0, "must be > 0: at y = 0 the ray is the "
                                 "solution set, below it lies outside dom(P) = {y ≥ 0}"),),
               default=1.0),
    "x_start": Field("number", (_INSIDE_DOM_F,), default=-5.0),
    "x_stop": Field("number", (_INSIDE_DOM_F,), default=-50.0),
    "count": _integer(2, _AT_MOST_MAX_ENTRIES, default=46),
}
PROBLEM = {
    "shape": Field(_OneOf({"vector": _integer(1),
                           "matrix": _ArrayOf(_integer(1), lambda v: len(v) == 2,
                                              "must be [m, n]")},
                          'must be {"vector": n} or {"matrix": [m, n]}'),
                   (_at_most_max_entries,)),
    **{part: _OneOf({kind: schema for kind, (_, schema) in table.items()},
                    f"must contain exactly one of {tuple(table)}")
       for part, table in _PARTS.items()},
    **dict.fromkeys(("c", "x0"), Field("array")),
}


CONFIG = {
    "experiment": Field("any", (lambda v: None if v in tuple(EXPERIMENTS) else
                                f"unknown experiment {v!r}; choose from {tuple(EXPERIMENTS)}",),
                        required=True),
    "seed": _integer(0, default=0),
    "probe": Field(PROBE),
    "solver": Field(SOLVER),
    "noncompact": Field(NONCOMPACT),
    "problem": Field(PROBLEM, required=True),
}


def settings(config: dict, block: str | None = None) -> dict:
    """A valid config's top level, or one settings block, with its defaults."""
    table = CONFIG if block is None else CONFIG[block].type
    given = config if block is None else config.get(block, {})
    return {key: given.get(key, field.default) for key, field in table.items()}


class _Check:
    def __init__(self, experiment=None):
        self.errors = []
        self.experiment = experiment
        #: the fields the experiment reads; None (unknown) refuses no field
        self.reads = EXPERIMENTS.get(experiment) if isinstance(experiment, str) else None

    def read(self, path) -> bool:
        """Whether path is read: named in the table, inside a block named there, or holding one."""
        return any(f"{path}.".startswith(f"{r}.") or f"{r}.".startswith(f"{path}.")
                   for r in ("experiment", *(self.reads or ())))

    def fail(self, path, message):
        self.errors.append(f"{path}: {message}")

    def attempt(self, path, fn, *args, **kwargs):
        """fn(*args, **kwargs), or None with the ValueError it raised
        recorded under path."""
        try:
            return fn(*args, **kwargs)
        except ValueError as exc:
            self.fail(path, str(exc))
            return None

    def walk(self, value, kind, path) -> bool:
        """Check value against kind (a Field, a table, a _OneOf or _ArrayOf,
        or a _TYPES name), recording each failure under its JSON path; True
        when it passes."""
        before = len(self.errors)
        if isinstance(kind, Field):
            if self.walk(value, kind.type, path):
                message = next(filter(None, (check(value) for check in kind.checks)), None)
                if message is not None:
                    self.fail(path, message)
        elif isinstance(kind, dict):
            self._object(value, kind, path)
        elif (isinstance(kind, _OneOf) and isinstance(value, dict) and len(value) == 1
              and next(iter(value)) in kind.table):
            (key, body), = value.items()
            self.walk(body, kind.table[key], f"{path}.{key}")
        elif isinstance(kind, _ArrayOf) and isinstance(value, list) and kind.sized(value):
            for i, item in enumerate(value):
                self.walk(item, kind.item, f"{path}[{i}]")
        elif isinstance(kind, (_OneOf, _ArrayOf)):
            self.fail(path, kind.message)
        elif not _TYPES[kind][0](value):
            self.fail(path, _TYPES[kind][1])
        return len(self.errors) == before

    def _object(self, obj, table, path) -> set:
        """Check obj against table; returns the keys whose values passed."""
        passed = set()
        if not isinstance(obj, dict):
            self.fail(path, "must be an object")
            return passed
        for key in obj:
            if key not in table:
                self.fail(f"{path}.{key}" if path else key, "unknown key")
        for key, field in table.items():
            if not isinstance(field, Field):
                field = Field(field, required=True)
            sub = f"{path}.{key}" if path else key
            if key in obj and self.reads and not self.read(sub):
                self.fail(sub, f"not read by {self.experiment}")
            elif key in obj and self.walk(obj[key], field, sub):
                passed.add(key)
            elif key not in obj and field.required and self.read(sub):
                self.fail(sub, "missing")
        return passed


def instance_from_config(problem: dict) -> ProblemInstance:
    """Build the ProblemInstance of a custom-problem block whose JSON types
    are valid.  Each part is built by its constructor, then P and h∘A are
    evaluated once at x0, so parts of clashing sizes are caught here; x0,
    zeros when absent, is the instance's feasible point.
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
    x0 = element("x0", np.zeros(shape))
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
    if not chk.errors and not np.isfinite(f0 + p0):
        chk.fail("problem.x0", "lies outside dom(f) ∩ dom(P)")
    if not chk.errors:
        prob = chk.attempt("problem.x0", ProblemInstance, CompositeSmooth(h, A, c), reg, x0)
    if chk.errors:
        raise ConfigError(chk.errors)
    return prob


def validated_problem(data) -> ProblemInstance | None:
    """Validate a parsed configuration object; returns the custom problem's
    ProblemInstance, built once by instance_from_config, or None for any
    other experiment.  A problem block that passes the tables is built
    even when other fields fail, and its errors follow theirs."""
    if not isinstance(data, dict):
        raise ConfigError(["top level: must be a JSON object"])
    chk = _Check(data.get("experiment"))
    built = None
    if "problem" in chk._object(data, CONFIG, "") and chk.read("problem"):
        try:
            built = instance_from_config(data["problem"])
        except ConfigError as exc:  # under the parts' own paths
            chk.errors.extend(exc.messages)
    if chk.errors:
        raise ConfigError(chk.errors)
    return built


def validate_config_data(data) -> dict:
    """Validate a parsed configuration object; returns it unchanged."""
    validated_problem(data)
    return data


def load_config(path):
    """Parse a JSON config file without validating it; a file that cannot be
    read or parsed raises ConfigError, a syntax error with its line and
    column."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError([f"{path}: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"]) from exc


def validate_config(path) -> dict:
    """Load and validate a JSON config file."""
    return validate_config_data(load_config(path))
