"""Per-layer spans and counters, recorded from outside the program.

The modules of ebound import each other's functions by name (problem takes
affine_project from space, regularizers and diagnostics take svd, experiments
takes probe, certify and proximal_gradient), so a function is wrapped in every
module that binds it, and methods are wrapped on the classes that define
them.  Each call records a span (name, start, end, parent, failed) in memory;
uninstall() puts the original objects back.
"""

from __future__ import annotations

import functools
import statistics
import time

import ebound
from ebound import (cli, config, diagnostics, experiments, losses, problem,
                    regularizers, solver, space)

MODULES = (ebound, space, losses, regularizers, problem, solver, diagnostics,
           experiments, config, cli)

#: (defining module, function name, span name)
FUNCTIONS = (
    (space, "svd", "space.svd"),
    (space, "psd_project", "space.psd_project"),
    (space, "affine_project", "space.affine_project"),
    (problem, "residual_map", "problem.residual_map"),
    (problem, "distance_to_solution_set", "problem.distance"),
    (problem, "certify", "problem.certify"),
    (solver, "proximal_gradient", "solver.solve"),
    (diagnostics, "probe", "diagnostics.probe"),
    (diagnostics, "fit_exponent", "diagnostics.fit"),
    (diagnostics, "strict_complementarity", "diagnostics.complementarity"),
    (diagnostics, "regularity_summary", "diagnostics.regularity"),
    (experiments, "run_experiment", "experiments.run"),
    (config, "validate_config", "config.validate"),
    (config, "validate_config_data", "config.validate"),
)

#: (base class, method name, span name); wrapped on every class of the
#: hierarchy that defines the method
METHODS = (
    (space.LinearMap, "__call__", "space.matvec"),
    (space.LinearMap, "adjoint", "space.adjoint"),
    (losses.CompositeSmooth, "value", "losses.value"),
    (losses.CompositeSmooth, "gradient", "losses.gradient"),
    (losses.CompositeSmooth, "in_domain", "losses.in_domain"),
    (regularizers.Regularizer, "prox", "regularizers.prox"),
    (regularizers.Regularizer, "value", "regularizers.value"),
    (regularizers.Regularizer, "inverse_image", "regularizers.inverse_image"),
    (regularizers.Regularizer, "subdiff_distance", "regularizers.subdiff_distance"),
    (regularizers.InverseImage, "project", "regularizers.image_project"),
)

#: what a span keeps from its call's result, as a count
RESULT_COUNTS = {
    "solver.solve": lambda trace: len(trace.iterations) - 1,
    "diagnostics.probe": len,
}


def _hierarchy(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent, failed, count]
        self._stack = []
        self._patched = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, False, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        for home, attr, name in FUNCTIONS:
            original = getattr(home, attr)
            wrapped = self.wrap(name, original)
            for module in MODULES:
                if module.__dict__.get(attr) is original:
                    self._patch(module, attr, wrapped)
        for base, attr, name in METHODS:
            for cls in _hierarchy(base):
                if attr in cls.__dict__:
                    self._patch(cls, attr, self.wrap(name, cls.__dict__[attr]))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write_csv(self, path):
        lines = ["name,start,end,parent,failed"]
        lines.extend(f"{n},{s:.9f},{e:.9f},{p},{int(f)}" for n, s, e, p, f, _ in self.spans)
        path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: per_layer metric → (unit, better)
LAYER_METRICS = {
    "space.matvec_calls": ("count", "lower"),
    "space.adjoint_calls": ("count", "lower"),
    "space.matvec_s": ("s", "lower"),
    "space.svd_calls": ("count", "lower"),
    "space.svd_s": ("s", "lower"),
    "space.psd_project_calls": ("count", "lower"),
    "space.psd_project_s": ("s", "lower"),
    "space.affine_project_calls": ("count", "lower"),
    "space.affine_project_s": ("s", "lower"),
    "losses.value_calls": ("count", "lower"),
    "losses.gradient_calls": ("count", "lower"),
    "losses.in_domain_calls": ("count", "lower"),
    "losses.self_s": ("s", "lower"),
    "regularizers.prox_calls": ("count", "lower"),
    "regularizers.prox_s": ("s", "lower"),
    "regularizers.value_calls": ("count", "lower"),
    "regularizers.value_s": ("s", "lower"),
    "regularizers.inverse_image_calls": ("count", "lower"),
    "regularizers.inverse_image_s": ("s", "lower"),
    "regularizers.image_project_calls": ("count", "lower"),
    "regularizers.image_project_s": ("s", "lower"),
    "regularizers.subdiff_distance_s": ("s", "lower"),
    "problem.residual_map_calls": ("count", "lower"),
    "problem.residual_map_s": ("s", "lower"),
    "problem.distance_calls": ("count", "lower"),
    "problem.distance_s": ("s", "lower"),
    "problem.distance_p50_ms": ("ms", "lower"),
    "problem.distance_p90_ms": ("ms", "lower"),
    "problem.sweeps_per_distance": ("count", "lower"),
    "problem.distance_failed": ("count", "lower"),
    "problem.certify_s": ("s", "lower"),
    "solver.iterations": ("count", "lower"),
    "solver.self_s": ("s", "lower"),
    "solver.iter_ms": ("ms", "lower"),
    "solver.matvecs_per_iter": ("count", "lower"),
    "solver.svds_per_iter": ("count", "lower"),
    "solver.prox_per_iter": ("count", "lower"),
    "solver.accepted_step_ratio": ("ratio", "higher"),
    "diagnostics.probe_self_s": ("s", "lower"),
    "diagnostics.fit_s": ("s", "lower"),
    "diagnostics.complementarity_s": ("s", "lower"),
    "diagnostics.regularity_s": ("s", "lower"),
    "experiments.run_s": ("s", "lower"),
    "experiments.self_s": ("s", "lower"),
    "config.validate_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans, rounds, overhead_s):
    """Counts and self times per round (all rounds do the same work), plus
    ratios and distance percentiles over the whole traced phase.  Self time is
    a span's duration minus the durations of its child spans."""
    n = len(spans)
    duration = [s[2] - s[1] for s in spans]
    self_time = list(duration)
    in_solver = [False] * n
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            self_time[parent] -= duration[i]
            in_solver[i] = in_solver[parent] or spans[parent][0] == "solver.solve"

    calls, self_s, solver_calls = {}, {}, {}
    for i, span in enumerate(spans):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + self_time[i]
        if in_solver[i]:
            solver_calls[name] = solver_calls.get(name, 0) + 1
    distances = [i for i, s in enumerate(spans) if s[0] == "problem.distance"]
    sweeps = sum(1 for s in spans
                 if s[0] == "space.affine_project" and s[3] >= 0
                 and spans[s[3]][0] == "problem.distance")
    solves = [i for i, s in enumerate(spans) if s[0] == "solver.solve"]
    iterations = sum(spans[i][5] for i in solves)
    solve_time = sum(duration[i] for i in solves)
    dist_ms = sorted(duration[i] * 1e3 for i in distances)

    def c(name):
        return calls.get(name, 0)

    def t(*names):
        return sum(self_s.get(name, 0.0) for name in names)

    per_round = {
        "space.matvec_calls": c("space.matvec"),
        "space.adjoint_calls": c("space.adjoint"),
        "space.matvec_s": t("space.matvec", "space.adjoint"),
        "space.svd_calls": c("space.svd"),
        "space.svd_s": t("space.svd"),
        "space.psd_project_calls": c("space.psd_project"),
        "space.psd_project_s": t("space.psd_project"),
        "space.affine_project_calls": c("space.affine_project"),
        "space.affine_project_s": t("space.affine_project"),
        "losses.value_calls": c("losses.value"),
        "losses.gradient_calls": c("losses.gradient"),
        "losses.in_domain_calls": c("losses.in_domain"),
        "losses.self_s": t("losses.value", "losses.gradient", "losses.in_domain"),
        "regularizers.prox_calls": c("regularizers.prox"),
        "regularizers.prox_s": t("regularizers.prox"),
        "regularizers.value_calls": c("regularizers.value"),
        "regularizers.value_s": t("regularizers.value"),
        "regularizers.inverse_image_calls": c("regularizers.inverse_image"),
        "regularizers.inverse_image_s": t("regularizers.inverse_image"),
        "regularizers.image_project_calls": c("regularizers.image_project"),
        "regularizers.image_project_s": t("regularizers.image_project"),
        "regularizers.subdiff_distance_s": t("regularizers.subdiff_distance"),
        "problem.residual_map_calls": c("problem.residual_map"),
        "problem.residual_map_s": t("problem.residual_map"),
        "problem.distance_calls": len(distances),
        "problem.distance_s": t("problem.distance"),
        "problem.distance_failed": sum(1 for i in distances if spans[i][4]),
        "problem.certify_s": t("problem.certify"),
        "solver.iterations": iterations,
        "solver.self_s": t("solver.solve"),
        "diagnostics.probe_self_s": t("diagnostics.probe"),
        "diagnostics.fit_s": t("diagnostics.fit"),
        "diagnostics.complementarity_s": t("diagnostics.complementarity"),
        "diagnostics.regularity_s": t("diagnostics.regularity"),
        "experiments.run_s": sum(duration[i] for i, s in enumerate(spans)
                                 if s[0] == "experiments.run"),
        "experiments.self_s": t("experiments.run"),
        "config.validate_s": t("config.validate"),
    }
    out = {name: value / rounds for name, value in per_round.items()}
    matvecs = solver_calls.get("space.matvec", 0) + solver_calls.get("space.adjoint", 0)
    prox = solver_calls.get("regularizers.prox", 0)
    out.update({
        "problem.distance_p50_ms": _percentile(dist_ms, 0.5),
        "problem.distance_p90_ms": _percentile(dist_ms, 0.9),
        "problem.sweeps_per_distance": _ratio(sweeps, len(distances)),
        "solver.iter_ms": _ratio(solve_time * 1e3, iterations),
        "solver.matvecs_per_iter": _ratio(matvecs, iterations),
        "solver.svds_per_iter": _ratio(solver_calls.get("space.svd", 0), iterations),
        "solver.prox_per_iter": _ratio(prox, iterations),
        "solver.accepted_step_ratio": _ratio(iterations, prox),
        "trace.overhead_s": overhead_s,
    })
    return out


def _percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[round(q * 100) - 1]
