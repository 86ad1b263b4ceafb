"""The benchmark's inputs, operations and workloads.

Every workload is a closed loop in one process: the benchmark calls a public
function of ebound, waits for it, checks its output against checks.py, and
calls the next.  A round is a fixed list of operations; the timed phase
repeats whole rounds, so the share of failed operations is the same in every
run.  Each operation's time is the time spent inside the program's call;
checks run outside it.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from pathlib import Path

import numpy as np

import checks
import ebound
from checks import CheckFailed, CompletionData, SparseData
from ebound import cli
from ebound.solver import lipschitz_bound

SOLVE_TOL = 1e-11
MAX_ITER = 200000
SPARSE_CERT_TOL = 1e-9
NUCLEAR_CERT_TOL = 1e-10
PROBE_RADII = np.logspace(-2, -4, 9)
PROBE_DIRECTIONS = 6
#: instances drawn from --seed for each of the two sparse families; with
#: one, the seed alone moved the summed iteration counts of a round by 0.08
#: (quartile distance over median, 20 seeds), with two by 0.044
SPARSE_PER_FAMILY = 2
#: matrix-completion instances come from these family seeds whatever --seed
#: is, because the third one carries a known fault (see NUCLEAR_FAULT)
NUCLEAR_SEEDS = (0, 1, 2, 3)
#: family seed 2 certifies to ‖R(x*)‖ ≈ 9.5e-12 but its x* lies ≈ 7.9e-10
#: from Γ_P(ḡ); every distance_to_solution_set call on it stalls at a gap of
#: ≈ 5e-10 > 1e-10 and raises ConvergenceError after 10⁴ sweeps
NUCLEAR_FAULT = 2
#: a short probe: 3 radii × 2 directions
SHORT_RADII = np.logspace(-2, -4, 3)
SHORT_DIRECTIONS = 2
#: two probe points for the faulty instance, so that a probe which stops
#: aborting on the first failed distance costs at most two stalled calls
FAULT_RADII = np.array([1e-3])
#: iterations of cpu_share_probe's loop
CPU_SHARE_PROBE_LOOPS = 150_000
#: the probe's time at the reference CPU share, close to its fastest time on
#: the machine of bench/README.md (8.6 ms over 5800 probes); every time the
#: benchmark reports is scaled to the CPU share where the probe takes this
REFERENCE_PROBE_S = 0.0085
REGISTRY = ("counterexample", "noncompact", "lasso", "grouped-lasso",
            "strongly-convex", "nuclear-regular", "custom")
#: the registry experiments that take --seed and pass on every seed tried;
#: lasso and grouped-lasso fail their own assertions on some seeds, so they
#: run at their default seed (see bench/README.md)
SEEDED_EXPERIMENTS = ("strongly-convex", "nuclear-regular")


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

class Instance:
    def __init__(self, name, prob, data, x0):
        self.name, self.prob, self.data, self.x0 = name, prob, data, x0
        self.lipschitz = lipschitz_bound(prob)


def lasso(seed, m, n):
    """LASSO built like the registry's lasso_instance."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((m, n))
    x_true = np.zeros(n)
    x_true[0], x_true[3] = 1.5, -2.0
    b = M @ x_true + 0.05 * rng.standard_normal(m)
    lam = 0.3 * float(np.max(np.abs(M.T @ b)))
    smooth = ebound.CompositeSmooth(ebound.LeastSquares(b), ebound.DenseMap(M, (n,)),
                                    np.zeros(n))
    prob = ebound.ProblemInstance(smooth, ebound.L1(lam), np.zeros(n))
    return Instance(f"lasso-{m}x{n}-s{seed}", prob, SparseData(M, b, lam=lam), np.zeros(n))


def grouped(seed, m, n, size):
    """Grouped LASSO built like the registry's grouped_lasso_instance, with
    n/size consecutive groups."""
    rng = np.random.default_rng(seed)
    groups = np.arange(n).reshape(-1, size)
    M = rng.standard_normal((m, n))
    x_true = np.zeros(n)
    x_true[:3] = [1.0, -1.5, 0.5]
    b = M @ x_true + 0.05 * rng.standard_normal(m)
    grad0 = M.T @ (-b)
    weights = np.full(len(groups), 0.45 * float(np.max(np.linalg.norm(grad0[groups], axis=1))))
    smooth = ebound.CompositeSmooth(ebound.LeastSquares(b), ebound.DenseMap(M, (n,)),
                                    np.zeros(n))
    reg = ebound.GroupedLasso(groups.tolist(), weights.tolist())
    prob = ebound.ProblemInstance(smooth, reg, np.zeros(n))
    data = SparseData(M, b, groups=groups, weights=weights)
    return Instance(f"grouped-{m}x{n}-s{seed}", prob, data, np.zeros(n))


def completion(seed, m=20, n=30, rank=2):
    """Nuclear-norm matrix completion: a rank-`rank` truth, each entry
    observed with probability 1/2."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    rows, cols = np.nonzero(rng.random((m, n)) < 0.5)
    b = X[rows, cols]
    A = ebound.CoordinateSelectMap(tuple(zip(rows.tolist(), cols.tolist())), (m, n))
    smooth = ebound.CompositeSmooth(ebound.LeastSquares(b), A, np.zeros((m, n)))
    prob = ebound.ProblemInstance(smooth, ebound.NuclearNorm(), np.zeros((m, n)))
    data = CompletionData((m, n), rows, cols, b)
    return Instance(f"completion-{m}x{n}-s{seed}", prob, data, np.zeros((m, n)))


def custom_config(seed):
    """An L1 problem for the registry's custom experiment: a tall 40×10 map,
    so the optimum is unique and the cost of solve and probe barely depends
    on the seed (with a 6×10 map it varied from 31 to 318 ms over 16 seeds)."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((40, 10))
    x_true = np.zeros(10)
    x_true[1], x_true[4] = 1.0, -0.5
    b = M @ x_true + 0.05 * rng.standard_normal(40)
    lam = 0.3 * float(np.max(np.abs(M.T @ b)))
    return {"experiment": "custom", "seed": seed,
            "problem": {"shape": {"vector": 10},
                        "loss": {"least_squares": {"targets": b.tolist()}},
                        "linear_map": {"dense": M.tolist()},
                        "regularizer": {"l1": {"weight": lam}}}}


# ---------------------------------------------------------------------------
# the ledger of one run
# ---------------------------------------------------------------------------

def cpu_share_probe() -> float:
    """Seconds of a fixed ~10 ms pure-Python loop.  Run next to each
    operation: on a guest whose vCPU the host preempts, the loop's time
    rises with the share of the CPU the process did not get."""
    start = time.perf_counter()
    total = 0
    for i in range(CPU_SHARE_PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - start


class Ledger:
    """Operations attempted and failed, failed checks, and every
    operation's timings.  An operation is keyed by its label and by how many
    times that label already ran in the current round, so the same call in
    every round shares one key; only the operations of timed rounds count
    in attempted and failed.  Each timing is kept with the CPU-share probe
    measured around it (the mean of the probes just before and after)."""

    def __init__(self, expected_failures=()):
        self.expected_failures = set(expected_failures)
        self.counting = False
        self.attempted = 0
        self.failed = 0
        self.failures = []      # (label, exception type, message)
        self.problems = []      # failed checks
        self.round_times = []   # program seconds of each timed round
        self.times = {}         # (label, occurrence) → [(seconds, probe, count, ok)]
        self.timed_keys = set()
        self.cpu_probes = [cpu_share_probe()]
        self._occurrences = {}
        self._round_time = 0.0

    def begin_round(self):
        self.counting = True
        self._occurrences = {}
        self._round_time = 0.0

    def end_round(self):
        self.round_times.append(self._round_time)
        self.counting = False

    def call(self, label, fn, *args, measure=None, **kwargs):
        """One operation: returns its result, or None when it raised; an
        exception counts as a failed operation and the run goes on.
        measure(result) gives the work count kept with the timing."""
        occurrence = self._occurrences.get(label, 0)
        self._occurrences[label] = occurrence + 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # recorded, never re-raised
            result = None
            self.failures.append((label, type(exc).__name__, str(exc)))
        seconds = time.perf_counter() - start
        self.cpu_probes.append(cpu_share_probe())
        probe = (self.cpu_probes[-2] + self.cpu_probes[-1]) / 2.0
        ok = result is not None
        count = measure(result) if ok and measure else 0
        key = (label, occurrence)
        self.times.setdefault(key, []).append((seconds, probe, count, ok))
        if self.counting:
            self.timed_keys.add(key)
            self.attempted += 1
            self.failed += not ok
            self._round_time += seconds
        return result

    def check(self, label, fn, *args):
        try:
            fn(*args)
        except CheckFailed as exc:
            self.problems.append(f"{label}: {exc}")

    def unexpected_failures(self):
        return [f for f in self.failures if (f[0], f[1]) not in self.expected_failures]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def solve(ledger, inst, step):
    label = f"solve:{inst.name}:{type(step).__name__}"
    trace = ledger.call(label, ebound.proximal_gradient, inst.prob, inst.x0,
                        step=step, tol=SOLVE_TOL, max_iter=MAX_ITER,
                        measure=lambda t: len(t.iterations) - 1)
    if trace is None:
        return None
    ledger.check(label, check_solution, inst, trace)
    return trace.terminal


def check_solution(inst, trace):
    if trace.status != "converged":
        raise CheckFailed(f"solver stopped with status {trace.status}")
    if isinstance(inst.data, SparseData):
        checks.check_sparse_kkt(inst.data, trace.terminal)
    else:
        checks.check_nuclear_kkt(inst.data, trace.terminal)


def certify(ledger, inst, x, tol):
    return ledger.call(f"certify:{inst.name}", ebound.certify, inst.prob, x, tol)


def probe(ledger, inst, cert, radii, count, direction_seed, *, slope=True):
    """One probe call per radius, each over the same `count` directions, so
    that one operation stays short next to the machine's slow stretches; the
    union is the sample set a single call over all radii returns."""
    label = f"probe:{inst.name}"
    samples = []
    for rho in radii:
        got = ledger.call(label, ebound.probe, inst.prob, cert, [rho],
                          ebound.RandomDirections(count, direction_seed), measure=len)
        if got is None:
            return
        samples.extend(got)
    ledger.check(label, check_samples, inst.data, cert.x_star, samples,
                 len(radii) * count, slope)


def check_samples(data, x_star, samples, expected, slope):
    """Every distance lies between its two numpy lower pieces and
    ‖x − x*‖, every ‖R(x)‖ matches its recomputation, and (when asked) the
    log-log slope is that of a Lipschitzian error bound."""
    if len(samples) != expected:
        raise CheckFailed(f"{len(samples)} samples returned, {expected} expected")
    y_bar, g_bar = data.image(x_star), data.gradient(x_star)
    for s in samples:
        checks.check_distance(s.d, data.affine_distance(y_bar, s.x),
                              data.gamma_distance(g_bar, s.x),
                              float(np.linalg.norm(s.x - x_star)))
        checks.check_residual(s.r_prox, data, s.x)
    if slope:
        checks.check_slope([s.d for s in samples], [s.r_prox for s in samples])


def complementarity(ledger, inst, cert):
    label = f"complementarity:{inst.name}"
    report = ledger.call(label, ebound.strict_complementarity, inst.prob, cert)
    if report is not None:
        ledger.check(label, checks.check_complementarity, report.s_bar, report.rank_x,
                     inst.data, cert.x_star, inst.data.gradient(cert.x_star))


def registry_pass(ledger, argvs, out_dir: Path):
    """Every named experiment once through the CLI entry, in this process."""
    for name, argv in argvs:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stdout):
            code = ledger.call(f"registry:{name}", cli.main,
                               argv + ["--out", str(out_dir / name)])
        if code is not None:
            ledger.check(f"registry:{name}", checks.check_cli_pass, code, stdout.getvalue())


def registry_argvs(seed, work: Path):
    config = work / f"custom-{seed}.json"
    config.write_text(json.dumps(custom_config(seed)))
    argvs = []
    for name in REGISTRY:
        argv = ["run", name]
        if name in SEEDED_EXPERIMENTS:
            argv += ["--seed", str(seed)]
        if name == "custom":
            argv += ["--config", str(config)]
        argvs.append((name, argv))
    return argvs


def warm_distance(inst, cert):
    """First distance call: builds the lazily cached pseudoinverse."""
    ebound.distance_to_solution_set(inst.prob, cert, cert.x_star)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Reference:
    """The companion operations: the registry's own lasso (6×8) and
    grouped-lasso (7×9) instances at their default seed 0, solved and probed
    as the registry does, and one registry pass at seed 0.  None of it
    depends on --seed, so these figures move only with the program."""

    def __init__(self, work: Path):
        self.work = work
        self.argvs = registry_argvs(0, work)
        self.instances = [lasso(0, 6, 8), grouped(0, 7, 9, 3)]
        self.certs = []
        for inst in self.instances:
            trace = ebound.proximal_gradient(inst.prob, inst.x0,
                                             step=ebound.Fixed(1.0 / inst.lipschitz),
                                             tol=SOLVE_TOL, max_iter=MAX_ITER)
            self.certs.append(ebound.certify(inst.prob, trace.terminal, SPARSE_CERT_TOL))

    def solves(self, ledger):
        for inst in self.instances:
            solve(ledger, inst, ebound.Fixed(1.0 / inst.lipschitz))

    def probes(self, ledger):
        for inst, cert in zip(self.instances, self.certs):
            probe(ledger, inst, cert, PROBE_RADII, PROBE_DIRECTIONS, 1000)

    def registry(self, ledger):
        registry_pass(ledger, self.argvs, self.work / "reference")


class Workload:
    """Set-up happens in __init__; round() is the fixed list of timed
    operations.  companion() runs after each timed round, untimed and
    uncounted, the Reference operations of the kinds the round lacks, so
    that every run reports every end-to-end metric."""

    expected_failures = ()

    def __init__(self, seed, work: Path, smoke: bool):
        self.seed, self.work, self.smoke = seed, work, smoke
        self._reference = None

    @property
    def reference(self):
        if self._reference is None:
            self._reference = Reference(self.work)
        return self._reference

    def round(self, ledger):
        raise NotImplementedError

    def companion(self, ledger):
        raise NotImplementedError

    def _sparse_instances(self):
        m, n = (40, 100) if self.smoke else (400, 1000)
        seeds = [self.seed * SPARSE_PER_FAMILY + i for i in range(SPARSE_PER_FAMILY)]
        return ([lasso(s, m, n) for s in seeds]
                + [grouped(s, m, n, 5) for s in seeds])


class SolveSparse(Workload):
    """proximal_gradient from 0 to ‖R‖ ≤ 1e-11 under Fixed(1/L) and
    Backtracking() on LASSO and grouped-LASSO instances."""

    def __init__(self, seed, work, smoke):
        super().__init__(seed, work, smoke)
        self.instances = self._sparse_instances()
        for inst in self.instances:
            ebound.residual_map(inst.prob, inst.x0)

    def round(self, ledger):
        for inst in self.instances:
            for step in (ebound.Fixed(1.0 / inst.lipschitz), ebound.Backtracking()):
                solve(ledger, inst, step)

    def companion(self, ledger):
        self.reference.probes(ledger)
        self.reference.registry(ledger)


class ProbePolyhedral(Workload):
    """probe over 9 radii × 6 directions around certified LASSO and
    grouped-LASSO optima; the solves happen in set-up."""

    def __init__(self, seed, work, smoke):
        super().__init__(seed, work, smoke)
        self.instances = self._sparse_instances()
        self.certs = []
        for inst in self.instances:
            trace = ebound.proximal_gradient(inst.prob, inst.x0, step=ebound.Backtracking(),
                                             tol=SOLVE_TOL, max_iter=MAX_ITER)
            cert = ebound.certify(inst.prob, trace.terminal, SPARSE_CERT_TOL)
            warm_distance(inst, cert)
            self.certs.append(cert)

    def round(self, ledger):
        for i, (inst, cert) in enumerate(zip(self.instances, self.certs)):
            probe(ledger, inst, cert, PROBE_RADII, PROBE_DIRECTIONS, self.seed * 8 + i)

    def companion(self, ledger):
        self.reference.solves(ledger)
        self.reference.registry(ledger)


class NuclearCompletion(Workload):
    """Per matrix-completion instance: proximal_gradient → certify →
    strict_complementarity → probe.  The instances are fixed; --seed draws
    the probe directions."""

    expected_failures = (
        (f"probe:completion-20x30-s{NUCLEAR_FAULT}", "ConvergenceError"),)

    def __init__(self, seed, work, smoke):
        super().__init__(seed, work, smoke)
        seeds = (0, NUCLEAR_FAULT) if smoke else NUCLEAR_SEEDS
        self.instances = [completion(s) for s in seeds]
        for inst in self.instances:
            ebound.residual_map(inst.prob, inst.x0)

    def round(self, ledger):
        for inst in self.instances:
            x = solve(ledger, inst, ebound.Fixed(1.0 / inst.lipschitz))
            if x is None:
                continue
            cert = certify(ledger, inst, x, NUCLEAR_CERT_TOL)
            if cert is None:
                continue
            complementarity(ledger, inst, cert)
            faulty = inst.name.endswith(f"-s{NUCLEAR_FAULT}")
            probe(ledger, inst, cert, FAULT_RADII if faulty else SHORT_RADII,
                  SHORT_DIRECTIONS, self.seed, slope=not faulty)

    def companion(self, ledger):
        self.reference.registry(ledger)


class Registry(Workload):
    """Two passes over every named experiment with identical (config, seed);
    the two report trees must be byte-identical."""

    def __init__(self, seed, work, smoke):
        super().__init__(seed, work, smoke)
        self.argvs = registry_argvs(seed, work)
        registry_pass(Ledger(), self.argvs, work / "warm")

    def round(self, ledger):
        for side in ("A", "B"):
            shutil.rmtree(self.work / side, ignore_errors=True)
            registry_pass(ledger, self.argvs, self.work / side)
        ledger.check("registry:byte-identical", checks.check_identical_trees,
                     self.work / "A", self.work / "B")

    def companion(self, ledger):
        self.reference.solves(ledger)
        self.reference.probes(ledger)


WORKLOADS = {
    "solve-sparse": SolveSparse,
    "probe-polyhedral": ProbePolyhedral,
    "nuclear-completion": NuclearCompletion,
    "registry": Registry,
}
