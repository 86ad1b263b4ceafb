"""Benchmark of the ebound lab: one workload, one seed, one process.

    python3 bench/run.py --workload solve-sparse --seed 1 --seconds 15 --trace 0

Runs from the root of a checkout and imports ebound from its src/ directory.
With --trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run; the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}.  --smoke runs the workload at
toy sizes with one set-up, for the benchmark's own tests.  Workloads, metrics
and reference figures are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: one BLAS thread, so timings do not depend on what else runs on the machine
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

SETUPS = 5
#: companion runs after each timed round; two, so that the reference
#: operations get ten or more repetitions even where a round takes 5 s
COMPANION_REPEATS = 2
#: share of a traced run's time spent on untraced rounds, for the overhead
UNTRACED_SHARE = 1 / 3

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "solve_p50_ms": "ms",
    "solver_iters_per_s": "1/s",
    "probe_samples_per_s": "1/s",
    "registry_pass_p50_s": "s",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    return parser.parse_args(argv)


def blas_threads():
    """Threads of the loaded OpenBLAS, read from the library itself."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def _timed_rounds(ledger, workload, seconds, companion):
    start = time.perf_counter()
    while True:
        ledger.begin_round()
        workload.round(ledger)
        ledger.end_round()
        if companion:
            for _ in range(COMPANION_REPEATS):
                workload.companion(ledger)
        if time.perf_counter() - start >= seconds:
            return


def end_to_end(ledger, setups, reference):
    """The end-to-end metrics of one untraced run.

    The machine is a guest whose vCPU the host preempts for stretches of
    seconds to minutes, invisibly to the guest's clocks: the same
    deterministic solve takes 1× to 2× its fastest time.  Each operation's
    time is therefore scaled by the CPU share the process got around it,
    `reference` ÷ the CPU-share probe next to the operation (see
    cpu_share_probe): its time at the CPU share where the probe takes its
    reference time.  An operation's figure is the median of its scaled
    repetitions; percentiles are then taken across the distinct operations.
    A failed operation adds its time to run_s and nothing to the
    per-operation figures."""

    def typical(reps, failed_too=False):
        kept = [(s * reference / p, n) for s, p, n, ok in reps if ok or failed_too]
        return statistics.median(s for s, _ in kept), kept[0][1]

    def kind(prefix):
        return {key: typical(reps) for key, reps in ledger.times.items()
                if key[0].startswith(prefix) and any(r[3] for r in reps)}

    solves, probes, registry = kind("solve:"), kind("probe:"), kind("registry:")
    solve_s = sum(s for s, _ in solves.values())
    probe_s = sum(s for s, _ in probes.values())
    passes = {}
    for (_, occurrence), (seconds, _) in registry.items():
        passes[occurrence] = passes.get(occurrence, 0.0) + seconds
    values = {
        "setup_s": statistics.median(s * reference / p for s, p in setups),
        "run_s": sum(typical(ledger.times[key], failed_too=True)[0]
                     for key in ledger.timed_keys),
        "solve_p50_ms": 1e3 * statistics.median(s for s, _ in solves.values())
        if solves else None,
        "solver_iters_per_s": sum(n for _, n in solves.values()) / solve_s if solve_s else None,
        "probe_samples_per_s": sum(n for _, n in probes.values()) / probe_s if probe_s else None,
        "registry_pass_p50_s": statistics.median(passes.values()) if passes else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name, value in values.items():
        if value is None:
            ledger.problems.append(f"{name}: no successful operation to measure")
    return {name: {"value": value or 0.0, "unit": END_TO_END[name]}
            for name, value in values.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "ebound" / "__init__.py").is_file():
        print(f"error: no ebound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import ebound
    import layers
    import workloads

    if Path(ebound.__file__).resolve().parent != ROOT / "src" / "ebound":
        print(f"error: imported ebound from {ebound.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        for _ in range(1 if args.smoke else SETUPS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            before = workloads.cpu_share_probe()
            start = time.perf_counter()
            workload = workloads.WORKLOADS[args.workload](args.seed, work, args.smoke)
            seconds = time.perf_counter() - start
            setups.append((seconds, (before + workloads.cpu_share_probe()) / 2.0))

        ledger = workloads.Ledger(workload.expected_failures)
        if args.trace:
            _timed_rounds(ledger, workload, args.seconds * UNTRACED_SHARE, False)
            untraced = list(ledger.round_times)
            tracer = layers.Tracer()
            tracer.install()
            try:
                _timed_rounds(ledger, workload, args.seconds * (1 - UNTRACED_SHARE), False)
            finally:
                tracer.uninstall()
            traced = ledger.round_times[len(untraced):]
            overhead = min(traced) - min(untraced)
            values = layers.layer_metrics(tracer.spans, len(traced), overhead)
            spans_dir = ROOT / ".bench_work" / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            tracer.write_csv(spans_dir / f"{args.workload}-seed{args.seed}.csv")
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, (unit, _) in layers.LAYER_METRICS.items()}
        else:
            _timed_rounds(ledger, workload, args.seconds, True)
            metrics = end_to_end(ledger, setups, workloads.REFERENCE_PROBE_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    unexpected = ledger.unexpected_failures()
    for label, kind, message in unexpected:
        print(f"FAILED {label}: {kind}: {message}", file=sys.stderr)
    for problem in ledger.problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
                      "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
                      "blas_threads": blas_threads(),
                      "rounds": len(ledger.round_times),
                      "expected_failures": sorted(ledger.expected_failures)}))
    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not ledger.problems and not unexpected,
                      "attempted": ledger.attempted, "failed": ledger.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
