#!/usr/bin/env python3
"""The registry matrix: every registry command run in-process through
ebound.cli.main, the report tree it writes, and the sha256 digest of it.

    PYTHONPATH=src python3 tools/registry_matrix.py tree OUT
    PYTHONPATH=src python3 tools/registry_matrix.py digest
    PYTHONPATH=src python3 tools/registry_matrix.py census

`tree` runs `list` and the commands for the names it prints, and writes
each command's exit code, stdout, stderr and report files under
OUT/<case>/ (a `run` writes its reports to OUT/<case>/reports).  It runs
the ebound on PYTHONPATH, so `PYTHONPATH=<other checkout>/src` writes the
tree of another checkout, and prints that checkout and the number of
commands.  The path of the checkout is replaced by CHECKOUT in stderr
(warnings, tracebacks); the command list and the custom configs always
come from beside this script.  Two trees compare with `diff -r`, or number
by number with tools/registry_matrix_diff.py.  A command that raises
stops the run with its traceback.

`digest` runs the same commands into a temporary tree and rewrites
tools/registry_matrix_digest.json: for each case, the sha256 of every file
`tree` writes, with the numpy, BLAS and platform it ran on.
tests/test_registry_digest.py checks every tier-1 run against that file,
so a change that means to alter any output regenerates it with `digest`
and says which digests moved and why.

The commands: every registry experiment but custom with no seed and with
--seed 0, 1 and 2 (counterexample and noncompact read no seed, so their
seeded commands exit 2 and write no reports); noncompact on
tools/noncompact-ray.json (the ray from x = -5 to -40 at y = 1); and custom
on each tools/registry_matrix/*.json with no seed and seeds 0, 1, 2.

`census` runs lasso, grouped-lasso and strongly-convex at seeds 0-49, and
lasso, grouped-lasso and custom on tools/registry_matrix/minimal.json with
{"solver": {"tol": 1e-6}}, and rewrites tools/verdict_census.json: for each
run, the exit code the CLI gives, each assertion's pass or fail, and the
error class of a run that raises (no detail strings, so digits that move
do not churn it).  tests/test_verdict_census.py names each (run,
assertion) whose verdict moved; a change that mends a failure regenerates
the file and says which rows moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "registry_matrix"
#: the noncompact ray's config; outside CONFIGS, whose files run as custom
RAY_CONFIG = HERE / "noncompact-ray.json"
DIGEST = HERE / "registry_matrix_digest.json"
CENSUS = HERE / "verdict_census.json"
SEEDS = (0, 1, 2)
CENSUS_SUITES, CENSUS_SEEDS = ("lasso", "grouped-lasso", "strongly-convex"), range(50)
#: a solver tolerance loose enough to leave these runs' inverse images empty
LOOSE = {"solver": {"tol": 1e-6}}


def commands(names) -> list:
    """(case, argv) for every command after `list`, given the names it printed."""
    out = []
    for name in names:
        if name == "custom":
            continue
        out.append((name, ["run", name]))
        out.extend((f"{name}-seed{s}", ["run", name, "--seed", str(s)]) for s in SEEDS)
    out.append(("noncompact-ray", ["run", "noncompact", "--config", str(RAY_CONFIG)]))
    for config in sorted(CONFIGS.glob("*.json")):
        case, argv = f"custom-{config.stem}", ["run", "custom", "--config", str(config)]
        out.append((case, argv))
        out.extend((f"{case}-seed{s}", argv + ["--seed", str(s)]) for s in SEEDS)
    return out


def environment() -> dict:
    """The numpy, BLAS and platform the output bytes depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '?')}",
            "platform": f"{platform.machine()} {platform.system()}, "
                        f"Python {platform.python_version()}"}


def checkout() -> str:
    """The checkout whose src/ holds the imported ebound."""
    import ebound

    return str(Path(ebound.__file__).resolve().parents[2])


def _record(case_dir: Path, argv, checkout: str) -> tuple:
    """Run one CLI command in-process and write its exit code, stdout and
    stderr into case_dir: each warning as the interpreter would print it,
    and `checkout` replaced by CHECKOUT in stderr.  Returns (stdout,
    {file: sha256} for every file in case_dir)."""
    from ebound import cli

    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("default")
        code = cli.main(argv)
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno, w.line))
    case_dir.mkdir(parents=True, exist_ok=True)
    (case_dir / "exit").write_text(f"{code}\n")
    (case_dir / "stdout").write_text(out.getvalue())
    (case_dir / "stderr").write_text(err.getvalue().replace(checkout, "CHECKOUT"))
    return out.getvalue(), {path.relative_to(case_dir).as_posix():
                            hashlib.sha256(path.read_bytes()).hexdigest()
                            for path in sorted(case_dir.rglob("*")) if path.is_file()}


def run_in_process(out: Path) -> dict:
    """Run `list` and every command into the tree `out`, one directory per
    case; returns {case: {file: sha256}}."""
    where = checkout()
    listed, digest = _record(out / "list", ["list"], where)
    cases = {"list": digest}
    for case, argv in commands(listed.split()):
        _, cases[case] = _record(out / case, argv + ["--out", str(out / case / "reports")],
                                 where)
    return cases


def census_runs() -> list:
    """(case, experiment, config, seed) for every census run."""
    runs = [(f"{name}-seed{seed}", name, None, seed)
            for name in CENSUS_SUITES for seed in CENSUS_SEEDS]
    runs += [(f"{name}-tol1e-6", name, LOOSE, None) for name in ("lasso", "grouped-lasso")]
    minimal = json.loads((CONFIGS / "minimal.json").read_text())
    return runs + [("custom-minimal-tol1e-6", "custom", {**minimal, **LOOSE}, None)]


def census() -> dict:
    """{case: verdicts} for every census run, in-process: the exit code the
    CLI gives and each assertion's pass or fail, or the exit code and the
    class of the error a run raises."""
    from ebound.errors import ConfigError, EboundError
    from ebound.experiments import run_experiment

    verdicts = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case, name, config, seed in census_runs():
            try:
                code, payload = run_experiment(name, config, out_dir=Path(tmp, case), seed=seed)
            except EboundError as exc:
                verdicts[case] = {"exit": 2 if isinstance(exc, ConfigError) else 1,
                                  "error": type(exc).__name__}
                continue
            verdicts[case] = {"exit": code, "assertions": {
                a["name"]: a["passed"] for a in payload["assertions"]}}
    return verdicts


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "tree":
        cases = run_in_process(Path(argv[1]))
        print(f"wrote {argv[1]} ({len(cases)} commands, ebound from {checkout()})")
        return 0
    if argv == ["digest"]:
        with tempfile.TemporaryDirectory() as tmp:
            cases = run_in_process(Path(tmp))
        DIGEST.write_text(json.dumps({**environment(), "cases": cases}, indent=1) + "\n")
        print(f"wrote {DIGEST} ({len(cases)} commands)")
        return 0
    if argv == ["census"]:
        verdicts = census()
        CENSUS.write_text(json.dumps(verdicts, indent=1) + "\n")
        print(f"wrote {CENSUS} ({len(verdicts)} runs)")
        return 0
    print("usage:", *__doc__.splitlines()[3:6], sep="\n", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
