#!/usr/bin/env python3
"""The registry matrix: the CLI commands that tools/registry_matrix.sh runs,
and the sha256 digest of what they write.

    python3 tools/registry_matrix.py commands <NAMES
    PYTHONPATH=src python3 tools/registry_matrix.py digest

`commands` prints one line `CASE ARG...` per command for the experiment
names on standard input, the output of `ebound list`.  `digest` runs `list`
and those commands in-process through ebound.cli.main and rewrites
tools/registry_matrix_digest.json: for each case, the sha256 of its exit
code, stdout, stderr and every report file, exactly as registry_matrix.sh
records them under OUT/<case>/, with the numpy, BLAS and platform it ran on.
tests/test_registry_digest.py checks every tier-1 run against that file, so
a change that means to alter any output regenerates it with `digest` and
says which digests moved and why.

The commands: every registry experiment but custom with no seed and with
--seed 0, 1 and 2; noncompact --x-range=-5..-40 --y 1; and custom on each
tools/registry_matrix/*.json with no seed and seeds 0, 1, 2.  A `run`
command writes its reports to OUT/<case>/reports.
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
DIGEST = HERE / "registry_matrix_digest.json"
SEEDS = (0, 1, 2)


def commands(names) -> list:
    """(case, argv) for every command after `list`, given the names it printed."""
    out = []
    for name in names:
        if name == "custom":
            continue
        out.append((name, ["run", name]))
        out.extend((f"{name}-seed{s}", ["run", name, "--seed", str(s)]) for s in SEEDS)
    out.append(("noncompact-ray", ["run", "noncompact", "--x-range=-5..-40", "--y", "1"]))
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


def _record(case_dir: Path, argv, checkout: str) -> tuple:
    """Run one CLI command in-process and write its exit code, stdout and
    stderr into case_dir as registry_matrix.sh does: each warning as the
    interpreter would print it, and `checkout` replaced by CHECKOUT in
    stderr.  Returns (stdout, {file: sha256} for every file in case_dir)."""
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
    """Run `list` and every command into the tree `out`, laid out as
    registry_matrix.sh lays it out; returns {case: {file: sha256}}."""
    import ebound

    checkout = str(Path(ebound.__file__).resolve().parents[2])
    listed, digest = _record(out / "list", ["list"], checkout)
    cases = {"list": digest}
    for case, argv in commands(listed.split()):
        _, cases[case] = _record(out / case, argv + ["--out", str(out / case / "reports")],
                                 checkout)
    return cases


def main(argv) -> int:
    if argv == ["commands"]:
        for case, args in commands(sys.stdin.read().split()):
            print(case, *args)
        return 0
    if argv == ["digest"]:
        with tempfile.TemporaryDirectory() as tmp:
            cases = run_in_process(Path(tmp))
        DIGEST.write_text(json.dumps({**environment(), "cases": cases}, indent=1) + "\n")
        print(f"wrote {DIGEST} ({len(cases)} commands)")
        return 0
    print("usage:", *__doc__.splitlines()[3:5], sep="\n", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
