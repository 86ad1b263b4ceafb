"""Command-line experiment runner.

    ebound run <experiment> [--config <path>] [--out <dir>] [--seed <n>]
    ebound validate <path>
    ebound list

Exit codes: 0 all assertions pass, 1 assertion failure, 2 usage/config error.
Reports go to --out, or else to ebound-out/<experiment> in the working directory.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .config import EXPERIMENTS, load_config, validate_config
from .errors import ConfigError, EboundError
from .experiments import run_experiment


@functools.cache
def _build_parser():
    """The parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="ebound",
                                     description="error-bound probing experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a registry experiment")
    run.add_argument("experiment")
    run.add_argument("--config", help="JSON configuration file")
    run.add_argument("--out", help="output directory")
    run.add_argument("--seed", type=int, help="override the experiment seed")

    val = sub.add_parser("validate", help="validate a configuration file")
    val.add_argument("path")

    sub.add_parser("list", help="list registry experiments")
    return parser


def _cmd_run(args) -> int:
    # run_experiment validates the config
    config = load_config(args.config) if args.config else {}
    exit_code, payload = run_experiment(args.experiment, config,
                                        out_dir=args.out, seed=args.seed)
    for a in payload["assertions"]:
        status = "PASS" if a["passed"] else "FAIL"
        print(f"{status} {a['name']}: {a['detail']}")
    print("overall:", "PASS" if exit_code == 0 else "FAIL")
    return exit_code


def _cmd_validate(args) -> int:
    config = validate_config(args.path)
    print(f"ok: {args.path} ({config.get('experiment', '?')})")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        for name in EXPERIMENTS:
            print(name)
        return 0
    except ConfigError as exc:
        for message in exc.messages:
            print(f"error: {message}", file=sys.stderr)
        return 2
    except EboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
