"""Command-line benchmark harness.

Subcommands:

    run      one (scenario, integrator) trajectory, CSV out
    compare  several integrators on one scenario, text table
    check    fast invariant self-tests (round trips, dual pairings, ...)

Exit codes: 0 success, 1 usage or config error, 2 integrator failure.
"""

from __future__ import annotations

import argparse
import errno
import gc
import os
import sys

from . import bench
from .errors import GeomintError, IntegratorFailure


# the run settings; each has its own flag, and --param takes model parameters only
_RUN_FLAGS = ("scenario", "integrator", "dt", "steps", "theta")


def _parse_param_overrides(pairs: list[str]) -> dict:
    out: dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise GeomintError(f"--param expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        key = key.strip()
        if key in _RUN_FLAGS:
            raise GeomintError(f"--param {key} is not a model parameter; use --{key}")
        if key in out:
            raise GeomintError(f"--param {key} is given twice")
        try:
            out[key] = bench._parse_value(value)
        except ValueError:
            raise GeomintError(
                f"--param {key} expects numbers separated by commas, got {value!r}"
            ) from None
    return out


def _cmd_run(args) -> int:
    overrides = _parse_param_overrides(args.param)
    # a flag that is given wins over the config file; any of them may come from it
    for key in _RUN_FLAGS:
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    config = bench.parse_config(args.config, overrides)
    count = bench.run_scenario(config, args.out)
    print(f"wrote {count} records to {args.out}")
    return 0


def _cmd_compare(args) -> int:
    integrators = [name.strip() for name in args.integrators.split(",") if name.strip()]
    if not integrators:
        raise GeomintError("--integrators must list at least one integrator")
    kwargs = {}
    if args.dt is not None:
        kwargs["dt"] = args.dt
    if args.steps is not None:
        kwargs["steps"] = args.steps
    configs = [
        bench.default_config(args.scenario, name, **kwargs) for name in integrators
    ]
    if args.out:
        # say before the first step what the open after the last would say
        if os.path.isdir(args.out):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.out)
        if not os.path.isdir(os.path.dirname(args.out) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
    table = bench.compare(configs)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table + "\n")
        print(f"wrote comparison to {args.out}")
    else:
        print(table)
    return 0


def _cmd_check(args) -> int:
    from . import selfcheck

    return selfcheck.run_checks()


class _UsageParser(argparse.ArgumentParser):
    """Exits 1 on a usage error; argparse's own 2 is the integrator-failure code."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _UsageParser(
        prog="geomint",
        description="Structure-preserving integrator benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and write a CSV")
    run_p.add_argument("--scenario", default=None, choices=bench.SCENARIOS)
    run_p.add_argument("--integrator", default=None, choices=bench.INTEGRATORS)
    run_p.add_argument("--dt", type=float, default=None)
    run_p.add_argument("--steps", type=int, default=None)
    run_p.add_argument("--theta", type=float, default=None)
    run_p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="model parameter override (repeatable)",
    )
    run_p.add_argument("--config", default=None, help="flat key = value config file")
    run_p.add_argument("--out", required=True, help="output CSV path")
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare", help="compare integrators on one scenario")
    cmp_p.add_argument("--scenario", required=True, choices=bench.SCENARIOS)
    cmp_p.add_argument(
        "--integrators", required=True, help="comma-separated integrator names"
    )
    cmp_p.add_argument("--dt", type=float, default=None)
    cmp_p.add_argument("--steps", type=int, default=None)
    cmp_p.add_argument("--out", default=None, help="optional output text path")
    cmp_p.set_defaults(func=_cmd_compare)

    chk_p = sub.add_parser("check", help="run the invariant self-test suite")
    chk_p.set_defaults(func=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    # OpenBLAS starts a worker thread when numpy is imported, and that thread
    # spins for about 0.13 s of CPU without ever getting work: the largest
    # system solved here is 8x8.  Set before any command imports numpy, this
    # reaches compare's forked workers too.  A thread count the user set still
    # wins (OPENBLAS_NUM_THREADS and MKL_NUM_THREADS are read first); library
    # use, which never calls main, leaves the environment alone.
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IntegratorFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GeomintError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        # Python's shutdown runs a full collection over every tracked object,
        # numpy's ~21k among them, whether or not collection is enabled.  A
        # command leaves no cyclic garbage worth that walk, so it freezes what
        # it made: the walk skips frozen objects and the OS reclaims them at
        # exit.  An in-process caller keeps a working collector for what it
        # makes afterwards.
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
