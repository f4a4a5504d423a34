"""Command-line front end.

Subcommands: simulate, sweep-cpi, sweep-framegap, beam-pattern, selftest.
Exit codes: 0 success, 1 configuration error, 2 runtime estimation failure.
"""

import argparse
import os
import re
import sys
from dataclasses import fields, replace

import numpy as np

from . import harness
from .errors import AggregationError, EstimationError, ScenarioError
from .harness import ESTIMATORS, ExperimentConfig
from .phasedarray import gain_cut
from .scene import Scenario, designed_beam, load_scenario
from .selftest import run_selftest


class _Parser(argparse.ArgumentParser):
    """argparse terminates with code 2 on usage errors; the CLI contract is 1.
    A subcommand shows its own usage for an argument it does not take."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        self._negative_number_matcher = re.compile(r"-\.?\d")  # -1e1 is a value, not a flag
        parsed, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return parsed, extras


class _UsageError(Exception):
    pass


# Every flag of the CLI, once.  A flag that sets an ExperimentConfig field has
# that field as its dest.
_FLAGS = {
    "--scenario": dict(help="scenario JSON file (default: built-in)"),
    "--cpi": dict(type=float, dest="cpi_s", metavar="CPI", help="CPI duration in seconds"),
    "--trials": dict(type=int),
    "--p-tx-dbm": dict(type=float),
    "--seed": dict(type=int),
    "--mi-offset": dict(type=int, dest="m_i_offset", metavar="MI_OFFSET",
                        help="m_d - m_i frame gap"),
    "--output": dict(default="-", help="CSV path ('-' for stdout)"),
    "--estimator": dict(choices=tuple(ESTIMATORS), dest="estimators",
                        default=ExperimentConfig.estimators),
    "--cpis": dict(type=float, nargs="+", default=(1e-4, 2e-4, 4e-4, 6e-4, 8e-4, 1e-3)),
    "--p-tx-grid": dict(type=float, nargs="+", default=(10.0, 20.0),
                        help="TX powers in dBm (default: 10 20)"),
    "--gaps": dict(type=int, nargs="+", default=tuple(range(1, 11))),
    "--resolution": dict(type=float, default=1e-3),
}

# Subcommand -> its help and the flags it reads (a sweep's points set their own
# CPI, power or gap).  No parser takes an abbreviated flag.
_COMMANDS = {
    "simulate": ("Monte Carlo NMSE at one CPI", "--scenario --cpi --trials "
                 "--p-tx-dbm --seed --mi-offset --output --estimator"),
    "sweep-cpi": ("NMSE of both estimators versus CPI", "--scenario --trials "
                  "--seed --mi-offset --output --cpis --p-tx-grid"),
    "sweep-framegap": ("proposed-estimator NMSE versus m_d - m_i", "--scenario "
                       "--cpi --trials --p-tx-dbm --seed --output --gaps"),
    "beam-pattern": ("azimuth gain cut of the designed beam",
                     "--scenario --resolution --output"),
    "selftest": ("run the built-in invariant battery", ""),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="adradar", allow_abbrev=False, description="802.11ad "
                     "joint radar-communication velocity-estimation simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _load(args) -> Scenario:
    return load_scenario(args.scenario) if args.scenario else Scenario()


def _emit(text: str, output: str):
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"adradar: error: {exc}", file=sys.stderr)
        return 1

    output, created, code = getattr(args, "output", "-"), False, 1
    try:
        if output != "-":  # an unwritable path fails before any trial runs
            existed = os.path.exists(output)
            open(output, "a", encoding="utf-8").close()
            created = not existed
        if args.command == "selftest":
            code = 0 if run_selftest() else 2
        elif args.command == "beam-pattern":
            if not 0 < args.resolution < np.pi:  # else the angle grid is empty
                raise ValueError(f"--resolution must lie in (0, pi), "
                                 f"got {args.resolution}")
            scenario = _load(args)
            angles = np.arange(-np.pi / 2 + args.resolution, np.pi / 2,
                               args.resolution)
            gains = gain_cut(designed_beam(scenario), scenario.geometry(),
                             "azimuth", scenario.elevation_center_rad, angles)
            gains_db = 10.0 * np.log10(np.maximum(gains, gains.max() * 1e-12))
            _emit("angle_rad,gain_db\n" + "".join(
                f"{ang:.6f},{db:.6f}\n" for ang, db in zip(angles, gains_db)), args.output)
            print(f"beam-pattern: {len(angles)} points, "
                  f"peak {10 * np.log10(gains.max()):.2f} dB", file=sys.stderr)
            code = 0
        else:
            scenario = _load(args)
            exp = ExperimentConfig(**{f.name: getattr(args, f.name) for f in fields(
                ExperimentConfig) if hasattr(args, f.name)}).resolve(scenario)
            if args.command == "simulate":
                rows = harness.sweep_cpi(scenario, exp, [exp.cpi_s])
            elif args.command == "sweep-framegap":
                rows = harness.sweep_framegap(scenario, exp, args.gaps)
            else:  # sweep-cpi
                rows = harness.sweep_cpi(scenario, replace(exp, estimators="both"),
                                         args.cpis, p_tx_dbm_grid=args.p_tx_grid)
            _emit(harness.format_csv(rows), args.output)
            worst = max(row["nmse"] for row in rows)
            print(f"{args.command}: {len(rows)} rows, worst NMSE {worst:.3e}",
                  file=sys.stderr)
            code = 0
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"adradar: config error: {exc}", file=sys.stderr)
    except (EstimationError, AggregationError) as exc:
        print(f"adradar: estimation failure: {exc}", file=sys.stderr)
        code = 2
    finally:
        if created and code != 0:  # a failed or interrupted run leaves no file
            os.remove(output)
    return code


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
