"""Command-line front end.

Subcommands: simulate, sweep-cpi, sweep-framegap, beam-pattern, selftest.
Exit codes: 0 success, 1 configuration error, 2 runtime estimation failure.
"""

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import harness
from .errors import AggregationError, EstimationError, ScenarioError
from .harness import ESTIMATORS, ExperimentConfig
from .phasedarray import gain_cut
from .scene import Scenario, designed_beam, load_scenario
from .selftest import run_selftest


class _Parser(argparse.ArgumentParser):
    """argparse terminates with code 2 on usage errors; the CLI contract is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="adradar",
                     description="802.11ad joint radar-communication "
                                 "velocity-estimation simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", help="scenario JSON file (default: built-in)")
        p.add_argument("--cpi", type=float, default=None,
                       help="CPI duration in seconds")
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--p-tx-dbm", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--mi-offset", type=int, default=None,
                       help="m_d - m_i frame gap")
        p.add_argument("--output", default="-", help="CSV path ('-' for stdout)")

    p = sub.add_parser("simulate", help="Monte Carlo NMSE at one CPI")
    common(p)
    p.add_argument("--estimator", choices=tuple(ESTIMATORS),
                   default=ExperimentConfig.estimators)

    p = sub.add_parser("sweep-cpi", help="NMSE of both estimators versus CPI")
    common(p)
    p.add_argument("--cpis", type=float, nargs="+",
                   default=(1e-4, 2e-4, 4e-4, 6e-4, 8e-4, 1e-3))
    p.add_argument("--p-tx-grid", type=float, nargs="+", default=(10.0, 20.0),
                   help="TX powers in dBm (default: 10 20)")

    p = sub.add_parser("sweep-framegap", help="proposed-estimator NMSE versus m_d - m_i")
    common(p)
    p.add_argument("--gaps", type=int, nargs="+", default=tuple(range(1, 11)))

    p = sub.add_parser("beam-pattern", help="azimuth gain cut of the designed beam")
    p.add_argument("--scenario", help="scenario JSON file (default: built-in)")
    p.add_argument("--resolution", type=float, default=1e-3)
    p.add_argument("--output", default="-")

    sub.add_parser("selftest", help="run the built-in invariant battery")
    return parser


def _load(args) -> Scenario:
    return load_scenario(args.scenario) if args.scenario else Scenario()


def _experiment(scenario: Scenario, args) -> ExperimentConfig:
    """The flags' experiment, each unset field taken from ``scenario``."""
    return ExperimentConfig(
        cpi_s=args.cpi, trials=args.trials, p_tx_dbm=args.p_tx_dbm,
        m_i_offset=args.mi_offset,
        estimators=getattr(args, "estimator", ExperimentConfig.estimators),
        seed=args.seed).resolve(scenario)


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

    try:
        if args.command == "selftest":
            return 0 if run_selftest() else 2

        if args.command == "beam-pattern":
            if not 0 < args.resolution < np.pi:  # else the angle grid is empty
                raise ValueError(f"--resolution must lie in (0, pi), "
                                 f"got {args.resolution}")
            scenario = _load(args)
            angles = np.arange(-np.pi / 2 + args.resolution, np.pi / 2,
                               args.resolution)
            gains = gain_cut(designed_beam(scenario), scenario.geometry(),
                             "azimuth", scenario.elevation_center_rad, angles)
            lines = ["angle_rad,gain_db"]
            floor = gains.max() * 1e-12
            for ang, g in zip(angles, gains):
                db = 10.0 * np.log10(max(g, floor))
                lines.append(f"{ang:.6f},{db:.6f}")
            _emit("\n".join(lines) + "\n", args.output)
            print(f"beam-pattern: {len(angles)} points, "
                  f"peak {10 * np.log10(gains.max()):.2f} dB", file=sys.stderr)
            return 0

        scenario = _load(args)
        exp = _experiment(scenario, args)
        if args.command == "simulate":
            rows = harness.sweep_cpi(scenario, exp, [exp.cpi_s])
        elif args.command == "sweep-framegap":
            rows = harness.sweep_framegap(scenario, exp, args.gaps)
        elif args.command == "sweep-cpi":
            both = replace(exp, estimators="both")
            rows = harness.sweep_cpi(scenario, both, args.cpis,
                                     p_tx_dbm_grid=args.p_tx_grid)
        else:  # pragma: no cover - argparse restricts the choices
            raise ValueError(f"unknown command {args.command!r}")
        _emit(harness.format_csv(rows), args.output)
        worst = max(row["nmse"] for row in rows)
        print(f"{args.command}: {len(rows)} rows, worst NMSE {worst:.3e}",
              file=sys.stderr)
        return 0
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"adradar: config error: {exc}", file=sys.stderr)
        return 1
    except (EstimationError, AggregationError) as exc:
        print(f"adradar: estimation failure: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
