"""Command-line driver.

Subcommands:
  run     scenario -> per-user SINR CDF CSV
  verify  closed-form vs Monte Carlo agreement checks on one drop

Both take their drops from `scenario.solve_drop`; `run` reports its series.

Exit codes: 0 success, 1 usage/config error, 2 verification failure.
"""

import argparse
import logging
import os
import sys

from .config import ScenarioConfig, load_config
from .errors import LosMimoError
from .scenario import run_scenario, verify


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error (and so do its subparsers): 2 is a failed verification."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="losmimo")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="scenario config file (key = value lines)")
        p.add_argument("--seed", type=int, help="override the master seed")

    run_p = sub.add_parser("run", help="run the scenario and write the CDF CSV")
    common(run_p)
    run_p.add_argument("--drops", type=int, help="override the drop count")
    run_p.add_argument("--out", required=True, help="output CSV path")

    ver_p = sub.add_parser("verify", help="Monte Carlo verification of the closed forms")
    common(ver_p)
    ver_p.add_argument("--symbols", type=int, default=100_000, help="symbols per check")
    return parser


def _load(args) -> ScenarioConfig:
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if getattr(args, "drops", None) is not None:
        cfg.drops = args.drops
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = _load(args)
        if args.command == "run":
            # an unwritable --out fails here, before any drop; an existing file keeps its bytes
            made = not os.path.lexists(args.out)
            open(args.out, "a").close()
            if made:
                os.remove(args.out)
            table, summary = run_scenario(cfg)
            table.write_csv(args.out)
            print(f"wrote {args.out}: {summary['drops']} drops, "
                  f"{summary['resampled']} re-sampled")
            for name, vals in table.series.items():
                print(f"  {name}: {len(vals)} samples")
            return 0
        if args.command == "verify":
            report = verify(cfg, args.symbols)
            for entry in report.entries:
                status = "ok" if entry.passed(report.threshold) else "FAIL"
                cell, user = entry.worst_user
                print(f"{entry.scheme} {entry.link}: max deviation "
                      f"{entry.max_dev_sigma:.2f} sigma at (cell {cell}, user {user}) [{status}]")
            if not report.passed:
                print(f"verification failed (threshold {report.threshold} sigma)")
                return 2
            print("all checks passed")
            return 0
        raise AssertionError(f"unhandled command {args.command}")
    except (LosMimoError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
