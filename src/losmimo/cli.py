"""Command-line driver.

Subcommands:
  run            scenario -> per-user SINR CDF CSV
  verify         closed-form vs Monte Carlo agreement checks
  dump-channels  matrix text dump for cross-implementation diffing

Exit codes: 0 success, 1 usage/config error, 2 verification failure.
"""

import argparse
import logging
import sys

from .channel import dump_channel_set
from .config import ScenarioConfig, load_config
from .errors import LosMimoError
from .scenario import RECON_TOL, build_drop_channels, run_scenario, verify


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="losmimo")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="scenario config file (key = value lines)")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--drops", type=int, help="override the drop count")

    run_p = sub.add_parser("run", help="run the scenario and write the CDF CSV")
    common(run_p)
    run_p.add_argument("--out", required=True, help="output CSV path")

    ver_p = sub.add_parser("verify", help="Monte Carlo verification of the closed forms")
    common(ver_p)
    ver_p.add_argument("--symbols", type=int, default=100_000, help="symbols per check")

    dump_p = sub.add_parser("dump-channels", help="dump one drop's channel matrices as text")
    common(dump_p)
    dump_p.add_argument("--out", required=True, help="output dump path")
    return parser


def _load(args) -> ScenarioConfig:
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.drops is not None:
        cfg.drops = args.drops
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = _load(args)
        if args.command == "run":
            table, summary = run_scenario(cfg)
            table.write_csv(args.out)
            print(f"wrote {args.out}: {summary['drops']} drops, "
                  f"{summary['resampled']} re-sampled")
            for name, count in summary["series"].items():
                print(f"  {name}: {count} samples")
            return 0
        if args.command == "verify":
            report = verify(cfg, args.symbols)
            for entry in report.entries:
                status = "ok" if entry.passed(report.threshold) else "FAIL"
                print(f"{entry.scheme} {entry.link}: max deviation "
                      f"{entry.max_dev_sigma:.2f} sigma, reconstruction residual "
                      f"{entry.recon_residual:.1e} [{status}]")
            if not report.passed:
                print(f"verification failed (threshold {report.threshold} sigma, "
                      f"residual {RECON_TOL:.0e})")
                return 2
            print("all checks passed")
            return 0
        if args.command == "dump-channels":
            channels = build_drop_channels(cfg, cfg.seed)
            dump_channel_set(channels, args.out)
            print(f"wrote {args.out}")
            return 0
        raise AssertionError(f"unhandled command {args.command}")
    except (LosMimoError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
