"""Command line entry point.

Subcommands:
  simulate   run one benchmark case, write rms.csv / rates.csv / summary.csv
  table1     run all three cases, print average rates next to the references

Every subcommand takes the run settings as flags (table1 all but --case), each
defaulting to its ExperimentConfig field; ``--help`` prints the defaults.  The
csv files go to --out, ./etfilter-output unless given.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import CASE_BOUNDS, ExperimentConfig, emit_csv, run_monte_carlo, table1

__all__ = ["main"]


def _case(value: str) -> str:
    text = value.strip().lower()
    return f"case{text}" if f"case{text}" in CASE_BOUNDS else text


def _run_case(config: ExperimentConfig, out: Path) -> None:
    summary = run_monte_carlo(config)
    paths = emit_csv(summary, out)
    avg = summary.avg_rates
    print(f"case={config.case} trials={config.trials} steps={config.steps} seed={config.seed}")
    print(
        f"average rates: empirical={avg[0]:.4f} one-step={avg[1]:.4f} "
        f"two-step={avg[2]:.4f}"
    )
    print("final rms: " + " ".join(f"{v:.4f}" for v in summary.rms[-1]))
    for path in paths.values():
        print(f"wrote {path}")


def _add_subcommand(subs, name: str, text: str, run, with_case: bool = True) -> None:
    """A subcommand parser whose run flags default to ExperimentConfig's fields."""
    sub = subs.add_parser(name, help=text, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    defaults = ExperimentConfig  # class attributes hold the field defaults
    if with_case:
        sub.add_argument(
            "--case",
            type=_case,
            default=defaults.case,
            help="benchmark case: 1, 2, 3 (or case1..case3)",
        )
    sub.add_argument("--trials", type=int, default=defaults.trials, help="Monte Carlo trials")
    sub.add_argument("--steps", type=int, default=defaults.steps, help="time steps per trial")
    sub.add_argument("--seed", type=int, default=defaults.seed, help="master seed")
    sub.add_argument("--alpha", type=float, default=defaults.alpha, help="trigger confidence level")
    sub.add_argument(
        "--jobs", type=int, default=defaults.jobs, help="worker processes, one per chunk at most"
    )
    sub.add_argument(
        "--out", type=Path, default="etfilter-output", help="output directory for csv files"
    )
    sub.set_defaults(run=run)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etfilter",
        description="Event-triggered state estimation benchmark runner.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    _add_subcommand(subs, "simulate", "run one case and write all csv outputs", _run_case)
    _add_subcommand(
        subs, "table1", "run all cases and compare average rates", table1, with_case=False
    )
    return parser


def main(argv=None) -> int:
    settings = vars(_build_parser().parse_args(argv))
    del settings["command"]
    run, out = settings.pop("run"), settings.pop("out")
    try:
        run(ExperimentConfig(**settings), out)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
