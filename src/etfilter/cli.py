"""Command line entry point.

Subcommands:
  simulate   run one benchmark case, write rms.csv / rates.csv / summary.csv
  table1     run all three cases, print average rates next to the references

Every subcommand takes the run settings as flags (table1 all but --case);
ExperimentConfig supplies each setting that is not given.  The output
directory resolves as --out, then the ETFILTER_OUT_DIR environment variable,
then ./etfilter-output.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .harness import CASE_BOUNDS, ExperimentConfig, emit_csv, run_monte_carlo, table1

_ENV_OUT = "ETFILTER_OUT_DIR"
_FALLBACK_OUT = "etfilter-output"

__all__ = ["main"]


def _case(value: str) -> str:
    text = value.strip().lower()
    return f"case{text}" if f"case{text}" in CASE_BOUNDS else text


def _resolve(args: argparse.Namespace) -> tuple[ExperimentConfig, Path]:
    """The run settings given as flags; ExperimentConfig fills in the rest."""
    given = {k: v for k, v in vars(args).items() if k not in ("command", "run")}
    out = given.pop("out", None) or os.environ.get(_ENV_OUT) or _FALLBACK_OUT
    return ExperimentConfig(**given), Path(out)


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
    """A subcommand parser whose run flags default to absent, so that only the
    settings actually given reach ExperimentConfig."""
    sub = subs.add_parser(name, help=text)
    defaults = ExperimentConfig  # class attributes hold the field defaults

    def add(flag: str, **kwargs) -> None:
        metavar = flag.replace("-", "_").upper()
        sub.add_argument(f"--{flag}", default=argparse.SUPPRESS, metavar=metavar, **kwargs)

    if with_case:
        add("case", type=_case, help="benchmark case: 1, 2, 3 (or case1..case3)")
    add("trials", type=int, help=f"Monte Carlo trials (default {defaults.trials})")
    add("steps", type=int, help=f"time steps per trial (default {defaults.steps})")
    add("seed", type=int, help=f"master seed (default {defaults.seed})")
    add("alpha", type=float, help=f"trigger confidence level (default {defaults.alpha})")
    add("jobs", type=int, help=f"worker processes, one per chunk at most (default {defaults.jobs})")
    add("out", help="output directory for csv files")
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.run(*_resolve(args))
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
