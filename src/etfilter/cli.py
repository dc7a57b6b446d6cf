"""Command line entry point, and the one module that writes to stdout.

Subcommands:
  simulate   run one benchmark case, write rms.csv / rates.csv / summary.csv
  table1     run all three cases, print average rates next to the references

Every subcommand takes the run settings as flags (table1 all but --case), each
defaulting to its ExperimentConfig field; ``--help`` prints the defaults.  The
harness writes the csv files to --out, ./etfilter-output unless given.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import harness
from .harness import CASE_BOUNDS, ExperimentConfig, emit_csv, run_monte_carlo

__all__ = ["main"]


def _case(value: str) -> str:
    text = value.strip().lower()
    return f"case{text}" if f"case{text}" in CASE_BOUNDS else text


def _run_case(config: ExperimentConfig, out: Path) -> None:
    summary = run_monte_carlo(config)
    paths = emit_csv(summary, out)
    avg = summary.avg_rates
    print(f"case={config.case} trials={config.trials} steps={config.steps} seed={config.seed}")
    print(f"average rates: empirical={avg[0]:.4f} one-step={avg[1]:.4f} two-step={avg[2]:.4f}")
    print("final rms: " + " ".join(f"{v:.4f}" for v in summary.rms[-1]))
    for path in paths.values():
        print(f"wrote {path}")


def _reference_note(config: ExperimentConfig) -> str | None:
    """How far the reference rates apply to ``config``: a note, or None at the reference run."""
    ref = ExperimentConfig  # class attributes hold the field defaults, the reference run
    if (config.alpha, config.steps) != (ref.alpha, ref.steps):
        return (
            f"note: the references were produced at alpha={ref.alpha} and {ref.steps} steps "
            "and do not apply to this run"
        )
    if config.trials == ref.trials:
        return None
    return (
        f"note: references were produced at {ref.trials} trials; at {config.trials} trials the "
        f"Monte Carlo comparison band {'narrows' if config.trials > ref.trials else 'widens'} "
        f"to roughly +/-{0.02 * math.sqrt(ref.trials / config.trials):.3f}"
    )


def _run_table1(config: ExperimentConfig, out: Path) -> None:
    summaries = harness.table1(config, out)
    names = ("empirical", "alg1", "alg2", "ref_emp", "ref_alg1", "ref_alg2", "max|diff|")
    widths = (11, 9, 9, 10, 10, 10, 11)
    print(f"{'case':<8}" + "".join(f"{n:>{w}}" for n, w in zip(names, widths)))
    for case, summary in summaries.items():
        avg, ref = summary.avg_rates, harness.TABLE1_REFERENCE[case]
        row = (*avg, *ref, max(abs(a - r) for a, r in zip(avg, ref)))
        print(f"{case:<8}" + "".join(f"{v:>{w}.4f}" for v, w in zip(row, widths)))
    if note := _reference_note(config):
        print(note)


def _add_subcommand(subs, name: str, text: str, run, with_case: bool = True) -> None:
    """A subcommand parser whose run flags default to ExperimentConfig's fields."""
    sub = subs.add_parser(name, help=text, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    defaults = ExperimentConfig  # class attributes hold the field defaults
    if with_case:
        case_help = "benchmark case: 1, 2, 3 (or case1..case3)"
        sub.add_argument("--case", type=_case, default=defaults.case, help=case_help)
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
    description = "Event-triggered state estimation benchmark runner."
    parser = argparse.ArgumentParser(prog="etfilter", description=description)
    subs = parser.add_subparsers(dest="command", required=True)
    _add_subcommand(subs, "simulate", "run one case and write all csv outputs", _run_case)
    _add_subcommand(
        subs, "table1", "run all cases and compare average rates", _run_table1, with_case=False
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
