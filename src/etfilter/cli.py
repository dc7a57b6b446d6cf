"""Command line entry point.

Subcommands:
  simulate   run one benchmark case, write rms.csv / rates.csv / summary.csv
  table1     run all three cases, print average rates next to the references

Every subcommand takes the run settings as flags (table1 all but --case);
ExperimentConfig supplies each setting that is not given.  The same settings
may come from a flat key=value config file (--config), keyed by the flag name
without its dashes (--trial-index is trial_index); explicit command line flags
win, and a key the subcommand does not take is an error.  The output
directory falls back to the ETFILTER_OUT_DIR environment variable, then to
./etfilter-output.
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


def _read_config(path: str, options: dict[str, argparse.Action], command: str) -> dict:
    """Parse a flat key=value file into settings keyed by option dest.

    Blank lines and # comments are skipped; each value is converted by its
    flag's own ``type``.
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        values[key.strip()] = val.strip()
    unknown = sorted(set(values) - set(options))
    if unknown:
        raise ValueError(
            f"{path}: unknown option(s) {unknown} for {command}; known: {sorted(options)}"
        )
    settings = {}
    for key, raw in values.items():
        action = options[key]
        try:
            settings[action.dest] = action.type(raw) if action.type else raw
        except ValueError:
            raise ValueError(f"config option {key}={raw!r} is not a number") from None
    return settings


def _case(value: str) -> str:
    text = value.strip().lower()
    return f"case{text}" if f"case{text}" in CASE_BOUNDS else text


def _resolve(args: argparse.Namespace) -> tuple[ExperimentConfig, Path]:
    """Merge the given flags over the config file; ExperimentConfig fills in the rest."""
    given = _read_config(args.config, args.options, args.command) if args.config else {}
    given.update(
        (a.dest, getattr(args, a.dest)) for a in args.options.values() if hasattr(args, a.dest)
    )
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
    options: dict[str, argparse.Action] = {}

    def add(flag: str, **kwargs) -> None:
        key = flag.replace("-", "_")
        options[key] = sub.add_argument(
            f"--{flag}", default=argparse.SUPPRESS, metavar=key.upper(), **kwargs
        )

    if with_case:
        add("case", type=_case, help="benchmark case: 1, 2, 3 (or case1..case3)")
    add("trials", type=int, help=f"Monte Carlo trials (default {defaults.trials})")
    add("steps", type=int, help=f"time steps per trial (default {defaults.steps})")
    add("seed", type=int, help=f"master seed (default {defaults.seed})")
    add("alpha", type=float, help=f"trigger confidence level (default {defaults.alpha})")
    add(
        "trial-index",
        dest="rate_trial_index",
        type=int,
        help=f"trial whose rate predictions go to rates.csv (default {defaults.rate_trial_index})",
    )
    add("jobs", type=int, help=f"worker processes, one per chunk at most (default {defaults.jobs})")
    add("out", help="output directory for csv files")
    # SUPPRESS keeps a --config given before the subcommand from being reset.
    sub.add_argument("--config", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    sub.set_defaults(run=run, options=options)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etfilter",
        description="Event-triggered state estimation benchmark runner.",
    )
    parser.add_argument("--config", help="flat key=value options file; flags override it")
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
