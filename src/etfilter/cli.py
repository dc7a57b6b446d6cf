"""Command line entry point.

Subcommands:
  simulate   run one benchmark case, write rms.csv / rates.csv / summary.csv
  table1     run all three cases, print average rates next to the references
  rates      run one case and write only the per-step rate comparison

Options may also come from a flat key=value config file (--config); explicit
command line flags win.  The output directory falls back to the
ETFILTER_OUT_DIR environment variable, then to ./etfilter-output.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .harness import ExperimentConfig, emit_csv, run_monte_carlo, table1

_ENV_OUT = "ETFILTER_OUT_DIR"
_FALLBACK_OUT = "etfilter-output"

_INT_KEYS = {"trials", "steps", "seed", "trial_index", "jobs"}
_FLOAT_KEYS = {"alpha"}
_STR_KEYS = {"case", "out"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS

__all__ = ["main"]


def _read_config(path: str) -> dict[str, str]:
    """Parse a flat key=value file; blank lines and # comments are skipped."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        values[key.strip()] = val.strip()
    unknown = sorted(set(values) - _ALL_KEYS)
    if unknown:
        raise ValueError(f"{path}: unknown option(s) {unknown}; known: {sorted(_ALL_KEYS)}")
    return values


def _pick(args: argparse.Namespace, cfg: dict[str, str], key: str, default):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in cfg:
        raw = cfg[key]
        try:
            if key in _INT_KEYS:
                return int(raw)
            if key in _FLOAT_KEYS:
                return float(raw)
        except ValueError:
            raise ValueError(f"config option {key}={raw!r} is not a number") from None
        return raw
    return default


def _normalize_case(value: str) -> str:
    text = str(value).strip().lower()
    return f"case{text}" if text in {"1", "2", "3"} else text


def _output_dir(args: argparse.Namespace, cfg: dict[str, str]) -> Path:
    out = getattr(args, "out", None) or cfg.get("out") or os.environ.get(_ENV_OUT)
    return Path(out or _FALLBACK_OUT)


def _experiment_config(args: argparse.Namespace, cfg: dict[str, str]) -> ExperimentConfig:
    return ExperimentConfig(
        case=_normalize_case(_pick(args, cfg, "case", "case1")),
        trials=_pick(args, cfg, "trials", 5000),
        steps=_pick(args, cfg, "steps", 101),
        seed=_pick(args, cfg, "seed", 1234),
        alpha=_pick(args, cfg, "alpha", 0.05),
        rate_trial_index=_pick(args, cfg, "trial_index", 40),
        jobs=_pick(args, cfg, "jobs", 1),
    )


def _report(summary, paths: dict[str, Path]) -> None:
    avg = summary.avg_rates
    print(
        f"case={summary.case} trials={summary.trials} steps={summary.steps} "
        f"seed={summary.seed}"
    )
    print(
        f"average rates: empirical={avg[0]:.4f} one-step={avg[1]:.4f} "
        f"two-step={avg[2]:.4f}"
    )
    print("final rms: " + " ".join(f"{v:.4f}" for v in summary.rms[-1]))
    for path in paths.values():
        print(f"wrote {path}")


def _cmd_simulate(args: argparse.Namespace, cfg: dict[str, str]) -> int:
    summary = run_monte_carlo(_experiment_config(args, cfg))
    _report(summary, emit_csv(summary, _output_dir(args, cfg)))
    return 0


def _cmd_rates(args: argparse.Namespace, cfg: dict[str, str]) -> int:
    summary = run_monte_carlo(_experiment_config(args, cfg))
    _report(summary, emit_csv(summary, _output_dir(args, cfg), which=("rates",)))
    return 0


def _cmd_table1(args: argparse.Namespace, cfg: dict[str, str]) -> int:
    table1(
        trials=_pick(args, cfg, "trials", 5000),
        seed=_pick(args, cfg, "seed", 1234),
        output_dir=_output_dir(args, cfg),
        jobs=_pick(args, cfg, "jobs", 1),
        alpha=_pick(args, cfg, "alpha", 0.05),
    )
    return 0


def _add_common(sub: argparse.ArgumentParser, with_case: bool) -> None:
    if with_case:
        sub.add_argument("--case", help="benchmark case: 1, 2, 3 (or case1..case3)")
        sub.add_argument("--steps", type=int, help="time steps per trial (default 101)")
        sub.add_argument("--alpha", type=float, help="trigger confidence level (default 0.05)")
        sub.add_argument(
            "--trial-index",
            dest="trial_index",
            type=int,
            help="trial whose rate predictions go to rates.csv (default 40)",
        )
    sub.add_argument("--trials", type=int, help="Monte Carlo trials (default 5000)")
    sub.add_argument("--seed", type=int, help="master seed (default 1234)")
    sub.add_argument("--jobs", type=int, help="worker processes (default 1)")
    sub.add_argument("--out", help="output directory for csv files")
    # SUPPRESS keeps a --config given before the subcommand from being reset.
    sub.add_argument("--config", default=argparse.SUPPRESS, help=argparse.SUPPRESS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etfilter",
        description="Event-triggered state estimation benchmark runner.",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="run the built-in numerical self checks and exit",
    )
    parser.add_argument("--config", help="flat key=value options file; flags override it")
    subs = parser.add_subparsers(dest="command")

    sim = subs.add_parser("simulate", help="run one case and write all csv outputs")
    _add_common(sim, with_case=True)

    tab = subs.add_parser("table1", help="run all cases and compare average rates")
    _add_common(tab, with_case=False)

    rat = subs.add_parser("rates", help="run one case and write only rates.csv")
    _add_common(rat, with_case=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.check:
        from .checks import run_all

        return run_all()
    if args.command is None:
        parser.error("a subcommand is required unless --check is given")
    try:
        cfg = _read_config(args.config) if args.config else {}
        handler = {
            "simulate": _cmd_simulate,
            "table1": _cmd_table1,
            "rates": _cmd_rates,
        }[args.command]
        return handler(args, cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
