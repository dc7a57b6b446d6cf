"""Repeat the benchmark over consecutive seeds and summarise each metric.

Usage (from the repository root):

    python3 bench/repeat.py [--runs 10] [--workload NAME ...] [--first-seed 1]
                            [--seconds S] [--trace 0|1] [--out FILE]

Each run is BENCHMARK.json's command with ``--workload W --seed s
--seconds S --trace T``, run from the repository root.
For every metric the summary gives the median, the quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, next to the metric's bound from BENCHMARK.json.  ``--out`` writes the
summary, every run's values and every run's metadata to one JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOAD_NAMES


def _run(command: list, workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    meta = next((json.loads(line[5:]) for line in lines if line.startswith("meta ")), {})
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(lines[-1]), meta


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", nargs="+", choices=WORKLOAD_NAMES, default=WORKLOAD_NAMES)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    report = {"runs": args.runs, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    all_ok = True
    for workload in args.workload:
        runs, metas = [], []
        for i in range(args.runs):
            result, meta = _run(spec["command"], workload, args.first_seed + i, args.seconds,
                                args.trace)
            runs.append(result)
            metas.append(meta)
            all_ok = all_ok and result["correct"]
        summary = {}
        print(f"== {workload}: {args.runs} runs, attempted {sum(r['attempted'] for r in runs)}, "
              f"failed {sum(r['failed'] for r in runs)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            summary[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                             "spread": spread, "bound": bound, "values": values}
            flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE")
            print(f"  {name:<42} {med:>14.6g} {unit:<6} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f}" + ("" if bound is None else f" bound {bound}") + flag)
        report["workloads"][workload] = {"summary": summary, "meta": metas}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
