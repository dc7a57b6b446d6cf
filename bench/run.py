"""etfilter benchmark: one command, every workload, checked outputs.

Usage (from the repository root):

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --record        # rewrite bench/expected.json

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs whole passes over the workload's pool, in an order drawn
from the seed, each operation once plain and once with spans wrapped around
the program's layers, and reports per-layer counts and self times, the
tracing overhead and a sweep of ball-moment kernel costs.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is nonzero when any
output check fails.

Times are normalised to a reference machine speed.  On a shared host the
speed of one core drifts by up to a factor of two within seconds, far more
than any bound a benchmark can hold.  So calibration loops that resemble the
workload's hot path but call none of the program's code (see ``Clock``) run
between blocks of work, outside the timed regions, and every time is scaled
by the calibrations around it: the result is a time in seconds on a machine
on which the loops take their reference times (``CAL_LOOPS``).  The raw
wall-clock figures are printed next to the normalised ones.

The program is imported from ``src/`` next to this directory; BLAS is pinned
to one thread so that the benchmark measures the program, not the scheduler.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("mc_table1", "stream_remote", "stream_p3_stiff")

SETUP_REPEATS = 9
# Calibration loops: iterations per repetition, and the best-of-CAL_REPS time
# of one repetition that defines the reference machine speed.
CAL_LOOPS = {"scalar": (12, 0.65e-3), "grid": (6, 0.5e-3)}
CAL_REPS = 3
TICK_S = 0.025  # slice length of a long operation between calibrations
SWEEP_ROUNDS = 7
SWEEP_SLICE_S = 0.03
SWEEP_MIN_CALLS = 3
SWEEP_ALPHA = 0.05  # the sweep's ball radius is the trigger's chi-square quantile


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


@dataclasses.dataclass(frozen=True)
class _CalState:
    cov: object
    acc: float


class Clock:
    """Machine-speed factors from calibration loops run between operations.

    ``slowness()`` is the geometric mean, over the workload's loops, of each
    loop's time now against its reference time; ``factor()`` turns the
    slowness at both ends of an interval into the factor that scales a time
    measured in it to the reference machine.  The loops call none of the
    program's code, so a change to the program cannot move them.

    On a shared host the slowdown depends on the instruction mix,
    so each workload names the loops that resemble its hot path:

    - ``scalar`` mimics one p = 2 filter step: 3x3 covariance algebra, a
      gain solve, a 2x2 eigendecomposition, two small quadrature sums over
      sine-mapped nodes with ``exp`` and ``erf``, and a frozen dataclass;
      interpreter overhead on tiny arrays dominates it.
    - ``grid`` evaluates ``exp`` and ``erf`` on a 64 x 64 tensor grid, as the
      p = 3 kernel does; vectorised ufunc work dominates it.
    """

    def __init__(self, loops=("scalar",)):
        import numpy as np
        from scipy.special import erf

        self._np, self._erf = np, erf
        self._a = np.array([[1.0, 1.0, 0.5], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        self._q = 0.1 * np.eye(3)
        self._c = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        self._r = np.diag([60.0, 10.0])
        self._nodes = []
        for order in (16, 32, 64):
            t, w = np.polynomial.legendre.leggauss(order)
            self._nodes.append((np.sin(0.5 * math.pi * t), np.cos(0.5 * math.pi * t) * w))
        self._loops = [(getattr(self, f"_{name}"), *CAL_LOOPS[name]) for name in loops]
        self.factors: list[float] = []
        self.last = self.slowness()

    def _scalar(self, iters: int) -> float:
        np, erf = self._np, self._erf
        a, q, c, r = self._a, self._q, self._c, self._r
        state = _CalState(cov=100.0 * np.eye(3), acc=0.0)
        t0 = time.perf_counter()
        for _ in range(iters):
            cov = a @ state.cov @ a.T + q
            cov = 0.5 * (cov + cov.T)
            cross = cov @ c.T
            s = c @ cross + r
            gain = np.linalg.solve(s, cross.T).T
            lam, _ = np.linalg.eigh(s / 50.0)
            acc = state.acc
            for sin_t, weight in self._nodes[:2]:
                x = 2.0 * sin_t
                base = np.exp(x * x / (-2.0 * lam[0])) * weight
                inner = erf(np.sqrt(np.maximum(6.0 - x * x, 0.0)) / math.sqrt(2.0 * lam[1]))
                acc += float((base * inner).sum())
            k = np.eye(3) - gain @ c
            cov = k @ cov @ k.T + gain @ r @ gain.T
            state = _CalState(cov=0.5 * (cov + cov.T), acc=acc)
        elapsed = time.perf_counter() - t0
        if not state.acc > 0.0:
            raise RuntimeError("calibration loop produced a wrong result")
        return elapsed

    def _grid(self, iters: int) -> float:
        np, erf = self._np, self._erf
        sin_t, weight = self._nodes[2]
        acc = 0.0
        t0 = time.perf_counter()
        for i in range(iters):
            x = (2.0 + 0.1 * i) * sin_t
            half = np.sqrt(np.maximum(6.0 - x * x, 0.0))
            y = half[:, None] * sin_t[None, :]
            base = (np.exp(x * x / -2.0) * weight)[:, None] * (np.exp(y * y / -3.0) * weight)
            inner = erf(np.sqrt(np.maximum((6.0 - x * x)[:, None] - y * y, 0.0)) / 2.0)
            acc += float((base * inner).sum())
        elapsed = time.perf_counter() - t0
        if not acc > 0.0:
            raise RuntimeError("calibration loop produced a wrong result")
        return elapsed

    def slowness(self) -> float:
        """Current time of the calibration loops against their reference times."""
        log_sum = 0.0
        for loop, iters, ref in self._loops:
            log_sum += math.log(min(loop(iters) for _ in range(CAL_REPS)) / ref)
        return math.exp(log_sum / len(self._loops))

    def factor(self) -> float:
        """Normalising factor for the interval since the previous call."""
        now = self.slowness()
        factor = 2.0 / (self.last + now)
        self.last = now
        self.factors.append(factor)
        return factor


# -- set-up --------------------------------------------------------------------


def _setup_probe(name: str) -> None:
    """Time import plus workload set-up in this fresh interpreter."""
    t0 = time.perf_counter()
    import workloads

    workloads.WORKLOADS[name](OUT_DIR)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def _setup_seconds(name: str) -> tuple[list[float], list[float]]:
    """Normalised and raw set-up times of ``SETUP_REPEATS`` fresh interpreters.

    The calibration runs here, warm, between the probes: a process that has
    just imported NumPy runs its first calibrations up to twice as slowly.
    """
    clock = Clock()
    normalised, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", name],
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        raw.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        normalised.append(raw[-1] * clock.factor())
    return normalised, raw


# -- operations ----------------------------------------------------------------


class Runner:
    """Runs one workload's operations and checks each against its reference."""

    def __init__(self, workload, expected: dict):
        self.workload = workload
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def op(self, inp, wrap=None, pause=None):
        """Run one operation; returns (wall seconds, per-step latencies or None)."""
        fn = self.workload.run if wrap is None else wrap(self.workload.run)
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            result, latency = fn(inp, pause)
            wall = time.perf_counter() - t0
            errors = self.workload.check(
                self.workload.outputs(result), self.expected[self.workload.key(inp)]
            )
        except Exception:  # a raising operation is a failed operation, never a crash
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None, None
        if errors:
            self.failed += 1
            print(f"check failed ({self.workload.name} {self.workload.key(inp)}): "
                  + "; ".join(errors), file=sys.stderr)
        return wall, latency


def _order(workload, seed: int):
    """The run's visiting order of the workload's pool, drawn from the seed."""
    import numpy as np

    return np.random.default_rng(seed).permutation(len(workload.POOL))


class Ticker:
    """Calibrates every ``TICK_S`` of wall time while an operation runs.

    A long operation (one ``etfilter table1`` call takes most of a second)
    outlasts the host's speed swings, so calibrating only before and after
    it leaves most of the drift in.  A ``SIGALRM`` interval timer splits it
    into slices instead; the handler runs between bytecodes of the main
    thread, calibrates, and scales the slice that just ended by the
    calibrations on either side of it.  No hook into the program is needed,
    and the handler's own time is left out of the operation's time and out
    of :meth:`now`.
    """

    def __init__(self, clock: Clock):
        self.clock = clock
        self.raw_s = self.normalised_s = 0.0
        self._paused_s = 0.0

    def now(self) -> float:
        """Wall time minus the time spent calibrating, for span timing."""
        return time.perf_counter() - self._paused_s

    def wrap(self, fn):
        clock = self.clock

        def ticked(*args):
            raw, scaled = [], []
            before, mark, busy = clock.last, time.perf_counter(), False

            def close_slice():
                nonlocal before, mark
                paused_at = time.perf_counter()
                after = clock.slowness()
                raw.append(paused_at - mark)
                scaled.append(raw[-1] * 2.0 / (before + after))
                before = after
                mark = time.perf_counter()
                self._paused_s += mark - paused_at

            def tick(_signum, _frame):
                nonlocal busy
                if not busy:  # a tick that lands inside the handler is dropped
                    busy = True
                    close_slice()
                    busy = False

            previous = signal.signal(signal.SIGALRM, tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
            try:
                result = fn(*args)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            close_slice()
            clock.last = before
            self.raw_s, self.normalised_s = sum(raw), sum(scaled)
            return result

        return ticked


def measure(workload, runner: Runner, seed: int, seconds: float) -> dict:
    """Untraced run: operations back to back until ``seconds`` have passed.

    A stream operation calls ``pause`` between blocks of steps, outside its
    timed steps, and each block's step times are scaled by the calibrations
    around it.  The pool is small enough that a run visits every episode
    several times, and a step's latency is its median over those visits:
    that keeps each step's own cost, which the program sets, and drops the
    bursts a neighbour on the host adds to single steps.  Any other
    operation runs under a :class:`Ticker` and gives one sample, its mean
    time per step.
    """
    import numpy as np

    ops = workload.inputs(_order(workload, seed))  # generated before timing starts
    runner.op(ops[0])  # warm-up: lazy set-up and caches, checked but not timed
    clock = Clock(workload.CALIBRATION)
    ticker = None if workload.per_step_latency else Ticker(clock)
    walls, raw_walls = [], []
    visits, raw_visits = defaultdict(list), defaultdict(list)
    start = time.perf_counter()
    i = 1
    while time.perf_counter() - start < seconds:
        inp = ops[i % len(ops)]
        i += 1
        if ticker is None:
            mark = len(clock.factors)
            wall, latency = runner.op(inp, pause=clock.factor)
            clock.factor()
            if wall is None:
                continue
            latency = np.asarray(latency)
            factors = clock.factors[mark:]  # one per block of steps the pauses delimit
            scaled = latency * np.repeat(factors, workload.BLOCK)[: latency.size]
            walls.append(float(scaled.sum()))
            raw_walls.append(float(latency.sum()))
        else:
            wall, _ = runner.op(inp, wrap=ticker.wrap)
            if wall is None:
                continue
            walls.append(ticker.normalised_s)
            raw_walls.append(ticker.raw_s)
            scaled = np.array([ticker.normalised_s / workload.steps_per_op])
            latency = np.array([ticker.raw_s / workload.steps_per_op])
        key = workload.key(inp) if ticker is None else i  # an operation is a sample of its own
        visits[key].append(scaled)
        raw_visits[key].append(latency)
    if not walls:
        raise RuntimeError("no operation completed")
    trials = len(walls) * workload.trials_per_op
    step_us = np.concatenate([np.median(v, axis=0) for v in visits.values()]) * 1e6
    raw_us = np.concatenate([np.median(v, axis=0) for v in raw_visits.values()]) * 1e6
    return {
        "metrics": {
            "trials_per_s": (trials / sum(walls), "1/s"),
            "step_p50_us": (float(np.percentile(step_us, 50)), "us"),
            "step_p99_us": (float(np.percentile(step_us, 99)), "us"),
        },
        "notes": {
            "ops_timed": len(walls),
            "step_samples": int(step_us.size),
            "visits_per_sample": len(walls) / len(visits),
            "raw_trials_per_s": trials / sum(raw_walls),
            "raw_step_p50_us": float(np.percentile(raw_us, 50)),
            "raw_step_p99_us": float(np.percentile(raw_us, 99)),
            "machine_speed_median": statistics.median(
                w / r for w, r in zip(walls, raw_walls)),
        },
    }


def _tracer():
    import spans

    tracer = spans.Tracer()

    def kernel_nodes(p, args):
        # p = 1 and 2 evaluate one line of Gauss-Legendre nodes, p = 3 a square grid.
        order = args[2] if len(args) > 2 else 0
        tracer.counters["numerics.nodes"] += order ** max(p - 1, 1)

    def csv_bytes(_args, paths):
        tracer.counters["harness.emit_csv.bytes"] += sum(
            Path(p).stat().st_size for p in paths.values())

    tracer.hook("etfilter.harness:simulate", "model.simulate")
    tracer.hook("etfilter.estimator:decide", "trigger.decide")
    tracer.hook("etfilter.estimator:EventTriggeredFilter.init", "estimator.step")
    tracer.hook("etfilter.estimator:EventTriggeredFilter.step", "estimator.step")
    tracer.hook("etfilter.estimator:_ball_full", "numerics.ball")
    tracer.hook("etfilter.rate:ball_moments", "numerics.ball")
    tracer.hook_table("etfilter.numerics:_KERNELS", "numerics.kernel", kernel_nodes)
    tracer.hook("etfilter.harness:rate_two_step", "rate.two_step")
    tracer.hook("etfilter.rate:rate_two_step", "rate.two_step")
    tracer.hook("etfilter.harness:emit_csv", "harness.emit_csv", csv_bytes)
    return tracer


SPANS = (
    "model.simulate",
    "trigger.decide",
    "estimator.step",
    "numerics.ball",
    "numerics.kernel",
    "rate.two_step",
    "harness.emit_csv",
    "harness.loop",
)


def measure_traced(workload, runner: Runner, seed: int, seconds: float) -> dict:
    """Traced run: whole passes over the pool, each operation run plain and traced.

    The number of passes depends only on the workload and ``seconds`` and
    the seed only sets the order, so every counter repeats exactly from run
    to run.  Which copy runs first alternates, so drift affects both sides
    alike.  Both copies run under a :class:`Ticker`; the spans of an
    operation are scaled by its normalised-to-raw time ratio.
    """
    passes = max(1, round(seconds * workload.ops_per_s / (2 * len(workload.POOL))))
    ops = workload.inputs(list(_order(workload, seed)) * passes)
    runner.op(ops[0])  # warm-up
    tracer = _tracer()

    def traced(fn):
        root = tracer.span("harness.loop", fn)

        def run(inp, pause=None):
            tracer.install()
            try:
                return root(inp, pause)
            finally:
                tracer.remove()

        return ticker.wrap(run)

    ticker = Ticker(Clock(workload.CALIBRATION))
    tracer.now = ticker.now
    self_s, total_s = defaultdict(float), defaultdict(float)
    plain_s = traced_s = raw_traced_s = 0.0
    for i, inp in enumerate(ops):
        for use_trace in ((False, True) if i % 2 == 0 else (True, False)):
            before_self, before_total = dict(tracer.self_s), dict(tracer.total_s)
            wall, _ = runner.op(inp, traced if use_trace else ticker.wrap)
            if wall is None:
                continue
            if not use_trace:
                plain_s += ticker.normalised_s
                continue
            traced_s += ticker.normalised_s
            raw_traced_s += ticker.raw_s
            factor = ticker.normalised_s / ticker.raw_s
            for name in tracer.calls:
                self_s[name] += (tracer.self_s[name] - before_self.get(name, 0.0)) * factor
                total_s[name] += (tracer.total_s[name] - before_total.get(name, 0.0)) * factor

    ball_calls = tracer.calls["numerics.ball"]
    kernel_calls = tracer.calls["numerics.kernel"]
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    metrics["numerics.ball.us_per_call"] = (
        total_s["numerics.ball"] / ball_calls * 1e6 if ball_calls else 0.0, "us")
    metrics["numerics.kernel_evals_per_call"] = (
        kernel_calls / ball_calls if ball_calls else 0.0, "count")
    metrics["numerics.nodes_per_call"] = (
        tracer.counters["numerics.nodes"] / ball_calls if ball_calls else 0.0, "count")
    metrics["numerics.useful_eval_ratio"] = (
        ball_calls / kernel_calls if kernel_calls else 0.0, "ratio")
    metrics["harness.emit_csv.bytes"] = (tracer.counters["harness.emit_csv.bytes"], "bytes")
    metrics["trace.wall_s"] = (traced_s, "s")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0 if plain_s else 0.0, "frac")
    metrics.update(kernel_sweep(seed))
    attributed = sum(tracer.self_s[name] for name in SPANS)
    return {
        "metrics": metrics,
        "notes": {
            "ops_traced": len(ops),
            "raw_trace_wall_s": raw_traced_s,
            "self_time_attributed_frac": attributed / raw_traced_s if raw_traced_s else 0.0,
            "absent_hooks": tracer.absent,
        },
    }


def kernel_sweep(seed: int) -> dict:
    """Per-call cost of the public ``ball_moments`` at p = 1, 2, 3 and
    eigenvalue ratios 1, 1e2, 1e6 (eigenvalues spaced geometrically from 1 to
    the ratio, rotated by a seed-drawn orthogonal matrix; for p = 1 the single
    eigenvalue is the ratio itself), ball radius at the alpha = 0.05 quantile.

    The points are visited in ``SWEEP_ROUNDS`` interleaved rounds of one
    short calibrated slice each; a point's figure is its median slice.
    """
    import numpy as np

    import etfilter

    rng = np.random.default_rng(seed)
    points = []
    for p in (1, 2, 3):
        radius2 = etfilter.chi_square_quantile(SWEEP_ALPHA, p)
        rot, _ = np.linalg.qr(rng.standard_normal((p, p)))
        for label, ratio in (("1", 1.0), ("1e2", 1e2), ("1e6", 1e6)):
            lam = np.array([ratio]) if p == 1 else ratio ** (np.arange(p) / (p - 1))
            n = (rot * lam) @ rot.T
            points.append((f"numerics.ball.p{p}.r{label}.us_per_call", 0.5 * (n + n.T), radius2))
    clock = Clock(("scalar", "grid"))
    slices = defaultdict(list)
    for _ in range(SWEEP_ROUNDS):
        for name, n, radius2 in points:
            etfilter.ball_moments(n, radius2)
            clock.factor()
            calls = 0
            t0 = time.perf_counter()
            while calls < SWEEP_MIN_CALLS or time.perf_counter() - t0 < SWEEP_SLICE_S:
                etfilter.ball_moments(n, radius2)
                calls += 1
            per_call = (time.perf_counter() - t0) / calls
            slices[name].append(per_call * clock.factor() * 1e6)
    return {name: (statistics.median(v), "us") for name, v in slices.items()}


# -- reporting -----------------------------------------------------------------


def _meta(args) -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "command": " ".join(getattr(sys, "orig_argv", [sys.executable, *sys.argv])),
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_workload(args) -> dict:
    import workloads

    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[args.workload]
    if not args.trace:
        setup, raw_setup = _setup_seconds(args.workload)
    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](OUT_DIR)
    runner = Runner(workload, expected)
    if args.trace:
        measured = measure_traced(workload, runner, args.seed, args.seconds)
    else:
        measured = measure(workload, runner, args.seed, args.seconds)
        measured["metrics"]["setup_s"] = (statistics.median(setup), "s")
        measured["notes"]["raw_setup_s"] = statistics.median(raw_setup)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        measured["metrics"]["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    measured["notes"]["failed_frac"] = runner.failed / max(runner.attempted, 1)
    measured["attempted"] = runner.attempted
    measured["failed"] = runner.failed
    return measured


def _result_line(measured: dict) -> dict:
    """Print every metric with its unit and the notes; return the result object."""
    for name, (value, unit) in sorted(measured["metrics"].items()):
        print(f"{name} = {value:.6g} {unit}")
    for name, value in measured["notes"].items():
        print(f"{name}: {value}")
    return {
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in measured["metrics"].items()},
    }


def run_all(args) -> int:
    """Each workload in its own interpreter, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {name} printed no result (exit {proc.returncode})",
                  file=sys.stderr)
            return 2
        print(f"== {name}")
        for line in lines[:-1]:
            print(line)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def record() -> None:
    """Run every pool entry once and store its outputs as the reference."""
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    expected = {}
    for name in WORKLOAD_NAMES:
        workload = workloads.WORKLOADS[name](OUT_DIR)
        entries = {}
        for inp in workload.inputs(range(len(workload.POOL))):
            result, _ = workload.run(inp)
            entries[workload.key(inp)] = workload.outputs(result)
        expected[name] = entries
        print(f"recorded {len(entries)} {name} operations", file=sys.stderr)
    # One line per operation keeps the file reviewable in a diff.
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for i, name in enumerate(WORKLOAD_NAMES):
            fh.write(f' "{name}": {{\n')
            items = list(expected[name].items())
            for j, (key, value) in enumerate(items):
                sep = "," if j + 1 < len(items) else ""
                fh.write(f"  {json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}{sep}\n")
            fh.write(" }" + ("," if i + 1 < len(WORKLOAD_NAMES) else "") + "\n")
        fh.write("}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite expected.json")
    parser.add_argument("--setup-probe", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "etfilter" / "__init__.py").is_file():
        return _fail(f"the etfilter sources are missing: no {SRC / 'etfilter'}")
    if not EXPECTED.is_file() and not args.record:
        return _fail(f"no reference outputs at {EXPECTED}; run with --record first")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    if args.setup_probe:
        _setup_probe(args.setup_probe)
        return 0
    try:
        if args.record:
            record()
            return 0
        if args.workload == "all":
            return run_all(args)
        line = _result_line(run_workload(args))
        print("meta " + json.dumps(_meta(args), sort_keys=True))
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
