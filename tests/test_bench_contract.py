"""The names the benchmark reaches in the package must exist.

``bench/run.py`` wraps program functions by ``"module:qualname"`` and reports
a target it cannot find as absent instead of failing, so a rename would only
show up in a traced benchmark run; a public name the workloads call would
only fail a benchmark run.  These tests read the hook targets and the
attributes read off imported ``etfilter`` modules from the benchmark's
source (without importing it) and resolve each one.  Attributes read off
returned objects (``out.gamma``, ``state.cache``) are out of an AST's reach,
so each workload also runs one operation and checks it against its recorded
reference.
"""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
BENCH_RUN = BENCH / "run.py"

# Targets known to be gone, and the benchmark has not been re-pointed yet:
# the kernel dispatch table was replaced by the single contour kernel, and
# the two-step rate path no longer reaches ``ball_moments`` (it takes the
# probability from ``estimator._ball_full``, which the tracer hooks anyway).
KNOWN_ABSENT = {"etfilter.numerics:_KERNELS", "etfilter.rate:ball_moments"}


def _hook_targets() -> list[str]:
    tree = ast.parse(BENCH_RUN.read_text(encoding="utf-8"))
    return [
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("hook", "hook_table")
        and node.args
        and isinstance(node.args[0], ast.Constant)
    ]


def _resolves(target: str) -> bool:
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    for name in qualname.split("."):
        if not hasattr(owner, name):
            return False
        owner = getattr(owner, name)
    return True


def test_every_hook_target_resolves():
    targets = _hook_targets()
    assert "etfilter.harness:simulate" in targets  # the parse found the hooks
    assert KNOWN_ABSENT <= set(targets)
    missing = [t for t in targets if t not in KNOWN_ABSENT and not _resolves(t)]
    assert missing == []


def _package_reads(path: Path) -> set[str]:
    """``module:name`` for every ``alias.name`` read where ``alias`` is an
    ``etfilter`` module the file imports (``import etfilter``,
    ``from etfilter import rate``)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            modules.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
    modules = {k: v for k, v in modules.items() if v.split(".")[0] == "etfilter"}
    return {
        f"{modules[node.value.id]}:{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }


def test_every_package_name_the_benchmark_reads_resolves():
    reads = _package_reads(BENCH / "workloads.py") | _package_reads(BENCH_RUN)
    # The parse found module-level names, submodule names and the CLI entry.
    assert {"etfilter:ball_moments", "etfilter.rate:RateState", "etfilter.cli:main"} <= reads
    assert [t for t in sorted(reads) if not _resolves(t)] == []


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["mc_table1", "stream_remote", "stream_p3_stiff"])
def test_each_workload_runs_one_operation_to_its_reference(workloads, name, tmp_path):
    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))[name]
    workload = workloads.WORKLOADS[name](tmp_path)
    [op] = workload.inputs([0])
    result, _ = workload.run(op, pause=None)
    assert workload.check(workload.outputs(result), expected[workload.key(op)]) == []
