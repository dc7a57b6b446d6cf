"""The names the benchmark's tracer hooks must exist in the package.

``bench/run.py`` wraps program functions by ``"module:qualname"`` and reports
a target it cannot find as absent instead of failing, so a rename would only
show up in a traced benchmark run.  This test reads the hook targets from the
benchmark's source (without importing it) and resolves each one.
"""

import ast
import importlib
from pathlib import Path

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"

# Targets known to be gone: the kernel dispatch table was replaced by the
# single contour kernel, and the benchmark has not been re-pointed yet.
KNOWN_ABSENT = {"etfilter.numerics:_KERNELS"}


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
