"""The reference implementations must not lean on the code they check.

``oracles`` may take the model container from ``etfilter.model``; any other
``etfilter`` import would let a test compare the package with itself.
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"


def _imported_modules(tree: ast.AST) -> set[str]:
    """Every module the file imports; names taken from ``etfilter`` itself
    count as ``etfilter.<name>``, and a relative import keeps its dots."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module == "etfilter":
                names.update(f"etfilter.{alias.name}" for alias in node.names)
            else:
                names.add(module)
    return names


def test_oracles_import_only_the_model_from_the_package():
    imported = _imported_modules(ast.parse(ORACLES.read_text(encoding="utf-8")))
    assert "etfilter.model" in imported  # the walk found the package import
    offending = sorted(
        name
        for name in imported
        if name.startswith(".") or (name.split(".")[0] == "etfilter" and name != "etfilter.model")
    )
    assert offending == []
