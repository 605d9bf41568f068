"""The package imports only the standard library, numpy and scipy."""

import ast
import sys
from pathlib import Path

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "ctxrec"}
SRC = Path(__file__).resolve().parent.parent / "src" / "ctxrec"


def _imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_only_numpy_scipy_and_stdlib_imports():
    files = sorted(SRC.rglob("*.py"))
    assert files
    bad = [f"{path.relative_to(SRC)}:{lineno}: {root}"
           for path in files
           for lineno, root in _imported_roots(ast.parse(path.read_text()))
           if root not in ALLOWED]
    assert not bad, "imports outside numpy + scipy + stdlib: " + ", ".join(bad)
