"""The package imports only the standard library, numpy and scipy, still
has every name the benchmark harness imports or patches, and adds gradient
rows by index through ``engine.sum_rows`` alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "ctxrec"}
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ctxrec"


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


def test_no_add_at_calls():
    """``np.add.at`` sums repeated rows in its own order; ``engine.sum_rows``
    is the one summation the package's gradients use, so the bits of every
    checkpoint follow from one rule."""
    bad = [f"{path.relative_to(SRC)}:{node.lineno}"
           for path in sorted(SRC.rglob("*.py"))
           for node in ast.walk(ast.parse(path.read_text()))
           if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
           and node.func.attr == "at" and isinstance(node.func.value, ast.Attribute)
           and node.func.value.attr == "add"]
    assert not bad, "np.add.at calls: " + ", ".join(bad)


def test_bench_harness_imports_and_instruments():
    """``bench/harness.py`` imports ctxrec names and ``bench/tracing.py``
    patches more of them by name, so a name that leaves ``src/`` must fail
    here and not only in a traced benchmark run. A fresh process, as
    ``instrument`` patches the modules it is given."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(str(ROOT / d) for d in ("src", "bench"))}
    proc = subprocess.run(
        [sys.executable, "-c", "import harness, tracing; tracing.instrument(tracing.Tracer())"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
