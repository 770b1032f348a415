"""The library stands alone: no module of src/tgcn imports the benchmark
harness in perfbench/, which wraps the library from outside and may only
depend on it, never the other way round."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# perfbench runs its scripts with perfbench/ on the path, so its modules
# are also importable by their own names
HARNESS = {"perfbench"} | {p.stem for p in (ROOT / "perfbench").glob("*.py")}


def _imported(tree):
    """The absolute module names that the import statements of tree name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_src_never_imports_perfbench():
    assert {"tracer", "workloads", "inputs"} <= HARNESS
    sources = sorted((ROOT / "src" / "tgcn").glob("*.py"))
    assert sources
    found = [(path.name, name) for path in sources
             for name in _imported(ast.parse(path.read_text()))
             if name.split(".")[0] in HARNESS]
    assert not found
