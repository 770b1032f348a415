"""One recording rule for the tape: an autodiff primitive records its node
through `autodiff._node`, as its value and one gradient per operand. Only
the fused kernels `relu_mlp` and `gru_unroll`, whose one pass over the row
blocks gives the gradients of all their operands together, call
`Tensor._make` themselves."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tgcn"


def _make_references(tree):
    """The top-level definition around each `._make` reference in tree."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "_make":
                yield getattr(top, "name", None)


def test_only_node_and_the_fused_kernels_call_make():
    found = sorted((path.name, name) for path in SRC.glob("*.py")
                   for name in _make_references(ast.parse(path.read_text())))
    assert found == [("autodiff.py", "_node"), ("autodiff.py", "gru_unroll"),
                     ("autodiff.py", "relu_mlp")]
