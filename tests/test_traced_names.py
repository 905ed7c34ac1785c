"""The benchmark tracer wraps the functions named in perfbench/spans.py
TRACED with getattr; each name must stay defined in its module."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    tree = ast.parse(SPANS.read_text())
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED"
                          for t in node.targets))
    assert traced
    for layer, names in traced.items():
        module = importlib.import_module("ibcfock." + layer)
        for name in names:
            assert callable(getattr(module, name, None)), \
                "ibcfock.%s.%s" % (layer, name)
