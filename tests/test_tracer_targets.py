"""The benchmark tracer's own-module entry points exist in the package.

`bench/tracer.py` patches the functions named in its `INTRA` table by name;
a renamed function is skipped without an error, and the per-layer metric it
fed reads 0. The table is read with `ast`, so the benchmark is not imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def intra_table() -> dict:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "INTRA" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no INTRA table in {TRACER}")


def test_every_intra_entry_point_is_a_function_of_its_module():
    table = intra_table()
    assert table
    missing = []
    for module_name, names in table.items():
        module = importlib.import_module(f"overpaint.{module_name}")
        for name in names:
            fn = getattr(module, name, None)
            if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                missing.append(f"{module_name}.{name}")
    assert not missing, f"bench/tracer.py INTRA names what the package lacks: {missing}"
