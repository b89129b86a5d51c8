"""The names the benchmark traces by exist in the package.

`bench/tracer.py` patches the functions named in its `INTRA` table and hooks
the spans named in `Tracer._hooks`, and `bench/layers.py` reads the spans of
the functions named in `TIMED` and `CALLED`, all by name: a renamed function
is skipped without an error, and the per-layer metric it fed reads 0. The
names are read with `ast`, so the benchmark is not imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
LAYERS = TRACER.with_name("layers.py")
# Hook names that are methods rather than module functions.
METHODS = {"model.forward": "TransformerLM.forward"}
# Named by the benchmark, gone from the package (ROADMAP item 1): these stay
# missing until the benchmark is mended, and then this set shrinks.
KNOWN_DEAD = {"midi_io.slice_beats", "model.generate"}


def assigned(path: Path, name: str) -> ast.expr:
    """The value assigned to the global or `self.` attribute `name` in `path`."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", getattr(target, "attr", None)) == name for target in node.targets
        ):
            return node.value
    raise AssertionError(f"no {name} in {path}")


def resolves(dotted: str) -> bool:
    """Whether `module.name` is a function, or method, defined in that package module."""
    module_name, _, name = dotted.partition(".")
    module = importlib.import_module(f"overpaint.{module_name}")
    owner, _, attr = METHODS.get(dotted, name).rpartition(".")
    target = getattr(getattr(module, owner) if owner else module, attr, None)
    return inspect.isfunction(target) and target.__module__ == module.__name__


def test_every_intra_entry_point_is_a_function_of_its_module():
    table = ast.literal_eval(assigned(TRACER, "INTRA"))
    assert table
    missing = [f"{module}.{name}" for module, names in table.items() for name in names
               if not resolves(f"{module}.{name}")]
    assert not missing, f"bench/tracer.py INTRA names what the package lacks: {missing}"


def test_every_timed_called_and_hooked_name_resolves_but_the_known_dead():
    names = {*ast.literal_eval(assigned(LAYERS, "TIMED")), *ast.literal_eval(assigned(LAYERS, "CALLED")),
             *(ast.literal_eval(key) for key in assigned(TRACER, "_hooks").keys)}
    assert KNOWN_DEAD <= names
    missing = {name for name in names if not resolves(name)}
    assert missing == KNOWN_DEAD, (
        f"not in the package: {sorted(missing - KNOWN_DEAD)}; "
        f"known dead but found again, so drop them from KNOWN_DEAD: {sorted(KNOWN_DEAD - missing)}")
