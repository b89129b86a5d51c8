"""numpy stays the package's only runtime dependency, every import is used, and
only the beat boundary names fractions."""

import ast
import sys
from pathlib import Path

import overpaint


SOURCES = sorted(Path(overpaint.__file__).parent.glob("*.py"))


def absolute_imports(path):
    """Names of the modules `path` imports, relative imports left out."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:  # level > 0: relative
            yield node.module


def test_package_imports_only_numpy_and_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    assert SOURCES
    outside = [f"{path.name}: {name}" for path in SOURCES for name in absolute_imports(path)
               if name.split(".")[0] not in allowed]
    assert not outside, outside


def test_only_the_beat_boundary_imports_fractions():
    """Beats enter and leave through midi_io (NoteEvent, MidiScore.notes and
    beats_to_ticks, which make_score rounds with) and leadsheet (text
    parsing); every other module, and the rest of midi_io, bar geometry and
    slicing included, keeps time in ints."""
    importers = [path.name for path in SOURCES if "fractions" in absolute_imports(path)]
    assert importers == ["leadsheet.py", "midi_io.py"]

    tree = ast.parse((SOURCES[0].parent / "midi_io.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    notes = next(node for node in defs["MidiScore"].body
                 if isinstance(node, ast.FunctionDef) and node.name == "notes")
    boundary = {id(node) for root in (defs["NoteEvent"], notes, defs["beats_to_ticks"])
                for node in ast.walk(root)}
    stray = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "Fraction" and id(node) not in boundary]
    assert not stray, f"midi_io names Fraction outside the beat boundary, lines {stray}"


def test_every_module_level_import_is_used():
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = [
            alias.asname or alias.name.split(".")[0]
            for node in tree.body
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        ]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in bound if name not in used]
    assert not unused, unused

