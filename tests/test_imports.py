"""numpy stays the package's only runtime dependency, and every import is used."""

import ast
import sys
from pathlib import Path

import overpaint


def test_package_imports_only_numpy_and_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    sources = sorted(Path(overpaint.__file__).parent.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:  # level > 0: relative
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in allowed]
    assert not outside, outside


def test_every_module_level_import_is_used():
    sources = sorted(Path(overpaint.__file__).parent.glob("*.py"))
    unused = []
    for path in sources:
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
