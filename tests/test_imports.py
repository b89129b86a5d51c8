"""numpy stays the package's only runtime dependency, every import is used,
only the beat boundary names fractions, every random draw is seeded by its
caller, and the package holds nothing that only its tests reach."""

import ast
import re
import sys
from collections import Counter
from pathlib import Path

import overpaint


SOURCES = sorted(Path(overpaint.__file__).parent.glob("*.py"))
BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = {path.stem for path in SOURCES}
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


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
    """Beats enter through midi_io (NoteEvent, and beats_to_ticks, which
    make_score rounds with) and leadsheet (text parsing); every other module,
    and the rest of midi_io, bar geometry and slicing included, keeps time in
    ints."""
    importers = [path.name for path in SOURCES if "fractions" in absolute_imports(path)]
    assert importers == ["leadsheet.py", "midi_io.py"]

    tree = ast.parse((SOURCES[0].parent / "midi_io.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    boundary = {id(node) for root in (defs["NoteEvent"], defs["beats_to_ticks"])
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


# Each takes a seed; given none, it seeds itself from fresh OS entropy.
SEEDED_MAKERS = {"default_rng", "Random", "SeedSequence", "Generator", "PCG64", "Philox", "SFC64",
                 "MT19937"}


def unseeded_draws(tree):
    """Line numbers of the calls in `tree` that draw from no caller's seed: a
    generator or seed maker given no seed, and any other function of numpy's
    or the standard library's random module (np.random.rand, random.shuffle,
    ...), which draws from process-wide state."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in SEEDED_MAKERS:
            if not node.args and not node.keywords:
                yield node.lineno
        elif isinstance(func, ast.Attribute) and ast.unparse(func.value) in ("random", "np.random",
                                                                             "numpy.random"):
            yield node.lineno


def test_every_draw_is_seeded_by_its_caller():
    """Reruns with one seed are byte-identical only if no draw falls back to
    fresh OS entropy or process-wide generator state."""
    unseeded = [f"{path.name}:{line}" for path in SOURCES
                for line in unseeded_draws(ast.parse(path.read_text(encoding="utf-8")))]
    assert not unseeded, f"unseeded draws: {unseeded}"
    probe = ast.parse("np.random.default_rng()\nrandom.Random()\nnp.random.rand(3)\n"
                      "random.shuffle(x)\nnp.random.SeedSequence()\n"
                      "np.random.default_rng(0)\nrandom.Random(1)\nnp.random.SeedSequence(2)\n"
                      "np.random.PCG64(seed=3)\nrng.random()\nrng.integers(4)\n")
    assert list(unseeded_draws(probe)) == [1, 2, 3, 4, 5]


def names_in(node):
    """Each use of a name under `node`: identifiers, attributes, imported names,
    and the names the benchmark's tracer patches by string, as the parts of a
    dotted `module.name` or the entries of a `{module: names}` table. A bare
    string elsewhere, such as an op's label, names nothing."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and DOTTED.fullmatch(sub.value):
            yield from sub.value.split(".")
        elif isinstance(sub, ast.Dict):
            for key, value in zip(sub.keys, sub.values):
                if (isinstance(key, ast.Constant) and key.value in MODULES
                        and isinstance(value, (ast.Tuple, ast.List))):
                    yield from (elt.value for elt in value.elts if isinstance(elt, ast.Constant))


def public_definitions(tree):
    """(qualified name, node) of each public module-level function and class,
    and of each public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{sub.name}", sub) for sub in node.body
                            if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"))


def test_every_public_definition_is_named_by_the_package_or_the_benchmark():
    """A public function, class or method that neither the package (outside its
    own definition) nor bench/ names is reached only by tests, and belongs in
    them. A name matches by spelling alone, so this catches only names that
    nothing else in the package happens to spell."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    package = Counter(name for tree in trees.values() for name in names_in(tree))
    bench = {name for path in sorted(BENCH.glob("*.py"))
             for name in names_in(ast.parse(path.read_text(encoding="utf-8")))}
    assert bench
    unreached = [f"{module}: {qualified}" for module, tree in trees.items()
                 for qualified, node in public_definitions(tree)
                 if node.name not in bench
                 and package[node.name] == Counter(names_in(node))[node.name]]
    assert not unreached, f"public definitions only tests reach: {unreached}"
