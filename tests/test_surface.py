"""The library is what its callers reach.

Every public top-level function or class of `src/conicline` must be
referenced by the code that uses the library: the other library modules,
the demos and the benchmark. A reference is a Name, an Attribute, an
import alias, or a string constant equal to the name (the benchmark's
tracer looks builders up by name). References inside the definition's own
body, in `__init__.py` and in `tests/` do not count, so a name that only
tests reach fails here and belongs in `tests/`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "conicline"
CALLERS = (ROOT / "src", ROOT / "demos", ROOT / "perfbench")


def _references(node) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def _public_definitions(tree) -> list:
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def unreached(trees: dict, library) -> list[str]:
    """`module.name` for each public definition of a `library` tree (a key
    of `trees`) that no tree references outside the definition itself."""
    found = []
    references = {key: _references(tree) for key, tree in trees.items()}
    for home in library:
        elsewhere = set().union(*(refs for key, refs in references.items() if key != home))
        body = [(node, _references(node)) for node in trees[home].body]
        for definition in _public_definitions(trees[home]):
            name = definition.name
            at_home = any(name in refs for node, refs in body if node is not definition)
            if not (name in elsewhere or at_home):
                found.append(f"{home.stem}.{name}")
    return found


def test_every_public_library_name_has_a_caller():
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for base in CALLERS for path in sorted(base.rglob("*.py"))
             if path.name != "__init__.py"}
    assert unreached(trees, [path for path in trees if path.parent == PACKAGE]) == []


def test_a_name_used_only_in_its_own_body_is_unreached():
    library = ast.parse("def used():\n    return 1\n\n"
                        "def lonely(n):\n    return lonely(n - 1) if n else used()\n\n"
                        "class Alone:\n    def me(self):\n        return Alone()\n\n"
                        "def called_elsewhere():\n    pass\n")
    caller = ast.parse("from lib import called_elsewhere\n")
    trees = {Path("lib.py"): library, Path("caller.py"): caller}
    assert unreached(trees, [Path("lib.py")]) == ["lib.lonely", "lib.Alone"]
