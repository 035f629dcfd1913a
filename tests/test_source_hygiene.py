"""Source hygiene, read with ast: no unused imports, and no library code that only tests run."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "quasilocal").glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def literal(tree: ast.Module, name: str):
    """The value of the module-level constant name, empty when it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == name:
            return ast.literal_eval(node.value)
    return ()


def references(*nodes) -> set:
    """Bare names and attribute names read anywhere under the nodes."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for top in nodes
        for n in ast.walk(top)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


@pytest.mark.parametrize(
    "path", PACKAGE + sorted((ROOT / "tests").glob("*.py")), ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_every_import_is_used(path):
    tree = parse(path)
    used = set(literal(tree, "__all__")) | {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
        for alias in node.names
    }
    assert sorted(imported - used) == []


def test_library_code_is_run_outside_tests():
    """Every public function, class, method and property is used by the package, a demo or the benchmark.

    Names are matched, not bindings: a method counts as used when its name
    is read anywhere else.  A use inside its own definition or a re-export
    by __init__ does not count; a function or Class.method the benchmark's
    tracer lists in PUBLIC does.
    """
    trees = {path: parse(path) for path in PACKAGE if path.name != "__init__.py"}
    outside, traced = set(), set()
    for path in sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        tree = parse(path)
        outside |= references(tree)
        traced |= {name for _, name in literal(tree, "PUBLIC")}
    outside |= {name.split(".")[0] for name in traced}
    unused = []
    for path, tree in trees.items():
        elsewhere = outside.union(*(references(t) for p, t in trees.items() if p != path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            rest = [n for n in tree.body if n is not node]
            if node.name not in elsewhere | references(*rest):
                unused.append(f"{path.stem}.{node.name}")
            for method in node.body if isinstance(node, ast.ClassDef) else ():
                if not isinstance(method, ast.FunctionDef) or method.name.startswith("_"):
                    continue
                name = f"{node.name}.{method.name}"
                if name in traced:
                    continue
                siblings = [m for m in node.body if m is not method]
                if method.name not in elsewhere | references(*rest, *siblings):
                    unused.append(f"{path.stem}.{name}")
    assert unused == []
