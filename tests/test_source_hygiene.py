"""Source hygiene, read with ast: no unused imports, and no library code that only tests run."""

import argparse
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "quasilocal").glob("*.py"))
# demo and benchmark code: what runs the package outside its tests
OUTSIDE = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def literal(tree: ast.Module, name: str):
    """The value of the module-level constant name, empty when it has none or it is computed."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == name:
            try:
                return ast.literal_eval(node.value)
            except ValueError:
                return ()
    return ()


def outside_modules(tree: ast.Module) -> set:
    """Names the module binds by importing from outside the package: np, npleg, json, ..."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.level == 0)
        for alias in node.names
        if not (getattr(node, "module", None) or alias.name).startswith("quasilocal")
    }


def references(*nodes, bare: bool = True, outside: set = frozenset()) -> set:
    """Attribute names read anywhere under the nodes, and bare names unless bare is False.

    An attribute read on a name in outside (np.zeros, with np imported
    from numpy) is not a read of a package attribute, and does not count.
    """
    kinds = (ast.Name, ast.Attribute) if bare else ast.Attribute
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for top in nodes
        for n in ast.walk(top)
        if isinstance(n, kinds) and getattr(getattr(n, "value", None), "id", None) not in outside
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

    Names are matched, not bindings: a function or class counts as used
    when its name is read anywhere else, a method or property when an
    attribute of its name is read anywhere else (obj.name), so a local
    variable of the same name does not count, nor does an attribute of a
    module from outside the package (np.zeros).  A use inside its own
    definition or a re-export by __init__ does not count; a function or
    Class.method the benchmark's tracer lists in PUBLIC does.
    """
    trees = {path: parse(path) for path in PACKAGE if path.name != "__init__.py"}
    outside, outside_attributes, traced = set(), set(), set()
    for tree in map(parse, OUTSIDE):
        outside |= references(tree)
        outside_attributes |= references(tree, bare=False, outside=outside_modules(tree))
        traced |= {name for _, name in literal(tree, "PUBLIC")}
    outside |= {name.split(".")[0] for name in traced}
    unused = []
    for path, tree in trees.items():
        others = [t for p, t in trees.items() if p != path]
        elsewhere = outside.union(*(references(t) for t in others))
        attributes_elsewhere = outside_attributes.union(
            *(references(t, bare=False, outside=outside_modules(t)) for t in others)
        )
        own_modules = outside_modules(tree)
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
                own = references(*rest, *siblings, bare=False, outside=own_modules)
                if method.name not in attributes_elsewhere | own:
                    unused.append(f"{path.stem}.{name}")
    assert unused == []


def test_only_the_grid_reads_the_legendre_basis():
    """Other modules reach P_l through the Grid's synthesis and modes, never its Vandermonde matrices."""
    basis = {"legendre_vandermonde", "legendre_vandermonde_dx"}
    readers = [path.name for path in PACKAGE if basis & references(parse(path))]
    assert readers == ["geometry.py"]


def numpy_calls(names: set) -> list:
    """Each call np.NAME in package code with NAME in names, as 'file:line np.NAME'."""
    return [
        f"{path.name}:{node.lineno} np.{node.func.attr}"
        for path in PACKAGE
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and getattr(node.func.value, "id", None) == "np"
        and node.func.attr in names
    ]


def test_reductions_are_array_methods():
    """np.min, np.max and their kin cost a call wrapper more than v.min(): package code calls the methods."""
    assert numpy_calls({"min", "max", "amin", "amax", "argmin", "argmax"}) == []


def test_tables_are_read_and_written_by_physdata():
    """physdata's row reader and writer own the table format: package code calls no numpy file reader or writer."""
    assert numpy_calls({"loadtxt", "genfromtxt", "savetxt", "fromfile"}) == []


def is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in node.decorator_list
    )


def test_every_dataclass_field_is_read():
    """Package, demo or benchmark code reads every dataclass field of a package class as obj.field.

    A field that nothing reads is a constructor argument that does nothing.
    """
    read = set()
    trees = [parse(path) for path in PACKAGE + OUTSIDE]
    for tree in trees:
        read |= references(tree, bare=False, outside=outside_modules(tree))
    unread = [
        f"{node.name}.{item.target.id}"
        for tree in trees[: len(PACKAGE)]
        for node in tree.body
        if isinstance(node, ast.ClassDef) and is_dataclass(node)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        and item.target.id not in read
    ]
    assert unread == []


def test_every_traced_name_is_defined():
    """Every (module, name) the benchmark's tracer wraps is defined in the package.

    Class.method names count.  A change that deletes or renames a traced
    function then fails here, not only when the tracer cannot find it.
    """
    defined = set()
    for path in PACKAGE:
        for node in parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((path.stem, node.name))
            for method in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(method, ast.FunctionDef):
                    defined.add((path.stem, f"{node.name}.{method.name}"))
    tracer = parse(ROOT / "perfbench" / "tracer.py")
    traced = set(literal(tracer, "PUBLIC")) | set(literal(tracer, "INTERNAL"))
    assert traced and sorted(traced - defined) == []


# wrappers over a kernel or a field, kept for callers outside the package
DELEGATING_WRAPPERS = {
    "integrate_surface", "qle", "qle_angle_form", "residual", "reference_mean_curvature_integral",
    "laplacian", "hessian", "gauss_curvature", "hat_gauss_curvature", "embed_lifted",
    "extrinsic_data", "mean_curvature", "convexity_guard", "energy_gradient",
    "tau_from_coefficients", "integral_from_north",
}


def test_package_calls_no_delegating_wrapper():
    """Package code calls the kernel or reads the field a delegating wrapper wraps, never the wrapper.

    Calls by bare name and by attribute count; a read such as
    proj.mean_curvature is not a call and does not.
    """
    calls = [
        f"{path.name}:{node.lineno} {name}"
        for path in PACKAGE
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Call)
        and (name := getattr(node.func, "id", None) or getattr(node.func, "attr", None)) in DELEGATING_WRAPPERS
    ]
    assert calls == []


def test_every_flag_an_error_names_is_a_flag_of_the_parser():
    """Each literal flag of a CliValidationError or _for_flag in cli.py is an option of a subcommand.

    A flag is the first argument when that is a string literal; each
    '/'-separated part of it must be an option string of build_parser().
    """
    from quasilocal.cli import build_parser

    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {option for sub in commands.choices.values() for option in sub._option_string_actions}
    named = {
        part
        for node in ast.walk(parse(ROOT / "src" / "quasilocal" / "cli.py"))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) in ("CliValidationError", "_for_flag")
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
        for part in node.args[0].value.split("/")
    }
    assert len(named) >= 10 and sorted(named - options) == []
