"""Import hygiene: every import in the package is used, every package
exports exactly the names it imports, and the layers import each other only
along the edges of one declared DAG."""

import ast
import pathlib

import semcloud

PACKAGE = pathlib.Path(semcloud.__file__).parent

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_imports(scope):
    """The import statements of ``scope``'s own body, at any depth of its
    blocks, but not those of the functions defined inside it."""
    stack = list(scope.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source):
    """Names bound by the imports of ``source`` and never read in the scope
    that binds them: the module, or a function (with the functions defined
    inside it).

    ``from __future__`` imports are directives, not bindings, and are skipped.
    """
    tree = ast.parse(source)
    scopes = [tree] + [node for node in ast.walk(tree) if isinstance(node, FUNCTIONS)]
    unused = []
    for scope in scopes:
        bound = {}
        for node in _own_imports(scope):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        read = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        unused += [(line, name) for name, line in bound.items() if name not in read]
    return sorted(unused)


def test_the_check_sees_an_unused_import():
    source = "import os\nimport sys\nfrom math import pi, tau\n\nprint(sys.argv, tau)\n"
    assert unused_imports(source) == [(1, "os"), (3, "pi")]


def test_the_check_sees_an_unused_import_in_a_function():
    source = ("def f():\n"
              "    import os\n"
              "    if os.sep:\n"
              "        from math import pi, tau\n"
              "    def g():\n"
              "        import sys\n"
              "        return tau\n"
              "    return g\n"
              "\n"
              "def h():\n"
              "    return pi\n")
    assert unused_imports(source) == [(4, "pi"), (6, "sys")]


def test_every_import_is_used():
    # A package __init__ imports names to re-export them.
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    assert modules
    unused = ["%s:%d %s" % (path.relative_to(PACKAGE), line, name)
              for path in modules
              for line, name in unused_imports(path.read_text())]
    assert unused == []


def export_mismatch(source):
    """``(missing, stale)`` for a package ``__init__`` source: the names it
    imports that ``__all__`` leaves out, and the ``__all__`` entries it does
    not import (a stale entry breaks ``from package import *``)."""
    tree = ast.parse(source)
    imported, exported = [], []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif (isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["__all__"]):
            exported = ast.literal_eval(node.value)
    return (sorted(set(imported) - set(exported)),
            sorted(set(exported) - set(imported)))


def test_the_check_sees_an_export_mismatch():
    source = "from .a import b, c as d\nimport os.path\n\n__all__ = ['b', 'os', 'e']\n"
    assert export_mismatch(source) == (["d"], ["e"])


def test_every_package_exports_exactly_what_it_imports():
    packages = sorted(PACKAGE.rglob("__init__.py"))
    assert len(packages) > 1
    mismatched = {str(path.relative_to(PACKAGE)): export_mismatch(path.read_text())
                  for path in packages}
    assert {path: found for path, found in mismatched.items() if found != ([], [])} == {}


# The units of the package a module-level import may reach from each unit:
# a unit is a top-level module or a subpackage.  The leaves import no layer;
# each layer imports only leaves, kg also datalog (its facts are a FactSet);
# configure wires every layer together, and cli and config import the
# layers inside the functions that run them, so each stage loads only what
# it runs.  A function-level import is exempt.
LEAVES = {"errors", "rng", "specs", "pilots"}
LAYER_IMPORTS = {
    "__init__": set(),
    "errors": set(),
    "rng": set(),
    "specs": {"rng"},
    "pilots": {"errors", "specs"},
    "datalog": {"errors"},
    "kg": {"datalog", "errors", "specs"},
    "etl": LEAVES,
    "sim": LEAVES,
    "optimizer": LEAVES,
    "learning": LEAVES,
    "configure": LEAVES | {"datalog", "kg", "etl", "sim", "optimizer", "learning"},
    "cli": {"config"},
    "config": set(),
}


def _unit(path):
    """The unit of the module at ``path``, relative to the package."""
    return path.parts[0].removesuffix(".py")


def module_level_edges(path, source):
    """The units other than its own that the module-level imports of the
    module at ``path`` (relative to the package) reach."""
    # the dotted package of the module, as a relative import counts from it
    package = ["semcloud", *path.parts[:-1]]
    reached = set()
    for node in _own_imports(ast.parse(source)):
        if isinstance(node, ast.Import):
            targets = [alias.name.split(".") for alias in node.names]
        elif node.level:
            base = package[:len(package) - node.level + 1]
            targets = ([base + node.module.split(".")] if node.module
                       else [base + [alias.name] for alias in node.names])
        else:
            targets = [node.module.split(".")]
        reached |= {parts[1] for parts in targets
                    if parts[0] == "semcloud" and len(parts) > 1}
    return reached - {_unit(path)}


def test_the_edge_check_resolves_relative_imports():
    source = ("import os\n"
              "from . import model\n"
              "from ..datalog.factset import FactSet\n"
              "from ..specs import RANGE_SIZE\n"
              "import semcloud.rng\n"
              "def f():\n"
              "    from ..sim import run\n")
    path = pathlib.Path("kg", "facts.py")
    assert module_level_edges(path, source) == {"datalog", "specs", "rng"}
    assert module_level_edges(pathlib.Path("cli.py"), "from . import config\n") == {"config"}


def test_the_declared_layer_imports_form_a_dag():
    # depth-first, with every unit on the current path marked
    done, path = set(), []

    def visit(unit):
        assert unit not in path, "cycle: %s" % " -> ".join(path + [unit])
        if unit not in done:
            path.append(unit)
            for reached in LAYER_IMPORTS[unit]:
                visit(reached)
            path.pop()
            done.add(unit)

    for unit in LAYER_IMPORTS:
        visit(unit)


def test_each_layer_imports_only_along_the_declared_dag():
    modules = sorted(p.relative_to(PACKAGE) for p in PACKAGE.rglob("*.py"))
    assert {_unit(path) for path in modules} == set(LAYER_IMPORTS)
    stray = ["%s -> %s" % (path, unit)
             for path in modules
             for unit in sorted(module_level_edges(path, (PACKAGE / path).read_text()))
             if unit not in LAYER_IMPORTS[_unit(path)]]
    assert stray == []
