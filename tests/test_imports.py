"""Import hygiene: every import in the package is used, and every package
exports exactly the names it imports."""

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
