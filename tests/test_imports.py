"""Import hygiene: every module-level import in the package is used."""

import ast
import pathlib

import semcloud

PACKAGE = pathlib.Path(semcloud.__file__).parent


def unused_imports(source):
    """Names bound by the module-level imports of ``source`` and never read.

    ``from __future__`` imports are directives, not bindings, and are skipped.
    """
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_check_sees_an_unused_import():
    source = "import os\nimport sys\nfrom math import pi, tau\n\nprint(sys.argv, tau)\n"
    assert unused_imports(source) == [(1, "os"), (3, "pi")]


def test_every_module_level_import_is_used():
    # A package __init__ imports names to re-export them.
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    assert modules
    unused = ["%s:%d %s" % (path.relative_to(PACKAGE), line, name)
              for path in modules
              for line, name in unused_imports(path.read_text())]
    assert unused == []
