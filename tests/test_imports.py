"""Every module-level import in the library is used in its own module, so a
name that loses its last caller does not stay bound by habit."""

import ast
from pathlib import Path

import drinfeld

PACKAGE = Path(drinfeld.__file__).parent
# (module, name) bound on purpose: bench/test_bench.py checks that the
# tracer rewraps moebius_of_series in forms.  The package __init__ files
# re-export their imports and are not checked.
KEPT = {("forms.py", "moebius_of_series")}


def unused_imports(path):
    """Names bound by the module's top-level imports that no expression in
    the module reads."""
    tree = ast.parse(path.read_text())
    bound = [alias.asname or alias.name.split(".")[0]
             for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_module_level_imports_are_used():
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        rel = path.relative_to(PACKAGE).as_posix()
        unused = [name for name in unused_imports(path)
                  if (rel, name) not in KEPT]
        if unused:
            found[rel] = unused
    assert found == {}
