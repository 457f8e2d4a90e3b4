"""No definition in `src/seqmod` loses its last caller.

Every module-level function and class, and every method that is not a
dunder, must be named somewhere else in `src/`: as a `Name` or an
`Attribute` outside its own definition.  A module-level definition
exported in `seqmod.__all__` is exempt.  Names are matched as strings,
not resolved, so a method counts as called when any attribute of that
name is read.
"""

import ast
from pathlib import Path

import seqmod

SRC = Path(__file__).resolve().parents[1] / "src" / "seqmod"
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(qualified name, exported?, node) for each module-level definition
    and each method of a module-level class."""
    for node in tree.body:
        if isinstance(node, FUNCS + (ast.ClassDef,)):
            yield node.name, node.name in seqmod.__all__, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCS):
                    yield "%s.%s" % (node.name, item.name), False, item


def _orphans(src):
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    uses = {}  # name -> [(module, line)]
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((module, node.lineno))
    out = []
    for module, tree in trees.items():
        for qualname, exported, node in _definitions(tree):
            if _is_dunder(node.name) or exported:
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(m != module or line not in own for m, line in uses.get(node.name, ())):
                out.append("%s:%s" % (module, qualname))
    return out


def test_every_definition_has_a_caller():
    assert _orphans(SRC) == []


def _unused_imports(src):
    """`module:line: name` for each name a module other than `__init__.py`
    imports but never reads; `from __future__` imports are exempt."""
    out = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        out.append("%s:%d: %s" % (path.name, node.lineno, name))
    return out


def test_every_import_is_read():
    assert _unused_imports(SRC) == []
