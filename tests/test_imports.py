"""Static checks: every module imports only names it reads, and the package
keeps no dead private helpers.

No linter is a dependency of the package, so this parses each module under
src/spindle and tests with ast and reports imported names that are never
read.  Package __init__ modules are exempt: their imports are re-exports.
A module-level private name (one leading underscore) in src/spindle must
be read by some src/spindle module; tests do not count as readers.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "spindle").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # names read only inside string annotations, such as -> "DiskPolygon"
    for node in ast.walk(tree):
        notes = [getattr(node, "returns", None), getattr(node, "annotation", None)]
        for note in filter(None, notes):
            for n in ast.walk(note):
                if isinstance(n, ast.Constant) and isinstance(n.value, str):
                    read |= {m.id for m in ast.walk(ast.parse(n.value)) if isinstance(m, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in read]


def test_no_unused_imports():
    assert SOURCES
    found = {}
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        unused = unused_imports(ast.parse(path.read_text(), filename=str(path)))
        if unused:
            found[str(path.relative_to(ROOT))] = unused
    assert found == {}


def test_unused_import_check_flags_and_accepts():
    tree = ast.parse(
        "import math\nimport numpy as np\nfrom typing import Optional, Sequence\n"
        "def f(x: Sequence) -> 'Optional':\n    return np.sqrt(x)\n"
    )
    assert unused_imports(tree) == ["math (line 1)"]


def unread_private_names(trees: dict) -> list[str]:
    defined = {}
    read = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{module}.{name} (line {node.lineno})"
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read |= {alias.name for alias in n.names}
    return sorted(where for name, where in defined.items() if name not in read)


def test_no_unread_private_names():
    package = [p for p in SOURCES if p.parent.name == "spindle"]
    assert package
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in package}
    assert unread_private_names(trees) == []


def test_unread_private_name_check_flags_and_accepts():
    trees = {
        "a": ast.parse("_LIMIT = 3\n_scale: float = 2.0\ndef _used(x):\n    return x * _scale\n"
                       "def _dead(x):\n    return x\nclass _Box:\n    pass\n"),
        "b": ast.parse("from .a import _used\nimport a\nY = _used(1) + a._LIMIT\n"),
    }
    assert unread_private_names(trees) == ["a._Box (line 7)", "a._dead (line 5)"]
