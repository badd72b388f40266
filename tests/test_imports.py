"""Static check: every module imports only names it reads.

No linter is a dependency of the package, so this parses each module under
src/spindle and tests with ast and reports imported names that are never
read.  Package __init__ modules are exempt: their imports are re-exports.
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
