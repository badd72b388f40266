"""Static checks: every module imports only names it reads, and the package
keeps no dead private helpers.

No linter is a dependency of the package, so this parses each module under
src/spindle and tests with ast and reports imported names that are never
read.  Package __init__ modules are exempt: their imports are re-exports.
A module-level private name (one leading underscore) in src/spindle must
be read by some src/spindle module; tests do not count as readers.  A
module-level public function in src/spindle must be called by the package
or the benchmark, or be named in README's Library section: one that only
tests call belongs in tests/oracles.py.  In every module of src/spindle a tolerance is a named
module-level constant: no literal with a negative exponent (1e-9) appears
outside a `NAME = value` line.  In the kernel modules (geometry, regions,
measure) formulas are curvature-generic: the sign of kappa is tested only
in the functions SIGN_FORKS names, each for its stated reason.
"""

import ast
import io
import re
import tokenize
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


def called_only_by_tests(trees: dict, library: str) -> list[str]:
    """Public module-level functions of the package modules in trees that no
    tree reads, other than in the function's own body, and that library
    does not name.  A tree named with a leading '-' reads but defines
    nothing counted (the benchmark)."""
    defined = {}
    read = set()
    for module, tree in trees.items():
        own = set()
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                if not module.startswith("-"):
                    defined[node.name] = f"{module}.{node.name} (line {node.lineno})"
                own |= {id(n) for n in ast.walk(node)
                        if isinstance(n, ast.Name) and n.id == node.name}
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and id(n) not in own:
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return sorted(where for name, where in defined.items()
                  if name not in read and not re.search(rf"\b{name}\b", library))


def test_no_test_only_functions():
    package = [p for p in SOURCES if p.parent.name == "spindle" and p.name != "__init__.py"]
    bench = [p for p in sorted((ROOT / "bench").glob("*.py"))
             if not p.name.startswith("test_") and p.name != "conftest.py"]
    assert package and bench
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in package}
    trees |= {"-" + p.stem: ast.parse(p.read_text(), filename=str(p)) for p in bench}
    readme = (ROOT / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    assert called_only_by_tests(trees, library) == []


def test_test_only_function_check_flags_and_accepts():
    trees = {
        "a": ast.parse("def used(x):\n    return x\ndef named(x):\n    return x\n"
                       "def lonely(n):\n    return lonely(n - 1) if n else 0\n"
                       "def benched():\n    return used(1)\n"),
        "-run": ast.parse("import a\nY = a.benched()\n"),
    }
    assert called_only_by_tests(trees, "call `named` for x") == ["a.lonely (line 5)"]


def unnamed_tolerances(source: str) -> list[str]:
    """Number literals with a negative exponent (1e-9, 4E-26) outside the
    module-level `NAME = value` statements of source."""
    named = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if all(isinstance(t, ast.Name) for t in targets):
                named |= set(range(node.lineno, node.end_lineno + 1))
    return [f"{tok.string} (line {tok.start[0]})"
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.NUMBER and "e-" in tok.string.lower() and tok.start[0] not in named]


def test_kernel_tolerances_have_names():
    package = [p for p in SOURCES if p.parent.name == "spindle"]
    assert len(package) > 3
    found = {p.stem: unnamed_tolerances(p.read_text()) for p in package}
    assert found == dict.fromkeys(found, [])


def test_unnamed_tolerance_check_flags_and_accepts():
    source = ("EPS = 1e-9  # named\n_PAIR = (2e-12,\n         3E-4)\nBIG = 1e9\n"
              "def f(x, tol=1e-7):\n    return x < 2.0 ** -46 or x < 4E-26 or x > EPS\n"
              "class C:\n    SLACK = 5e-3\n")
    assert unnamed_tolerances(source) == ["1e-7 (line 5)", "4E-26 (line 6)", "5e-3 (line 8)"]


# The kernel functions that may still test the sign of kappa, and why.
SIGN_FORKS = {
    "geometry.as_point": "entry check: z = 1 in the plane, as a generic residual "
                         "would loosen it far from the origin",
    "geometry._normalize_point": "sheet side: z <= 0 is no point off the sphere",
    "geometry.tangent_basis": "seed choice: (0, 0, 1) on the hyperboloid, (1, 0, 0) near "
                              "the sphere's poles; the plane's frame is the chart axes, "
                              "which perp would give with -0.0 parts",
    "geometry.circumcenter": "per-plane normals, left for the rewrite of ROADMAP item 5",
    "measure._excess": "flat limit 2 y / x of the area 2 atan2(y, x)",
}


def kappa_sign_tests(source: str) -> list[str]:
    """Tests of the sign of kappa in source, by the module-level function
    or class they sit in: comparisons of kappa (a name or an attribute)
    with a number, and kappa standing bare, or under `not`, `and`, `or`, as
    the test of an if, a conditional expression or a while."""
    def is_kappa(node):
        return (isinstance(node, ast.Name) and node.id == "kappa"
                or isinstance(node, ast.Attribute) and node.attr == "kappa")

    def is_number(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
                and not isinstance(node.value, bool))

    def bare(test):
        if isinstance(test, ast.BoolOp):
            return any(bare(v) for v in test.values)
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            return bare(test.operand)
        return is_kappa(test)

    found = []
    for top in ast.parse(source).body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Compare):
                operands = [node.left] + node.comparators
                hit = any(map(is_kappa, operands)) and any(map(is_number, operands))
            else:
                hit = isinstance(node, (ast.If, ast.IfExp, ast.While)) and bare(node.test)
            if hit:
                found.append(f"{where} (line {node.lineno})")
    return found


def test_kappa_sign_tests_stay_in_their_forks():
    kernel = ("geometry", "regions", "measure")
    found = {}
    for m in kernel:
        for hit in kappa_sign_tests((ROOT / "src" / "spindle" / f"{m}.py").read_text()):
            found.setdefault(f"{m}.{hit.split()[0]}", []).append(hit)
    assert {f: hits for f, hits in found.items() if f not in SIGN_FORKS} == {}
    assert sorted(found) == sorted(SIGN_FORKS), "a fork is gone: drop it from SIGN_FORKS"


def test_kappa_sign_test_check_flags_and_accepts():
    source = ("def f(g, c2):\n    if g.kappa == 0:\n        return 1\n"
              "    return c2 if g.kappa * c2 <= 2.0 else -c2\n"
              "def h(g, x):\n    k = g.kappa\n    return x if not g.kappa else 2 * x\n"
              "class C:\n    def m(self, kappa):\n        return 0 > kappa or -1 == kappa\n"
              "def ok(g, z):\n    return z < 0.0 and g.kappa * z >= 1.0\n"
              "while kappa and x:\n    pass\n")
    assert kappa_sign_tests(source) == [
        "f (line 2)", "h (line 7)", "C (line 10)", "C (line 10)", "<module> (line 13)"]
