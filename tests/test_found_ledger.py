"""CHANGES.md and tests/test_found.py agree on the open defects.

Every test in tests/test_found.py is cited as `tests/test_found.py::<name>`
by exactly one line of CHANGES.md.  That line begins `FOUND:` while the test
carries its strict xfail mark, and `MENDED:` once the mark is gone; an xfail
that is not strict is refused, as it would pass silently when the defect is
mended.  Every id that CHANGES.md cites names a test in the file.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CITATION = re.compile(r"tests/test_found\.py::(\w+)")


def _xfail_mark(test: ast.FunctionDef) -> str:
    """'strict' or 'loose' for a pytest.mark.xfail decorator, '' for none."""
    for mark in test.decorator_list:
        call = mark if isinstance(mark, ast.Call) else None
        if ast.unparse(call.func if call else mark) == "pytest.mark.xfail":
            strict = call and any(k.arg == "strict" and isinstance(k.value, ast.Constant)
                                  and k.value.value is True for k in call.keywords)
            return "strict" if strict else "loose"
    return ""


def ledger_problems(changes: str, found_source: str) -> list[str]:
    marks = {node.name: _xfail_mark(node) for node in ast.parse(found_source).body
             if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}
    tags: dict[str, list[str]] = {}
    for line in changes.splitlines():
        for name in set(CITATION.findall(line)):
            tags.setdefault(name, []).append(line.split(":", 1)[0])
    problems = [f"{name} is cited but is no test in tests/test_found.py"
                for name in sorted(tags) if name not in marks]
    for name, mark in sorted(marks.items()):
        cited = tags.get(name, [])
        if mark == "loose":
            problems.append(f"{name}'s xfail is not strict")
        elif len(cited) != 1:
            problems.append(f"{name} is cited by {len(cited)} lines of CHANGES.md")
        elif cited[0] != ("FOUND" if mark else "MENDED"):
            want = "FOUND" if mark else "MENDED"
            problems.append(f"{name} is cited by a line that begins {cited[0]!r}, not {want!r}")
    return problems


def test_changes_and_found_tests_agree():
    changes = (ROOT / "CHANGES.md").read_text()
    found = (ROOT / "tests" / "test_found.py").read_text()
    assert ledger_problems(changes, found) == []


def test_ledger_check_flags_and_accepts():
    source = ("import pytest\n"
              "@pytest.mark.xfail(strict=True, reason='FOUND: a')\n"
              "def test_open():\n    assert False\n"
              "def test_mended():\n    assert True\n"
              "def _helper():\n    pass\n")
    good = ("FOUND: a fault. Repro: `tests/test_found.py::test_open`.\n"
            "MENDED: b, once `tests/test_found.py::test_mended`.\n"
            "A plain line may name test_open without the path.\n")
    assert ledger_problems(good, source) == []
    assert ledger_problems(good, source.replace("strict=True, ", "")) == [
        "test_open's xfail is not strict"]
    assert ledger_problems(good, source + "def test_plain():\n    pass\n") == [
        "test_plain is cited by 0 lines of CHANGES.md"]
    swapped = good.replace("FOUND: a", "MENDED: a").replace("MENDED: b", "FOUND: b")
    assert ledger_problems(swapped, source) == [
        "test_mended is cited by a line that begins 'FOUND', not 'MENDED'",
        "test_open is cited by a line that begins 'MENDED', not 'FOUND'"]
    twice = good + "FOUND: again `tests/test_found.py::test_open`\n"
    assert ledger_problems(twice, source) == ["test_open is cited by 2 lines of CHANGES.md"]
    gone = good + "MENDED: `tests/test_found.py::test_gone`\n"
    assert ledger_problems(gone, source) == ["test_gone is cited but is no test in tests/test_found.py"]
