"""Tolerance census: set each named tolerance of src/spindle to 0 in turn
and run the Tier-1 suite on that copy.

A named tolerance is a module-level UPPER_CASE constant of src/spindle
whose value is a float in (0, 1e-3], or whose right-hand side holds a
literal with a negative exponent.  The mutant sets each such literal to
0.0, or the whole right-hand side where there is none: _ANTIPODAL_CHORD2 =
4.0 - 2e-12 becomes 4.0, MERGE_EPS = 10 * GEOM_EPS becomes 0.0 (and zeroing
GEOM_EPS zeroes MERGE_EPS too).  _DIFF_STEP is skipped: it is a difference
step, not a slack.

Each mutant runs `pytest -x -q` in its own temporary copy of the repository,
at most two at a time.  The script prints one line per tolerance: whether
the suite still passes at 0, and otherwise the first failing test.  A
tolerance the suite passes at 0 is pinned by no test.  pytest does not
collect this file (its name does not start with test_).  From the
repository root:

    python tests/tolerance_census.py

The full sweep took 22 minutes on a 2-core VM.
"""

from __future__ import annotations

import ast
import importlib
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spindle"
SKIP = {"_DIFF_STEP"}
WORKERS = 2
FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.M)


def tolerances() -> list[tuple[Path, str, list[ast.expr]]]:
    """(module path, name, nodes the mutant sets to 0.0) per named tolerance."""
    sys.path.insert(0, str(ROOT / "src"))
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        module = importlib.import_module(f"spindle.{path.stem}")
        for node in ast.parse(source).body:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            name = node.targets[0].id
            if not name.lstrip("_").isupper():
                continue
            literals = [n for n in ast.walk(node.value) if isinstance(n, ast.Constant)
                        and "e-" in ast.get_source_segment(source, n).lower()]
            value = getattr(module, name)
            if literals or (isinstance(value, float) and 0.0 < abs(value) <= 1e-3):
                found.append((path, name, literals or [node.value]))
    return found


def mutant(path: Path, nodes: list[ast.expr]) -> bytes:
    """The module's source with each node replaced by 0.0 (offsets are in
    UTF-8 bytes, as ast gives them)."""
    lines = path.read_bytes().splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))
    out = b"".join(lines)
    spans = sorted(((starts[n.lineno - 1] + n.col_offset, starts[n.end_lineno - 1] + n.end_col_offset)
                    for n in nodes), reverse=True)
    for a, b in spans:
        out = out[:a] + b"0.0" + out[b:]
    return out


def run_mutant(path: Path, name: str, nodes: list[ast.expr]) -> str:
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "*.egg-info"))
        (copy / path.relative_to(ROOT)).write_bytes(mutant(path, nodes))
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                              cwd=copy, capture_output=True, text=True)
    where = f"{path.stem}.{name}"
    if done.returncode == 0:
        return f"{where}: suite PASSES at 0 (pinned by no test)"
    first = FIRST_FAILURE.search(done.stdout)
    return f"{where}: fails at 0, first {first.group(1) if first else done.stdout.strip()[-200:]}"


def main() -> int:
    every = tolerances()
    per_module = Counter(path.stem for path, _, _ in every)
    print(f"{len(every)} named tolerances: "
          + ", ".join(f"{m} {k}" for m, k in sorted(per_module.items())), flush=True)
    found = [t for t in every if t[1] not in SKIP]
    lines = []
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        for line in pool.map(lambda t: run_mutant(*t), found):
            print(line, flush=True)
            lines.append(line)
    survivors = sum("PASSES" in line for line in lines)
    print(f"{len(lines)} tolerances mutated, {survivors} pass the suite at 0")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
