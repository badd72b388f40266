"""run_trial's deterministic fields against the golden records in
tests/golden/ (written by tests/write_golden.py), bit for bit.

Exact bits tie the records to the Python, numpy and libm that wrote them:
a mismatch names both versions.  On a mismatch the test prints, per field
and plane, how many values moved and the largest relative move, and then
every verdict (violations, cap status) that changed.
"""

import json
import math
from collections import defaultdict

import pytest

from write_golden import FIELDS, SEEDS, path_for, trial_records, versions

VERDICTS = ("cap_status", "violations")


def moves(want: list[list], got: list[list]) -> list[str]:
    """The report of what moved from want to got, empty when nothing did."""
    moved = defaultdict(list)  # (field, plane) -> relative moves
    verdicts = []
    for old, new in zip(want, got):
        plane, trial = old[:2]
        for field, a, b in zip(FIELDS, old[2:], new[2:]):
            if a == b:
                continue
            if field in VERDICTS:
                verdicts.append(f"  {plane} trial {trial}: {field} {a!r} -> {b!r}")
            elif a is None or b is None:
                moved[field, plane].append(math.inf)
            else:
                x, y = float(a), float(b)
                moved[field, plane].append(abs(y - x) / max(abs(x), 1e-300))
    lines = [f"  {field} {plane}: {len(rel)} moved, largest relative move {max(rel):.3g}"
             for (field, plane), rel in sorted(moved.items())]
    if verdicts:
        lines += ["verdicts that changed:"] + verdicts
    return lines


def test_moves_reports_floats_and_verdicts():
    row = ["euclidean", 3, "0.5", "0.1", "0.1", "0.0", "0.3", "0.2", "0.1", "ok", "0.01", []]
    assert moves([row], [row]) == []
    new = list(row)
    new[2], new[9], new[11] = "0.5000000000000001", "CAP_OVERLAP", ["area-bound"]
    assert moves([row], [new]) == [
        "  width euclidean: 1 moved, largest relative move 2.22e-16",
        "verdicts that changed:",
        "  euclidean trial 3: cap_status 'ok' -> 'CAP_OVERLAP'",
        "  euclidean trial 3: violations [] -> ['area-bound']",
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_trial_records_match_the_golden_files(seed):
    golden = json.loads(path_for(seed).read_text())
    head = golden["head"]
    assert head["fields"] == list(FIELDS)
    got = trial_records(seed, head["trials"])
    want = golden["records"]
    assert [row[:2] for row in got] == [row[:2] for row in want]
    report = moves(want, got)
    if report:
        written = f"Python {head['python']}, numpy {head['numpy']}"
        now = f"Python {versions()['python']}, numpy {versions()['numpy']}"
        pytest.fail(f"seed {seed}: trial records moved (written with {written}, run with {now}):\n"
                    + "\n".join(report), pytrace=False)
