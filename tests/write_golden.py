"""Golden trial records: write the deterministic fields of run_trial to
tests/golden/, which tests/test_golden.py compares bit for bit.

Per seed in SEEDS, one file holds, for TRIALS trials in each plane, the
trial's width, inradius, area, both bounds and margins, cap status, cap
area margin and violations, floats as repr (the shortest text that parses
back to the same double), with the Python and numpy versions that wrote
them.  A change that moves a recorded float rewrites the files and quotes
the test's printout of what moved.  pytest does not collect this file (its
name does not start with test_).  From the repository root:

    python tests/write_golden.py
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SEEDS = (0, 1)
TRIALS = 200
FIELDS = ("width", "inradius", "inradius_bound", "margin_inradius", "area", "area_bound",
          "margin_area", "cap_status", "cap_area_margin", "violations")


def _text(value):
    return repr(value) if isinstance(value, float) else value


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def trial_records(seed: int, trials: int = TRIALS) -> list[list]:
    """[geometry, trial, *FIELDS] per trial, planes in GEOMETRIES order."""
    from spindle.geometry import GEOMETRIES
    from spindle.harness import VerifyConfig, run_trial

    config = VerifyConfig(trials=trials, seed=seed)
    rows = []
    for g in GEOMETRIES.values():
        for t in range(trials):
            rec = run_trial(g, t, config)
            rec["inradius"] = rec["incircle"].radius
            rows.append([g.name, t] + [_text(rec[f]) for f in FIELDS])
    return rows


def path_for(seed: int) -> Path:
    return GOLDEN / f"trials_seed{seed}.json"


def write(seed: int) -> None:
    # one record per line, so a diff shows the trials that moved
    head = json.dumps({**versions(), "seed": seed, "trials": TRIALS, "fields": list(FIELDS)})
    rows = ",\n".join(json.dumps(row) for row in trial_records(seed))
    path_for(seed).write_text(f'{{"head": {head},\n"records": [\n{rows}\n]}}\n')


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    GOLDEN.mkdir(exist_ok=True)
    for seed in SEEDS:
        write(seed)
        print(path_for(seed).relative_to(ROOT))
