"""Golden outputs: short-level studies must reproduce the committed table.

`tests/golden/studies.json` holds one record per study level (n, split, h, s,
dofs and the four error norms, floats written with repr).  A refactor that
leaves the method unchanged must reproduce it: the integers, h and s exactly,
the errors to max(1e-10 |v|, 1e-13).  The relative part covers rounding of
the global solve (about 1e-14 absolute on the superconvergent pressure
errors); the floor covers errors near that rounding level.

Regenerate only when the method itself changes, with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from wgmixed.convergence import StudyConfig, run_convergence_study

GOLDEN = Path(__file__).resolve().parent / "golden" / "studies.json"

STUDIES = {
    "square-original-j1": dict(domain="square", scheme="original", degree=1, levels=(4, 8, 16)),
    "square-original-j2": dict(domain="square", scheme="original", degree=2, levels=(4, 8, 16)),
    "disk-original-j1": dict(domain="disk", scheme="original", degree=1, levels=(8, 16, 32)),
    "disk-modified-j1": dict(domain="disk", scheme="modified", degree=1, levels=(8, 16, 32)),
    "disk-original-j2-split": dict(domain="disk", scheme="original", degree=2,
                                   levels=(16, 32), split_rule="original"),
    "disk-modified-j2-split": dict(domain="disk", scheme="modified", degree=2,
                                   levels=(16, 32), split_rule="modified"),
    "ring-original-j1": dict(domain="ring", scheme="original", degree=1, levels=(16, 32)),
    "ring-modified-j1": dict(domain="ring", scheme="modified", degree=1, levels=(16, 32)),
    "disk-modified-j1-options": dict(domain="disk", scheme="modified", degree=1, levels=(8, 16),
                                     split_rule="fixed:3", rho=2.5, quadrature_order=8),
}

EXACT = ("n", "split", "h", "s", "dofs")
ERRORS = ("err_u_vh", "err_u_vh1", "err_p", "err_u_l2")


def study_rows(name: str) -> list:
    table = run_convergence_study(StudyConfig(**STUDIES[name]))
    return [{key: getattr(row, key) for key in EXACT + ERRORS} for row in table.rows]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_study_matches_golden(golden, name):
    expect = golden[name]
    got = study_rows(name)
    assert len(got) == len(expect)
    for row, ref in zip(got, expect):
        for key in EXACT:
            assert row[key] == ref[key], (name, row["n"], key)
        for key in ERRORS:
            tol = max(1e-10 * abs(ref[key]), 1e-13)
            assert abs(row[key] - ref[key]) <= tol, (name, row["n"], key, row[key], ref[key])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    data = {name: study_rows(name) for name in sorted(STUDIES)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
