"""Each correctness check of the study benchmark accepts a table that has the
method's properties and rejects one that breaks a single property.

    PYTHONPATH=src python -m pytest studybench
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from checks import WORKLOADS, check_table, mesh_unknowns, split_law  # noqa: E402
from wgmixed.assembly import DofLayout  # noqa: E402
from wgmixed.convergence import ConvergenceTable, StudyConfig, StudyRow, fit_rate  # noqa: E402
from wgmixed.mesh import MeshQualityReport, generate_disk_mesh  # noqa: E402

# flux-norm error laws with the rate each workload must show
LAWS = {
    "disk-j1-original": lambda h: h + np.sqrt(h),
    "disk-j2-split": lambda h: h ** 2,
    "disk-j2-modified-split": lambda h: h ** 2,
}


def passing_report():
    return MeshQualityReport(0.2, 0.5, 2.0, 1.0, 0.1, 0.1, 0.1,
                             checks={"A1_star_shaped": True}, violations=[])


def good_table(name):
    """A table with every property the workload checks, and its unknown counts."""
    wl = WORKLOADS[name]
    rows, dofs = [], []
    for k, n in enumerate(wl.levels):
        h = 0.6 / 2 ** k
        split = 1 if wl.split_rule == "none" else split_law(h, wl.degree, wl.split_rule)
        err = float(LAWS[name](h))
        rows.append(StudyRow(n=n, split=split, h=h, s=h, dofs=1000 * 4 ** k,
                             err_u_vh=err, err_u_vh1=err, err_p=err, seconds=0.1,
                             residual=1e-13, err_u_l2=err))
        dofs.append(1000 * 4 ** k)
    config = StudyConfig("disk", wl.scheme, wl.degree, wl.levels, split_rule=wl.split_rule)
    table = ConvergenceTable(config=config, rows=rows, slope_u=0.0, slope_u1=0.0,
                             slope_p=0.0, pairwise_u=(), quality=[passing_report()] * len(rows))
    return wl, with_rows(table, rows), dofs


def with_rows(table, rows):
    """The table with these rows and the flux-norm rates the study derives from them."""
    pairwise = tuple(np.log(a.err_u_vh / b.err_u_vh) / np.log(a.h / b.h)
                     for a, b in zip(rows, rows[1:]))
    return dataclasses.replace(table, rows=rows, pairwise_u=pairwise,
                               slope_u=fit_rate([(r.h, r.err_u_vh) for r in rows]))


def with_row(table, i, **changes):
    rows = list(table.rows)
    rows[i] = dataclasses.replace(rows[i], **changes)
    return with_rows(table, rows)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_good_table_passes(name):
    wl, table, dofs = good_table(name)
    assert check_table(wl, table, dofs) == []


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_rejects_residual_above_tolerance(name):
    wl, table, dofs = good_table(name)
    failures = check_table(wl, with_row(table, 1, residual=2e-9), dofs)
    assert any("residual" in f for f in failures)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_rejects_unknown_count_off_by_one(name):
    wl, table, dofs = good_table(name)
    last = len(table.rows) - 1
    failures = check_table(wl, with_row(table, last, dofs=dofs[last] + 1), dofs)
    assert any("unknowns" in f for f in failures)


@pytest.mark.parametrize("name", ["disk-j2-split", "disk-j2-modified-split"])
def test_rejects_wrong_split_count(name):
    wl, table, dofs = good_table(name)
    right = table.rows[0].split
    failures = check_table(wl, with_row(table, 0, split=right + 1), dofs)
    assert any("split" in f for f in failures)


def test_rejects_split_on_unsplit_workload():
    wl, table, dofs = good_table("disk-j1-original")
    failures = check_table(wl, with_row(table, 0, split=2), dofs)
    assert any("split" in f for f in failures)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_rejects_inflated_finest_error(name):
    # a finest-level error 1.6x too large moves the finest pairwise slope by
    # log(1.6)/log(2) = 0.68 and a three-level fitted slope by half that, 0.34
    wl, table, dofs = good_table(name)
    last = len(table.rows) - 1
    bad = with_row(table, last, err_u_vh=1.6 * table.rows[last].err_u_vh)
    failures = check_table(wl, bad, dofs)
    assert failures and all("n=" not in f for f in failures)


def test_rejects_falling_slopes_that_do_not_fall():
    # criterion 2 also needs strictly falling pairwise slopes: a pure h^(1/2) law has none
    wl, table, dofs = good_table("disk-j1-original")
    rows = [dataclasses.replace(r, err_u_vh=float(np.sqrt(r.h))) for r in table.rows]
    failures = check_table(wl, with_rows(table, rows), dofs)
    assert any("strictly fall" in f for f in failures)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_rejects_failed_mesh_validation_and_bad_errors(name):
    wl, table, dofs = good_table(name)
    bad_rep = dataclasses.replace(passing_report(), checks={"A1_star_shaped": False},
                                  violations=["A1: cell 3 is not star-shaped"])
    quality = list(table.quality)
    quality[0] = bad_rep
    assert any("validate_mesh" in f
               for f in check_table(wl, dataclasses.replace(table, quality=quality), dofs))
    failures = check_table(wl, with_row(table, 0, err_p=float("nan")), dofs)
    assert any("finite and positive" in f for f in failures)
    failures = check_table(wl, with_row(table, 0, err_u_l2=0.0), dofs)
    assert any("finite and positive" in f for f in failures)


@pytest.mark.parametrize("n, split, degree", [(8, 1, 1), (16, 3, 2), (16, 2, 2), (18, 1, 4), (12, 5, 2)])
def test_derived_unknowns_match_the_program_layout(n, split, degree):
    mesh = generate_disk_mesh(n, split)
    assert mesh_unknowns(mesh, degree) == DofLayout(mesh, degree, degree, degree - 1).n_dofs


def test_split_laws_at_degree_two():
    hs = (0.5711, 0.3022, 0.1551)
    assert [split_law(h, 2, "original") for h in hs] == [3, 7, 17]
    assert [split_law(h, 2, "modified") for h in hs] == [2, 2, 2]
    assert split_law(1.0, 2, "original") == 1
