"""The scripts under `scripts/` run against the current package.

Each script is loaded from its file, as `test_bench_contract.py` loads the
benchmark's `layers.py`, and its entry points are called in this process.
"""

import dataclasses
import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from wgmixed import convergence
from wgmixed.convergence import StudyConfig
from wgmixed.mesh import _disk_layers, mesh_to_text

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mesh_gallery_writes_and_validates_every_sample(tmp_path, capsys):
    gallery = load_script("mesh_gallery")
    assert gallery.main(["--outdir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == len(gallery.SAMPLES)
    for (name, make), line in zip(gallery.SAMPLES, lines):
        assert line.startswith(name) and "passed=True" in line, line
        text = (tmp_path / f"{name}.json").read_text(encoding="utf-8")
        assert len(json.loads(text)["cells"]) == make().n_cells
        assert text == mesh_to_text(make())


def test_bench_case_record_compares_with_itself(tmp_path, capsys):
    bench = load_script("bench")
    record = bench.run_case("disk-original-j2-n64-split")
    assert record["case"] == "disk-original-j2-n64-split"
    assert record["split"] > 1 and record["residual"] <= 1e-9
    assert {"solve", "norms"} <= set(record["stages"])
    path = tmp_path / "BENCH_case.json"
    path.write_text(json.dumps({"cases": [record]}), encoding="utf-8")
    bench.compare(path, path)
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    ratios = [line.split()[-1] for line in rows if line.split()[1] in record["stages"]]
    assert len(ratios) == len(record["stages"])
    assert all(r in ("1.000", "inf") for r in ratios), ratios
    # the peak memory at the end of each stage, never falling, the level's peak last
    peaks = [record["stage_rss_mb"][stage] for stage in record["stages"]]
    assert peaks == sorted(peaks) and peaks[-1] <= record["peak_rss_mb"]
    rss = [line.split()[2:] for line in rows if line.split()[1].startswith("rss@")]
    assert rss == [[f"{m:.1f}"] * 2 for m in peaks]


def test_bench_case_records_each_stage_traced_peak(monkeypatch, tmp_path, capsys):
    # the traced peak is the stage's own: a stage that allocates a known array
    # reads at least its size, whatever the stages before it held
    bench = load_script("bench")
    monkeypatch.setitem(bench.CASES, "tiny", ("disk", "original", 1, 16, "none"))
    solve, size_mb = convergence.solve_saddle, 16

    def solve_with_array(*args, **kwargs):
        block = np.ones(size_mb * 2**20 // 8)
        del block
        return solve(*args, **kwargs)

    monkeypatch.setattr(convergence, "solve_saddle", solve_with_array)
    record = bench.run_case("tiny")
    traced = record["stage_traced_mb"]
    assert list(traced) == list(record["stages"])
    assert all(peak > 0 for peak in traced.values()), traced
    assert traced["solve"] >= size_mb and traced["norms"] < size_mb
    path = tmp_path / "BENCH_tiny.json"
    path.write_text(json.dumps({"cases": [record]}), encoding="utf-8")
    bench.compare(path, path)
    rows = [line.split() for line in capsys.readouterr().out.strip().splitlines()[1:]]
    assert [row[1:] for row in rows if row[1].startswith("traced_mb@")] == [
        [f"traced_mb@{stage}", f"{peak:.1f}", f"{peak:.1f}", "1.000"]
        for stage, peak in traced.items()]


def test_bench_record_holds_medians_and_quartiles_of_its_runs(tmp_path, capsys):
    bench = load_script("bench")
    runs = [{"case": "c", "stages": {"mesh": t, "solve": 2 * t}, "level_s": 3 * t,
             "peak_rss_mb": 100.0 + t, "stage_rss_mb": {"mesh": 50.0 + t, "solve": 90.0 + t},
             "stage_traced_mb": {"mesh": 10 * t, "solve": 5 * t},
             "dofs": 7} for t in (5.0, 1.0, 4.0, 2.0, 3.0)]
    record = bench.summarize(runs)
    assert record["runs"] == 5 and record["dofs"] == 7
    assert record["stages"] == {"mesh": 3.0, "solve": 6.0} and record["level_s"] == 9.0
    assert record["quartiles"] == {"mesh": [2.0, 4.0], "solve": [4.0, 8.0], "level": [6.0, 12.0],
                                   "traced_mb@mesh": [20.0, 40.0], "traced_mb@solve": [10.0, 20.0]}
    assert record["peak_rss_mb"] == 103.0 and record["stage_rss_mb"] == {"mesh": 53.0, "solve": 93.0}
    assert record["stage_traced_mb"] == {"mesh": 30.0, "solve": 15.0}
    # a record against itself: every ratio 1, every quartile range overlapping
    path = tmp_path / "BENCH_runs.json"
    path.write_text(json.dumps({"cases": [record]}), encoding="utf-8")
    bench.compare(path, path)
    rows = [line.split() for line in capsys.readouterr().out.strip().splitlines()[1:]]
    assert [row[1:] for row in rows if row[1] in ("mesh", "solve", "level")] == [
        ["mesh", "3.0000", "3.0000", "1.000", "~"], ["solve", "6.0000", "6.0000", "1.000", "~"],
        ["level", "9.0000", "9.0000", "1.000", "~"]]
    assert [row[1:] for row in rows if row[1].startswith("traced_mb@")] == [
        ["traced_mb@mesh", "30.0", "30.0", "1.000", "~"],
        ["traced_mb@solve", "15.0", "15.0", "1.000", "~"]]
    assert not bench.overlap([1.0, 2.0], [2.5, 3.0]) and not bench.overlap(None, [1.0, 2.0])


def test_bench_against_a_parent_alternates_the_sides_by_round(tmp_path, monkeypatch, capsys):
    bench = load_script("bench")
    calls = []

    def fake_run(argv, env=None, **kwargs):
        name = argv[argv.index("--case") + 1]
        calls.append((env["PYTHONPATH"], name))
        t = float(len(calls))
        record = {"case": name, "dofs": 1, "level_s": t, "stages": {"solve": t},
                  "peak_rss_mb": t, "stage_rss_mb": {"solve": t}, "stage_traced_mb": {"solve": t}}
        return SimpleNamespace(stdout=json.dumps(record) + "\n")

    (tmp_path / "child").mkdir()
    monkeypatch.setattr(bench, "ROOT", tmp_path / "child")
    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    assert bench.main(["--label", "L", "--parent", str(tmp_path / "parent")]) == 0
    parent, child = str(tmp_path / "parent" / "src"), str(tmp_path / "child" / "src")
    cases = list(bench.CASES)
    assert len(calls) == 2 * bench.RUNS * len(cases)
    for k in range(bench.RUNS):
        first, second = (parent, child) if k % 2 == 0 else (child, parent)
        block = calls[2 * k * len(cases):2 * (k + 1) * len(cases)]
        assert block == [(side, name) for name in cases for side in (first, second)]
    for label, src in (("parent-L", parent), ("L", child)):
        record = json.loads((tmp_path / "child" / "bench" / f"BENCH_{label}.json").read_text())
        assert record["label"] == label and [r["case"] for r in record["cases"]] == cases
        for r in record["cases"]:
            seconds = [i + 1.0 for i, call in enumerate(calls) if call == (src, r["case"])]
            assert r["runs"] == bench.RUNS and r["level_s"] == sorted(seconds)[bench.RUNS // 2]


def test_quick_studies_are_the_full_ones_without_their_finest_level():
    studies = load_script("run_all_studies")
    assert [claim.name for claim in studies.QUICK] == [claim.name for claim in studies.CLAIMS]
    for quick, full in zip(studies.QUICK, studies.CLAIMS):
        levels = full.config.levels[:-1]
        assert quick == full._replace(config=dataclasses.replace(full.config, levels=levels))
    # one row per study, named by its CSV stem (studybench/README.md cites three)
    names = [claim.name for claim in studies.CLAIMS]
    assert len(set(names)) == len(names)
    assert {"square_original_j1", "square_original_j2", "disk_original_j1",
            "disk_original_j2", "disk_modified_j1", "disk_modified_j2",
            "disk_original_j2_split", "disk_modified_j2_split", "ring_original_j1",
            "ring_original_j2", "ring_modified_j1"} <= set(names)
    # only the degree-1 disk claim goes without a band (the two-term law checks it)
    assert [c.name for c in studies.CLAIMS if c.band is None] == ["disk_original_j1"]
    for claim in studies.CLAIMS:
        if isinstance(claim.splits, tuple):
            assert len(claim.splits) == len(claim.config.levels), claim.name


def test_disk_studies_stay_in_one_ring_family():
    # q = n // layers is 8 at every power of two but 6 at n = 48, 72 and 96;
    # a study that crosses the two families distorts its pairwise slopes
    studies = load_script("run_all_studies")
    for claim in studies.CLAIMS:
        if claim.config.domain == "disk":
            assert {n // _disk_layers(n) for n in claim.config.levels} == {8}, claim.name


@pytest.mark.parametrize("slope, splits, pins, band, expect", [
    (2.1, [3, 7], (3, 7, 17, 46), 0.25, "PASS"),   # fewer levels: a prefix of the pins
    (2.1, [3, 8], (3, 7, 17, 46), 0.25, "FAIL"),
    (2.3, [3, 7], (3, 7, 17, 46), 0.25, "FAIL"),
    (1.9, [2, 2], 2, 0.25, "PASS"),
    (1.9, [2, 1], 2, 0.25, "FAIL"),
    (0.8, [1, 1], None, None, "-"),
])
def test_verdict_reads_the_band_and_the_split_pins(slope, splits, pins, band, expect):
    studies = load_script("run_all_studies")
    claim = studies.Claim("c", StudyConfig("disk", "original", 2, (16, 32)), 2.0, band, pins)
    table = SimpleNamespace(slope_u=slope, rows=[SimpleNamespace(split=s) for s in splits])
    assert studies.verdict(claim, table) == expect


def test_run_all_studies_writes_one_csv_per_study(tmp_path, monkeypatch, capsys):
    studies = load_script("run_all_studies")
    small = (studies.Claim("square_original_j1",
                           StudyConfig("square", "original", 1, (4, 8)), 1.0, 0.2),)
    monkeypatch.setattr(studies, "CLAIMS", small)
    monkeypatch.setattr(studies, "QUICK", small)
    for argv in ([], ["--quick"]):
        outdir = tmp_path / ("quick" if argv else "full")
        assert studies.main(["--outdir", str(outdir), *argv]) == 0
        lines = (outdir / "square_original_j1.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "n,h,s,dofs,err_u_Vh,err_u_Vh1,err_p_L2,seconds"
        assert [line.split(",")[0] for line in lines[1:3]] == ["4", "8"]
        assert lines[3].startswith("# slope_u=")
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 and all(line.startswith("square_original_j1") for line in printed)


def test_run_all_studies_writes_the_claims_lines_it_prints(tmp_path, monkeypatch, capsys):
    studies = load_script("run_all_studies")
    claim = studies.Claim("square_original_j1",
                          StudyConfig("square", "original", 1, (4, 8)), 1.0, 0.2)
    monkeypatch.setattr(studies, "CLAIMS", (claim,))
    assert studies.main(["--outdir", str(tmp_path)]) == 0
    lines = (tmp_path / "claims.txt").read_text(encoding="utf-8").splitlines()
    assert lines == capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("square_original_j1 ")
    assert " levels=4,8 slope_u=" in lines[0], lines[0]
    assert " rate=1 band=0.2 pairwise=0.926 splits=1,1 -> PASS" in lines[0], lines[0]
