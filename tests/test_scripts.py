"""The scripts under `scripts/` run against the current package.

Each script is loaded from its file, as `test_bench_contract.py` loads the
benchmark's `layers.py`, and its entry points are called in this process.
"""

import dataclasses
import importlib.util
import json
from pathlib import Path

from wgmixed.convergence import StudyConfig
from wgmixed.mesh import read_mesh

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
        assert read_mesh(tmp_path / f"{name}.json").n_cells == make().n_cells


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


def test_quick_studies_are_the_full_ones_without_their_finest_level():
    studies = load_script("run_all_studies")
    assert [name for name, _ in studies.QUICK] == [name for name, _ in studies.FULL]
    for (_, quick), (_, full) in zip(studies.QUICK, studies.FULL):
        assert quick == dataclasses.replace(full, levels=full.levels[:-1])


def test_run_all_studies_writes_one_csv_per_study(tmp_path, monkeypatch, capsys):
    studies = load_script("run_all_studies")
    small = [("square_original_j1", StudyConfig("square", "original", 1, (4, 8)))]
    monkeypatch.setattr(studies, "FULL", small)
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
