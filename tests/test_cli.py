"""Command-line interface: flags, exit codes, CSV output, mesh export."""

import json

import pytest

from wgmixed import convergence, solver
from wgmixed.cli import run_cli
from wgmixed.convergence import CSV_HEADER
from wgmixed.mesh import generate_disk_mesh, mesh_to_text


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    out = capsys.readouterr().out
    assert "--domain" in out
    assert "--split-rule" in out


def test_unknown_flag_exits_two(capsys):
    assert run_cli(["--domain", "square", "--frobnicate"]) == 2


def test_bad_domain_exits_two(capsys):
    assert run_cli(["--domain", "hexagon"]) == 2


def test_bad_levels_exit_two(capsys):
    assert run_cli(["--domain", "square", "--levels", "4,banana"]) == 2
    assert run_cli(["--domain", "disk", "--split-rule", "fixed:zero"]) == 2
    assert run_cli(["--domain", "disk", "--split-rule", "quartic"]) == 2


def test_square_study_to_stdout(capsys):
    code = run_cli(["--domain", "square", "--scheme", "original", "--degree", "1",
                    "--levels", "2,4,8"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    slope = float(lines[-1].split("slope_u=")[1].split()[0])
    assert 0.7 <= slope <= 1.3


def test_csv_deterministic_modulo_seconds(tmp_path):
    args = ["--domain", "disk", "--scheme", "modified", "--degree", "1",
            "--levels", "8,16"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(p1)]) == 0
    assert run_cli(args + ["--out", str(p2)]) == 0

    def strip_seconds(text):
        lines = text.strip().splitlines()
        body = [",".join(l.split(",")[:-1]) for l in lines[1:-1]]
        return [lines[0]] + body + [lines[-1]]

    assert strip_seconds(p1.read_text()) == strip_seconds(p2.read_text())


def test_mesh_out_written(tmp_path):
    base = tmp_path / "disk"
    code = run_cli(["--domain", "disk", "--degree", "1", "--levels", "8",
                    "--out", str(tmp_path / "out.csv"), "--mesh-out", str(base)])
    assert code == 0
    text = (tmp_path / "disk.n8.json").read_text(encoding="utf-8")
    doc = json.loads(text)
    assert doc["domain"] == "disk"
    assert len(doc["cells"]) == 8
    assert text == mesh_to_text(generate_disk_mesh(8))


def test_rho_and_quadrature_flags(tmp_path):
    out = tmp_path / "r.csv"
    code = run_cli(["--domain", "square", "--degree", "1", "--levels", "2,4",
                    "--rho", "2.0", "--quadrature-order", "6", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith(CSV_HEADER)


def test_ring_runs_through_same_pipeline(tmp_path):
    out = tmp_path / "ring.csv"
    code = run_cli(["--domain", "ring", "--scheme", "modified", "--degree", "1",
                    "--levels", "8,16", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4


@pytest.mark.parametrize("args, named", [
    (["--domain", "square", "--levels", "4,4"], "4,4"),
    (["--domain", "square", "--levels", "8,4"], "8,4"),
    (["--domain", "square", "--levels", "0,4"], "0,4"),
    (["--domain", "square", "--rho", "nan"], "nan"),
    (["--domain", "square", "--rho", "inf"], "inf"),
    (["--domain", "square", "--rho", "-1"], "-1"),
    (["--domain", "square", "--quadrature-order", "0"], "0"),
    (["--domain", "square", "--degree", "2", "--quadrature-order", "3"], "3"),
    (["--domain", "disk", "--split-rule", "fixed:0"], "fixed:0"),
    (["--domain", "disk", "--split-rule", "fixed:"], "fixed:"),
    (["--domain", "disk", "--levels", ""], "--levels is empty"),
    (["--domain", "square", "--split-rule", "fixed:3", "--levels", "2,4"], "split_rule"),
])
def test_bad_study_rejected_before_any_level(args, named, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(convergence, "run_level", lambda config, n: ran.append(n))
    assert run_cli(args) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and named in err[0], err
    assert ran == []


def test_levels_that_do_not_refine_stop_the_study(monkeypatch, capsys):
    # disk n=17 is prime: one ring, h = 1.0 against 0.571 at n=16
    ran, level = [], convergence.run_level

    def recorded(config, n, coarser_h=None):
        ran.append(n)
        return level(config, n, coarser_h)

    monkeypatch.setattr(convergence, "run_level", recorded)
    assert run_cli(["--domain", "disk", "--levels", "16,17,32"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "n=17" in err[0], err
    assert ran == [16, 17]


def test_square_single_level_with_no_discrete_source_solves(capsys):
    # one cell pair whose source moments cancel: the right-hand side is zero
    assert run_cli(["--domain", "square", "--levels", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == CSV_HEADER and lines[1].startswith("1,")


def test_quadrature_order_2j_accepted(tmp_path):
    out = tmp_path / "q.csv"
    assert run_cli(["--domain", "square", "--degree", "2", "--levels", "2,4",
                    "--quadrature-order", "4", "--out", str(out)]) == 0


@pytest.mark.parametrize("flag, target, named", [
    ("--out", "missing/x.csv", "missing"),
    ("--mesh-out", "missing/m", "missing"),
    ("--out", ".", "is a directory"),
])
def test_unwritable_output_rejected_before_any_level(flag, target, named, tmp_path,
                                                     monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(convergence, "run_level", lambda config, n: ran.append(n))
    args = ["--domain", "square", "--levels", "2,4", flag, str(tmp_path / target)]
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and flag in err[0] and named in err[0], err
    assert captured.out == ""
    assert ran == []


def test_out_of_memory_exits_one(monkeypatch, capsys):
    def malloc_fails(matrix, **kwargs):
        raise RuntimeError("SUPERLU_MALLOC fails for buf in intMalloc()")

    monkeypatch.setattr(solver, "splu", malloc_fails)
    assert run_cli(["--domain", "square", "--levels", "2,4"]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and "out of memory" in err[0] and "MALLOC" in err[0], err
    assert captured.out == ""
