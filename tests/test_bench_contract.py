"""The names the study benchmark traces still exist in the program.

`studybench/layers.py` wraps a fixed list of wgmixed functions (`TRACED`) and
reads a few attributes of their results.  It imports only the standard
library, so it is loaded here from its file without the benchmark runner.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from wgmixed.assembly import assemble_system
from wgmixed.convergence import StudyConfig, run_convergence_study
from wgmixed.mesh import boundary_split_count, generate_disk_mesh

LAYERS_PATH = Path(__file__).resolve().parents[1] / "studybench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("studybench_layers", LAYERS_PATH)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


LAYERS = load_layers()


@pytest.mark.parametrize("module, attr", sorted(LAYERS.TRACED),
                         ids=[f"{m}.{a}" for m, a in sorted(LAYERS.TRACED)])
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"wgmixed.{module}"), attr))


def test_traced_study_counts_and_uninstalls():
    # the benchmark runs its studies with threads=1, traced and untraced
    tracer = LAYERS.Tracer()
    patched = LAYERS.install(tracer)
    try:
        table = run_convergence_study(
            StudyConfig("disk", "modified", 2, (8,), split_rule="original", threads=1))
    finally:
        LAYERS.uninstall(patched)
    assert len(table.rows) == 1
    assert tracer.calls["convergence.level"] == 1
    # two flux norms, the interior L2 norm and the pressure norm
    assert tracer.calls["convergence.error_norms"] == 4
    for name in ("mesh.generate", "quadrature.polygon_rule", "basis.cell_basis",
                 "basis.project_cell", "assembly.system", "solver.factor"):
        assert tracer.calls[name] >= 1, name
    assert tracer.counts["cells"] > 0 and tracer.counts["lu_fill"] > 0
    for mod, attr, orig in patched:
        assert getattr(mod, attr) is orig
    # the nnz counter reads the system's global matrices: the same level, untraced
    mesh = generate_disk_mesh(8, lambda h: boundary_split_count(h, 2, "original"))
    system = assemble_system(mesh, (2, 2, 1), scheme="modified")
    assert tracer.counts["matrix_nnz"] == (system.A.nnz + system.B.nnz
                                           + system.pressure_rows.nnz)
