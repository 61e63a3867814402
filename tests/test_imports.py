"""Neither importing wgmixed nor running a study loads scipy.special, and a
study's first level starts with the sparse solver already loaded.

The check runs in a fresh interpreter with `PYTHONPATH=src`, because this
test process loads scipy.special itself (`test_quadrature.py` compares
against it).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

GUARD = """
import json, sys
import wgmixed
import wgmixed.cli
from wgmixed import convergence
assert wgmixed.cli.run_cli(["--domain", "square", "--levels", "0,4"]) == 2
after_cli = "scipy.special" in sys.modules

first_level = []
run_level = convergence.run_level
def spy(config, n, coarser_h=None):
    first_level.append("scipy.sparse.linalg" in sys.modules)
    return run_level(config, n, coarser_h)
convergence.run_level = spy
convergence.run_convergence_study(convergence.StudyConfig("square", "original", 1, (2, 4)))
print(json.dumps({"after_cli": after_cli, "after_study": "scipy.special" in sys.modules,
                  "first_level": first_level}))
"""


def test_import_cli_and_study_never_load_scipy_special():
    proc = subprocess.run([sys.executable, "-c", GUARD], cwd=ROOT, check=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen == {"after_cli": False, "after_study": False, "first_level": [True, True]}
    assert "0,4" in proc.stderr
