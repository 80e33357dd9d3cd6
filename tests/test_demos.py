"""Every narrative script in ``demos/`` runs to completion, and the
README's library example prints what its comments say.

Each demo is copied into a temporary directory first, so the CSV files the
demos write next to themselves land there and not in the source tree.  The
package is imported from this checkout's ``src``.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr


def test_readme_library_block_prints_its_comments(capsys):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    ns: dict = {}
    exec(compile(block, "README.md", "exec"), ns)
    printed = [float(x) for x in re.findall(
        r"-?\d+\.\d*(?:e[-+]?\d+)?", capsys.readouterr().out)]
    assert len(printed) == 11
    assert printed[0] == pytest.approx(943.418, abs=1e-3)
    assert printed[1:3] == pytest.approx([-0.4989, -0.1987], abs=1e-4)
    assert printed[3:] == pytest.approx(
        [-3285.3190216300372, -2139.51175832164, 943.4183078198482,
         6019.147632189064, 13140.76796919261, 22358.586359945155,
         33719.924791776495, 47268.91995926818], rel=1e-9)
    # an array d with a scalar T: each point is its scalar call, bit for bit
    m, vs, T, D = ns["m"], ns["p"].vs, ns["T"], ns["D"]
    grid = ns["pdb_boundary_exact"](m, vs, D * T, T)
    assert grid.tolist() == [ns["pdb_boundary_exact"](m, vs, float(d), T)
                             for d in D * T]
