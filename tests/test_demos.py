"""The first two demos run as scripts.

They call the tensor engine and the alignment losses directly, so an operator
or loss they use that goes away fails here rather than for a reader.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", ["01_autodiff_basics.py", "02_alignment_losses.py"])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    res = subprocess.run([sys.executable, str(DEMOS / script)], capture_output=True, text=True,
                         env=env, cwd=tmp_path, timeout=120)
    assert res.returncode == 0, res.stderr
