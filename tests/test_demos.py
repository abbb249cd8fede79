"""The fast demos run to completion against the library as it stands."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# 03_streaming_training trains for minutes, so it is left out
@pytest.mark.parametrize("name", ["01_howling_loop.py", "02_kalman_suppression.py"])
def test_demo_exits_zero(tmp_path, name):
    # run a copy, so the demo writes its artifacts under tmp_path
    script = tmp_path / name
    shutil.copy(ROOT / "demos" / name, script)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
