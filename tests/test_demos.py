"""Smoke test: the narrative demos run against the current public API.

Each demo runs as a subprocess on a copy in ``tmp_path``, so files a demo
writes next to itself (02 writes ``output/``) stay out of the checkout.
Demo 04 is left out: it takes longer than the other four together, and
acceptance criterion 9 already runs its flowlab and guidance path through
``synthvid demo``.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


@pytest.mark.parametrize("name", [
    "01_scene_sampling.py",
    "02_camera_and_rendering.py",
    "03_captions_and_mixing.py",
    "05_fidelity_metrics.py",
])
def test_demo_runs(name, tmp_path):
    script = tmp_path / name
    shutil.copy(DEMOS / name, script)
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    result = subprocess.run([sys.executable, "-B", str(script)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
