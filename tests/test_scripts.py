"""Smoke tests for the experiment scripts: each runs to completion in a
fresh interpreter, so a change to the library API they call cannot break
them silently."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("class_counting_survey.py", ["--max-degree", "1"]),
    ("galois_transport_demo.py", ["--max-degree", "1"]),
    ("torus_lattice_scan.py", []),
])
def test_script_runs(script, args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
