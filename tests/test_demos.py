"""Smoke test: each demo script runs to completion against the package in src/."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if demo.name == "05_lowerbound_curve.py":
        # the lowerbound command's CSV: 6 alphas of 200 x 64 grid points and one summary row
        lines = (tmp_path / "lowerbound_curve.csv").read_text().splitlines()
        assert lines[0] == "alpha,z,x,k_star,value"
        assert len(lines) == 1 + 6 * (200 * 64 + 1)
