"""The demo scripts run end to end against the current library API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["01_build_fock_basis.py",
                                    "02_assemble_and_verify_identity.py",
                                    "03_counterterm_divergence.py",
                                    "04_convergence_study.py",
                                    "05_regularity_dichotomy.py",
                                    "06_bounds_and_exponents.py"])
def test_demo_exits_zero(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
