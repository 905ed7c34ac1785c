"""The demo scripts and the README quick start run end to end against
the current library API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_exits_zero(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("script", ["01_build_fock_basis.py",
                                    "02_assemble_and_verify_identity.py",
                                    "03_counterterm_divergence.py",
                                    "04_convergence_study.py",
                                    "05_regularity_dichotomy.py",
                                    "06_bounds_and_exponents.py"])
def test_demo_exits_zero(script, tmp_path):
    _run_exits_zero([str(ROOT / "demos" / script)], tmp_path)


def test_readme_quick_start_runs(tmp_path):
    # the README's python block, so an API change cannot break it unseen
    text = (ROOT / "README.md").read_text()
    code = text.split("```python\n", 1)[1].split("```", 1)[0]
    _run_exits_zero(["-c", code], tmp_path)
