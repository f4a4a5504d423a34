"""Smoke test: the narrative demos run to completion.

Each demo runs in a fresh interpreter from a temporary working directory (the
plots, when matplotlib is installed, land there).  ``demo_nmse_sweeps.py``
is left out: it runs multi-point Monte Carlo sweeps.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("demo_preamble_correlation.py", "demo_wide_beam.py",
         "demo_noiseless_pipeline.py", "demo_wrap_compensation.py",
         "demo_delay_doppler_baseline.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
