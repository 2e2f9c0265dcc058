"""Every demo script runs to completion at a small replicate count."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

ARGS = {
    "01_design_and_sample_size.py": [],
    "02_single_trial_walkthrough.py": [],
    "03_power_loss_from_stratification.py": ["--replicates", "20"],
    "04_bias_under_misspecification.py": ["--replicates", "20"],
    "05_full_study_reproduction.py": ["table1_scenario1", "--replicates", "20"],
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(ARGS)


@pytest.mark.parametrize("demo", sorted(ARGS))
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(DEMOS / demo), *ARGS[demo]],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
