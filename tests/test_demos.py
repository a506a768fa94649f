"""The quick demos run to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", [
    "01_autodiff_and_gradient_checking.py",
    "02_gru_and_attention.py",
    "03_crawl_a_fixture_wiki.py",
    "04_train_and_evaluate_classifiers.py",
    "05_robustness_under_drift.py",
    "06_human_agreement.py",
])
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
