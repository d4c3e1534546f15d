"""Smoke test: every demo script runs to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import genlabel

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS  # an empty glob would parametrize no test at all


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    src = Path(genlabel.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
