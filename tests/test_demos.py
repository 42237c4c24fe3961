"""Every narrative demo runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import subprocess_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    res = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                         env=subprocess_env())
    assert res.returncode == 0, res.stderr
