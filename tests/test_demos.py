"""The demos use only the public API; each must run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [e for e in [os.environ.get("PYTHONPATH")] if e]))
    out = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
