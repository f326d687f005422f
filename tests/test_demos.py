import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    # an empty glob would leave test_demo_runs with no cases
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    # a fresh interpreter with the source tree first on the path, as the README runs them;
    # pytest's RuntimeWarning filter does not reach a subprocess, so -W makes a numpy
    # overflow or invalid value fail the demo
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)], capture_output=True,
                            text=True, timeout=300, env=env, cwd=ROOT)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
