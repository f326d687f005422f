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
    # pytest's warning filters do not reach a subprocess, so -W makes a numpy overflow or
    # invalid value, a deprecation or a future change fail the demo, as in CI's console-script step
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    warnings = ["-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning", "-W", "error::FutureWarning"]
    result = subprocess.run([sys.executable, *warnings, str(demo)], capture_output=True,
                            text=True, timeout=300, env=env, cwd=ROOT)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
