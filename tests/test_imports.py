import os
import subprocess
import sys
from pathlib import Path

import pytest

import legpade.scattering as scattering
from legpade.errors import QuadratureConvergenceError
from legpade.scattering import PotentialSpec, born_phase_shift

# tests/test_scattering.py imports scipy into this process, so the import
# checks run in a fresh interpreter.
_SCIPY_MODULES = """
import sys
{body}
print(",".join(sorted(name for name in sys.modules if name.startswith("scipy"))))
"""


def _scipy_modules_loaded(body):
    src = str(Path(scattering.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", _SCIPY_MODULES.format(body=body)],
        capture_output=True, text=True, check=True, timeout=120, env=env,
    )
    return [name for name in result.stdout.strip().split(",") if name]


@pytest.mark.parametrize("module", ["legpade", "legpade.cli"])
def test_import_leaves_scipy_integrate_out(module):
    assert _scipy_modules_loaded(f"import {module}") == []


@pytest.mark.parametrize("demo", ["unit", "coulomb", "invr2", "rn"])
def test_compare_leaves_scipy_out(tmp_path, demo):
    out = tmp_path / f"{demo}.csv"
    body = ("import legpade.cli\n"
            f"assert legpade.cli.main(['compare', '--demo', {demo!r}, '-o', {str(out)!r}]) == 0")
    assert _scipy_modules_loaded(body) == []


def test_born_quadrature_leaves_scipy_out():
    body = ("from legpade.scattering import PotentialSpec, born_series\n"
            "born_series(PotentialSpec('inverse_r2', 1.0), 4, 1.0, method='quadrature')")
    assert _scipy_modules_loaded(body) == []


def test_quadrature_goes_through_module_quad(monkeypatch):
    calls = []
    original = scattering.quad

    def counting_quad(f, a, b, **kwargs):
        calls.append((a, b))
        return original(f, a, b, **kwargs)

    monkeypatch.setattr(scattering, "quad", counting_quad)
    pot = PotentialSpec("inverse_r2", 1.0)
    value = born_phase_shift(pot, 2, 1.0, method="quadrature")
    assert calls
    assert abs(value - born_phase_shift(pot, 2, 1.0)) < 1e-8


def test_quad_failure_raises_convergence_error(monkeypatch):
    def failing_quad(f, a, b, **kwargs):
        raise QuadratureConvergenceError("subdivision limit of 600 intervals reached")

    monkeypatch.setattr(scattering, "quad", failing_quad)
    with pytest.raises(QuadratureConvergenceError,
                       match=r"quadrature on \[0, 100\] did not converge: subdivision limit"):
        born_phase_shift(PotentialSpec("inverse_r2", 1.0), 2, 1.0, method="quadrature")
