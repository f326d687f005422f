import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import legpade.scattering as scattering
from legpade.errors import QuadratureConvergenceError
from legpade.scattering import PotentialSpec, born_phase_shift

# tests/test_scattering.py imports scipy into this process, so the import
# checks run in a fresh interpreter.
_LOADS_INTEGRATE = """
import sys
{body}
print("scipy.integrate" in sys.modules)
"""


def _loads_scipy_integrate(body):
    src = str(Path(scattering.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", _LOADS_INTEGRATE.format(body=body)],
        capture_output=True, text=True, check=True, timeout=120, env=env,
    )
    return result.stdout.strip() == "True"


@pytest.mark.parametrize("module", ["legpade", "legpade.cli"])
def test_import_leaves_scipy_integrate_out(module):
    assert not _loads_scipy_integrate(f"import {module}")


@pytest.mark.parametrize("demo,loads", [("unit", False), ("coulomb", False),
                                        ("invr2", False), ("rn", True)])
def test_compare_imports_scipy_integrate_only_for_rn(tmp_path, demo, loads):
    out = tmp_path / f"{demo}.csv"
    body = ("import legpade.cli\n"
            f"assert legpade.cli.main(['compare', '--demo', {demo!r}, '-o', {str(out)!r}]) == 0")
    assert _loads_scipy_integrate(body) is loads


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


def test_integration_warning_raises_convergence_error(monkeypatch):
    from scipy.integrate import IntegrationWarning

    def warning_quad(f, a, b, **kwargs):
        warnings.warn("roundoff error is detected", IntegrationWarning)
        return 0.0, 1.0

    monkeypatch.setattr(scattering, "quad", warning_quad)
    with pytest.raises(QuadratureConvergenceError, match="did not converge"):
        born_phase_shift(PotentialSpec("inverse_r2", 1.0), 2, 1.0, method="quadrature")
