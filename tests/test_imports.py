import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import legpade.scattering as scattering
from legpade.errors import QuadratureConvergenceError
from legpade.quadrature import quad
from legpade.scattering import PotentialSpec, born_phase_shift

# tests/test_scattering.py imports scipy into this process, so the import
# checks run in a fresh interpreter.
_MODULES_LOADED = """
import sys
{body}
print(",".join(sorted(name for name in sys.modules if name.startswith({prefixes!r}))))
"""


def _modules_loaded(body, prefixes):
    src = str(Path(scattering.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", _MODULES_LOADED.format(body=body, prefixes=prefixes)],
        capture_output=True, text=True, check=True, timeout=120, env=env,
    )
    return [name for name in result.stdout.strip().split(",") if name]


def _scipy_modules_loaded(body):
    return _modules_loaded(body, ("scipy",))


def _compare_body(demo, out):
    return ("import legpade.cli\n"
            f"assert legpade.cli.main(['compare', '--demo', {demo!r}, '-o', {str(out)!r}]) == 0")


@pytest.mark.parametrize("module", ["legpade", "legpade.cli"])
def test_import_leaves_scipy_integrate_out(module):
    assert _scipy_modules_loaded(f"import {module}") == []


@pytest.mark.parametrize("demo", ["unit", "coulomb", "invr2", "rn"])
def test_compare_leaves_scipy_out(tmp_path, demo):
    assert _scipy_modules_loaded(_compare_body(demo, tmp_path / f"{demo}.csv")) == []


def test_start_up_leaves_fractions_and_polynomial_out(tmp_path):
    # only the exact 3j oracle needs fractions; nothing in legpade needs numpy.polynomial;
    # only a quadrature logs, so quad imports logging when it is called
    body = _compare_body("unit", tmp_path / "unit.csv")
    assert _modules_loaded(body, ("fractions", "numpy.polynomial", "logging")) == []


def test_projection_leaves_polynomial_out():
    body = ("import numpy as np\n"
            "from legpade.series import project_legendre_coefficient\n"
            "project_legendre_coefficient(lambda t: 1.0 / (2.0 * np.sin(0.5 * t)), 3)")
    assert _modules_loaded(body, ("numpy.polynomial",)) == []


MODULES = ("errors", "special", "series", "pade", "scattering")
# the package's public names when its __init__ still listed them itself; each must stay
EARLIER_API = {
    "errors": "LegpadeError DomainError PoleError InsufficientCoefficientsError SingularSystemError "
              "ResidualTooLargeError QuadratureConvergenceError",
    "special": "legendre_eval_all threej_zero_sq triple_product_integral log_gamma_complex "
               "spherical_bessel_j",
    "series": "ComplexSeries eval_partial_sum project_legendre_coefficient",
    "pade": "PadeApproximant ConstructionReport build_denominator_system solve_denominator compute_numerator "
            "construct evaluate default_split",
    "scattering": "PotentialSpec RNParams unit_series exact_half_csc coulomb_series coulomb_exact born_phase_shift "
                  "born_series born_exact_invr2 rn_phase_shift rn_series "
                  "cross_section",
}


def test_package_api_is_the_modules_api():
    import legpade

    modules = {name: importlib.import_module(f"legpade.{name}") for name in MODULES}
    expected = ["__version__", *(name for module in modules.values() for name in module.__all__)]
    assert legpade.__all__ == expected and len(set(expected)) == len(expected)
    namespace = {}
    exec("from legpade import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(expected)
    earlier = [(module, name) for module, names in EARLIER_API.items() for name in names.split()]
    assert len(earlier) == 35
    assert [(module, name) for module, name in earlier
            if getattr(legpade, name) is not getattr(modules[module], name)] == []


def test_tracer_bindings_exist():
    # perfbench/tracer.py rebinds these names; one missing would break a traced run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [(module, attr) for module, attr, _, _ in tracer.BINDINGS
               if not hasattr(importlib.import_module(module), attr)]
    assert tracer.BINDINGS and missing == []


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
    assert len(calls) == 2
    assert abs(value - born_phase_shift(pot, 2, 1.0)) < 1e-8


def test_quad_failure_raises_convergence_error(monkeypatch):
    # the real quad, held to one interval, cannot integrate the Born body on [0, 100]
    def one_interval_quad(f, a, b, **kwargs):
        return quad(f, a, b, **{**kwargs, "limit": 1})

    monkeypatch.setattr(scattering, "quad", one_interval_quad)
    with pytest.raises(QuadratureConvergenceError,
                       match=r"quadrature on \[0, 100\] did not converge: subdivision limit"):
        born_phase_shift(PotentialSpec("inverse_r2", 1.0), 2, 1.0, method="quadrature")
