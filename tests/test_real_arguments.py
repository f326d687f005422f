"""Every public function that takes a real argument (an angle, a wavenumber, a coupling, an
``RNParams`` field, an RN cutoff, a Legendre or Bessel argument) checks it through the one
range guard of ``legpade.special``: text or a complex value (``1+0j`` too, and a complex
array), None, a dict, a Fraction or any object array is a DomainError naming the value, as
is infinity. Unchecked, numpy cuts a numpy complex to its real part with only a
ComplexWarning, reads None as NaN and converts an object array entry by entry, and a Python
complex fails in ``float()`` with a TypeError. A numpy float32 or a 0-d array computes as the Python float the
guard returns: unconverted, float32 arithmetic moves the result and a 0-d array field breaks
``hash``."""

import math
import re
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from legpade.errors import DomainError
from legpade.pade import construct, evaluate
from legpade.scattering import (
    PotentialSpec,
    RNParams,
    born_exact_invr2,
    born_phase_shift,
    born_series,
    coulomb_exact,
    coulomb_series,
    exact_half_csc,
    rn_series,
)
from legpade.series import ComplexSeries, eval_partial_sum
from legpade.special import legendre_eval_all, spherical_bessel_j, spherical_bessel_y

pytestmark = pytest.mark.filterwarnings("error")

INVR2 = PotentialSpec("inverse_r2", 1.0)
# a horizon at r_+ = 2e-3, so that r_max = 0.5 and 1 lie beyond it
RN = RNParams(mass=1e-3, charge=0.0, eta=1.0)
APPROX, _ = construct(coulomb_series(8, 1.0), 3, 3)

# one real argument each, the others fixed so that every call succeeds at 0.5 and 1, the real
# parts of the values below
REAL_CALLS = {
    "eval_partial_sum theta": lambda x: eval_partial_sum(coulomb_series(6, 1.0), x),
    "evaluate theta": lambda x: evaluate(APPROX, x),
    "exact_half_csc theta": exact_half_csc,
    "coulomb_exact theta": lambda x: coulomb_exact(x, 1.0),
    "coulomb_exact k": lambda x: coulomb_exact(1.0, x),
    "coulomb_series k": lambda x: coulomb_series(4, x),
    "born_exact_invr2 theta": lambda x: born_exact_invr2(x, 1.0, 1.0),
    "born_exact_invr2 alpha": lambda x: born_exact_invr2(1.0, x, 1.0),
    "born_exact_invr2 k": lambda x: born_exact_invr2(1.0, 1.0, x),
    "born_series k": lambda x: born_series(INVR2, 4, x),
    "born_phase_shift k": lambda x: born_phase_shift(INVR2, 2, x),
    "PotentialSpec alpha": lambda x: PotentialSpec("inverse_r2", x),
    "RNParams mass": lambda x: RNParams(mass=x, charge=0.0, eta=1e-4),
    "RNParams charge": lambda x: RNParams(mass=10.0, charge=x, eta=1e-4),
    "RNParams eta": lambda x: RNParams(mass=10.0, charge=5.0, eta=x),
    "RNParams mu": lambda x: RNParams(mass=10.0, charge=5.0, eta=1e-4, mu=x),
    "rn_series r_max": lambda x: rn_series(3, RN, r_max=x),
    "rn_series horizon_epsilon": lambda x: rn_series(3, RN, horizon_epsilon=x),
    "legendre_eval_all x": lambda x: legendre_eval_all(3, x),
    "spherical_bessel_j x": lambda x: spherical_bessel_j(2, x),
    "spherical_bessel_y x": lambda x: spherical_bessel_y(2, x),
}

NOT_REAL = {
    "complex": 1 + 1j,
    "complex-real": 1 + 0j,
    "numpy-complex": np.complex128(0.5),
    "complex-array": np.array([0.5 + 1j]),
    "complex-object-array": np.array([0.5 + 1j], dtype=object),
    "text": "0.5",
    "text-object-array": np.array(["0.5"], dtype=object),
    "none": None,
    "dict": {"a": 1},
    "object": object(),
    "float-object-array": np.array([0.5], dtype=object),
    "fraction": Fraction(1, 2),
    "ragged-object-array": np.array([[0.1, 0.2], [0.3]], dtype=object),
}


@pytest.mark.parametrize("kind", sorted(NOT_REAL))
@pytest.mark.parametrize("name", sorted(REAL_CALLS))
def test_value_that_is_not_real_is_domain_error(name, kind):
    value = NOT_REAL[kind]
    if value is None and name == "rn_series r_max":
        pytest.skip("r_max=None asks for the default cutoff 50/eta")
    with pytest.raises(DomainError, match=re.escape(repr(value))):
        REAL_CALLS[name](value)


@pytest.mark.parametrize("name", sorted(REAL_CALLS))
def test_infinity_is_domain_error(name):
    with pytest.raises(DomainError):
        REAL_CALLS[name](math.inf)


@pytest.mark.parametrize("value", [0.5, 1.0])
@pytest.mark.parametrize("name", sorted(REAL_CALLS))
def test_real_part_is_accepted(name, value):
    # the control of the table above: there only the type or the infinity fails
    REAL_CALLS[name](value)


def _same_result(got, want) -> bool:
    """Equal hashes and float fields for a parameter record, equal bytes and types otherwise."""
    if isinstance(want, (PotentialSpec, RNParams)):
        values = [getattr(got, f.name) for f in fields(got) if f.name != "kind"]
        return got == want and hash(got) == hash(want) and all(type(v) is float for v in values)
    if isinstance(want, ComplexSeries):
        got, want = got.coefficients, want.coefficients
    return type(got) is type(want) and np.asarray(got).dtype == np.asarray(want).dtype \
        and np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("make", [np.float32, np.array], ids=["float32", "0-d array"])
@pytest.mark.parametrize("name", sorted(REAL_CALLS))
def test_numpy_scalar_gives_the_float_result(name, make):
    # 0.7 is inexact in float32, so float32 arithmetic would show in the last bits
    value = make(0.7)
    assert _same_result(REAL_CALLS[name](value), REAL_CALLS[name](float(value)))


def test_float32_mass_keeps_the_default_horizon_cutoff():
    # r_+ in float32 absorbs the cutoff r_+(1 + 1e-8), which was rejected as not beyond r_+
    params = RNParams(mass=np.float32(10.0), charge=5.0, eta=1e-4)
    want = rn_series(8, RNParams(mass=10.0, charge=5.0, eta=1e-4)).coefficients
    assert rn_series(8, params).coefficients.tobytes() == want.tobytes()
