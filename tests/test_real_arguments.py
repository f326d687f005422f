"""Every public function that takes a real argument (an angle, a wavenumber, a coupling, an
``RNParams`` field, an RN cutoff, a Legendre or Bessel argument) checks it through the one
range guard of ``legpade.special``: text or a complex value (``1+0j`` too, and a complex
array) is a DomainError naming the value, as is infinity. Unchecked, numpy cuts a numpy
complex to its real part with only a ComplexWarning, and a Python complex fails in
``float()`` with a TypeError."""

import math
import re

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
    rn_phase_shift,
    rn_series,
)
from legpade.series import eval_partial_sum
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
    # order 1: order 0 is a closed form that reads neither cutoff
    "rn_phase_shift r_max": lambda x: rn_phase_shift(2, RN, 1, r_max=x),
    "rn_phase_shift horizon_epsilon": lambda x: rn_phase_shift(2, RN, 1, horizon_epsilon=x),
    "legendre_eval_all x": lambda x: legendre_eval_all(3, x),
    "spherical_bessel_j x": lambda x: spherical_bessel_j(2, x),
    "spherical_bessel_y x": lambda x: spherical_bessel_y(2, x),
}

NOT_REAL = {
    "complex": 1 + 1j,
    "complex-real": 1 + 0j,
    "numpy-complex": np.complex128(0.5),
    "complex-array": np.array([0.5 + 1j]),
    "text": "0.5",
}


@pytest.mark.parametrize("kind", sorted(NOT_REAL))
@pytest.mark.parametrize("name", sorted(REAL_CALLS))
def test_value_that_is_not_real_is_domain_error(name, kind):
    value = NOT_REAL[kind]
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
