"""Every public function that takes a Legendre degree or a partial-wave order checks it
through the one guard of ``legpade.special``: a non-negative integral value (an int, a
numpy integer or an integral float) is taken as its int, anything else is a DomainError."""

import math
import pickle
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from legpade.errors import DomainError
from legpade.pade import construct, default_split, solve_denominator
from legpade.scattering import (
    PotentialSpec,
    RNParams,
    born_phase_shift,
    born_series,
    coulomb_series,
    rn_phase_shift,
    rn_series,
    unit_series,
)
from legpade.series import project_legendre_coefficient
from legpade.special import (
    legendre_eval_all,
    spherical_bessel_j,
    spherical_bessel_jy_all,
    spherical_bessel_y,
)

RN = RNParams(mass=10.0, charge=5.0, eta=1e-4, mu=1e-6)
INVR2 = PotentialSpec("inverse_r2", 1.0)
SERIES = unit_series(20)
MAX_ORDER = 8

# one order argument each, the others fixed
ORDER_CALLS = {
    "unit_series": unit_series,
    "coulomb_series": lambda n: coulomb_series(n, 1.0),
    "born_series": lambda n: born_series(INVR2, n, 1.0),
    "born_phase_shift": lambda n: born_phase_shift(INVR2, n, 1.0),
    "rn_series": lambda n: rn_series(n, RN),
    "rn_phase_shift_0": lambda n: rn_phase_shift(n, RN),
    "default_split": default_split,
    "construct_L": lambda n: construct(SERIES, n, 3),
    "construct_M": lambda n: construct(SERIES, 3, n),
    "solve_denominator_M": lambda n: solve_denominator(SERIES, 4, n),
    "legendre_eval_all": lambda n: legendre_eval_all(n, np.linspace(-1.0, 1.0, 7)),
    "project_legendre_coefficient": lambda n: project_legendre_coefficient(np.cos, n),
    "spherical_bessel_j": lambda n: spherical_bessel_j(n, 1.5),
    "spherical_bessel_y": lambda n: spherical_bessel_y(n, 1.5),
    "spherical_bessel_jy_all": lambda n: spherical_bessel_jy_all(n, np.array([0.0, 0.5, 30.0])),
}


class _IntConvertible(np.ndarray):
    """An array whose int() takes its one entry, as numpy before 2.4 does for any array."""

    def __int__(self):
        return int(self.item())


bad_orders = st.one_of(
    st.integers(max_value=-1),
    st.integers(-2**62, -1).map(np.int64),
    st.floats(max_value=0.0, exclude_max=True, allow_infinity=False),
    st.floats(0.0, 1e6).filter(lambda x: x % 1 != 0),
    st.floats(0.0, 1e6).filter(lambda x: x % 1 != 0).map(np.float64),
    st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan), np.float64(math.inf)]),
    st.sampled_from(["3", None, 3 + 0j, np.array([3]), np.array([1, 2])]),
)


@pytest.mark.parametrize("name", sorted(ORDER_CALLS))
@settings(max_examples=25, deadline=None)
@given(order=bad_orders)
# silent before the guard: a 5-term series or value, or (3.0, 2.0) from default_split(5.5)
@example(order=3.5)
@example(order=2.5)
@example(order=5.5)
# not numbers, rejected by type before a comparison or int() could raise TypeError or ValueError;
# int() of an array with one entry succeeds on numpy before 2.4
@example(order="3")
@example(order=None)
@example(order=3 + 0j)
@example(order=np.array([3]))
@example(order=np.array([3]).view(_IntConvertible))
@example(order=np.array([1, 2]))
# not of a number's type, though each holds 3: the guard asks the type before the value
@example(order=Fraction(3))
@example(order=Decimal(3))
@example(order=np.array(3, dtype=object))
def test_bad_order_is_domain_error(name, order):
    with pytest.raises(DomainError, match=re.escape(f"must be a non-negative integer, got {order}")):
        ORDER_CALLS[name](order)


@pytest.mark.parametrize("name", sorted(ORDER_CALLS))
@settings(max_examples=2 * (MAX_ORDER + 1), deadline=None)
@given(order=st.integers(0, MAX_ORDER))
def test_integral_order_types_agree(name, order):
    # the same value and type, bit for bit, whatever integral type carries the order
    expected = pickle.dumps(ORDER_CALLS[name](order))
    for same in (float(order), np.float64(order), np.int64(order), np.array(order)):
        assert pickle.dumps(ORDER_CALLS[name](same)) == expected
