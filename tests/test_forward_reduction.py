"""A test-side oracle for reducing the forward singularity before resumming.

Multiplying the series by (1 - x)^m (Yennie, Ravenhall & Wilson, Phys. Rev. 95, 500
(1954)) is, in the Legendre basis, a three-term recurrence that costs the top order per
application; the approximant of the reduced series is then divided by (1 - cos theta)^m.
The bands below come from one measurement on the grid given here (the figures in the
comments).
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from exact import triple_product_integral

from legpade.pade import construct, default_split, evaluate
from legpade.scattering import coulomb_exact, coulomb_series, exact_half_csc, unit_series
from legpade.series import ComplexSeries

N = 42
THETAS = np.linspace(0.3, math.pi, 600)


def reduced(c):
    """The coefficients 0..n-1 of (1 - x) sum_l c_l P_l, n = len(c) - 1:
    c'_l = c_l - l/(2l-1) c_(l-1) - (l+1)/(2l+3) c_(l+1)."""
    return [c[l] - (Fraction(l, 2 * l - 1) * c[l - 1] if l else 0) - Fraction(l + 1, 2 * l + 3) * c[l + 1]
            for l in range(len(c) - 1)]


@pytest.mark.parametrize("l", range(8))
def test_recurrence_is_the_exact_product(l):
    # the order-j coefficient of (1 - x) P_l is (2j+1)/2 times the integral of (1 - x) P_l P_j
    unit = [Fraction(int(i == l)) for i in range(l + 3)]
    expected = [Fraction(2 * j + 1, 2) * (triple_product_integral(0, l, j) - triple_product_integral(1, l, j))
                for j in range(l + 2)]
    assert reduced(unit) == expected


FAMILIES = {
    "unit": (unit_series, exact_half_csc),
    "coulomb k=1": (lambda n: coulomb_series(n, 1.0), lambda theta: coulomb_exact(theta, 1.0)),
    "coulomb k=0.5": (lambda n: coulomb_series(n, 0.5), lambda theta: coulomb_exact(theta, 0.5)),
}

# max relative error on THETAS at N = 42 for m = 0, 1, 2, 3 reductions, each approximant
# from default_split(N - m - 2), measured; the band is a factor of two either way
MEASURED = {
    "unit": [1.07e-2, 1.32e-5, 1.54e-5, 1.78e-7],
    "coulomb k=1": [3.10e-3, 5.03e-4, 1.28e-5, 6.52e-6],
    "coulomb k=0.5": [1.75e-2, 3.27e-3, 1.01e-3, 3.60e-4],
}


@pytest.mark.parametrize("family", sorted(MEASURED))
def test_reduced_series_error(family):
    generate, oracle = FAMILIES[family]
    c, exact = list(generate(N).coefficients), oracle(THETAS)
    for m, measured in enumerate(MEASURED[family]):
        approx, _ = construct(ComplexSeries(np.array(c)), *default_split(N - m - 2))
        value = evaluate(approx, THETAS) / (1.0 - np.cos(THETAS)) ** m
        error = np.max(np.abs(value - exact) / np.abs(exact))
        assert measured / 2 < error < 2 * measured, m
        c = reduced(c)
