"""A test-side oracle for the diagonal-neighbour truncation estimate of an oracle-free error estimate.

The estimate for [n/n] is max|[n/n] - [n-1/n-1]|, the truth max|[n/n] - exact|, both relative
to the exact amplitude on THETAS. With both approximants built from the same N = 2n + 2
coefficients the estimate tracks the truth within 0.71-1.23x for 6 <= n <= 25; at n = 4 it
under-estimates 2.2-3.4x. With the default path's own neighbour, [n-1/n-1] on N = 2n, it does
not: unit at n = 22 reads 67x, since [21/21] on N = 44 errs by 7.3e-2 against 1.1e-3 for [22/22].
"""

import math

import numpy as np
import pytest

from legpade.pade import construct, evaluate
from legpade.scattering import coulomb_exact, coulomb_series, exact_half_csc, unit_series

THETAS = np.linspace(0.3, math.pi, 600)

FAMILIES = {
    "unit": (unit_series, exact_half_csc),
    **{f"coulomb k={k}": (lambda n, k=k: coulomb_series(n, k), lambda theta, k=k: coulomb_exact(theta, k))
       for k in (0.5, 1.0, 2.0)},
}


def estimate_over_truth(family, n, neighbour_order):
    """max|[n/n] - [n-1/n-1]| / max|[n/n] - exact|, [n/n] on N = 2n + 2 and its neighbour on
    N = neighbour_order."""
    make, exact = FAMILIES[family]
    f = exact(THETAS)
    diagonal = evaluate(construct(make(2 * n + 2), n, n)[0], THETAS)
    neighbour = evaluate(construct(make(neighbour_order), n - 1, n - 1)[0], THETAS)
    return np.max(np.abs(diagonal - neighbour) / np.abs(f)) / np.max(np.abs(diagonal - f) / np.abs(f))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_same_budget_neighbour_tracks_the_error(family):
    ratios = [estimate_over_truth(family, n, 2 * n + 2) for n in range(6, 26)]
    assert 0.5 <= min(ratios) and max(ratios) <= 2.0


def test_default_path_neighbour_overestimates_unit_at_22():
    assert estimate_over_truth("unit", 22, 44) > 10.0
