"""A test-side oracle for choosing the split by numerical rank over complete rows.

The rule (Gonnet, Guettel & Trefethen, "Robust Pade approximation via SVD", SIAM Rev. 55
(2013)) spends a budget of N + 1 coefficients on an [L/M] with L + 2M = N, so that every
enforced row of G sums coefficients the series has. Starting at M = N // 3, each round
sets M to the numerical rank of the M x (M + 1) block of enforced rows, until it stops
falling; the denominator is the block's last right singular vector. The ceilings below
come from one measurement on the grid given here (the figures in the comments).
"""

import math

import numpy as np
import pytest

from legpade import pade
from legpade.pade import PadeApproximant, construct, default_split, evaluate
from legpade.scattering import coulomb_exact, coulomb_series, exact_half_csc, unit_series

TOL = 1e-14
THETAS = np.linspace(0.3, math.pi, 600)


def rank_rule(series, n):
    """The [L/M] with L + 2M = n whose M is the rank of its enforced rows at TOL * sigma_max."""
    m0 = n // 3
    G, _, _ = pade._product_matrix(series, n - m0, m0)  # rows 0..n, columns 0..m0, built once
    M = m0
    while True:
        L = n - 2 * M
        # rows L+1..L+M of G over 2n+1, as in the library's denominator system
        rows = G[L + 1:L + M + 1, :M + 1] / (2 * np.arange(L + 1, L + M + 1) + 1)[:, None]
        _, sigma, vh = np.linalg.svd(rows)
        rank = int(np.sum(sigma > TOL * sigma[0]))
        if rank == M:
            break
        M = rank
    b = vh[-1].conj() / vh[-1, 0].conj()
    b[0] = 1.0
    return PadeApproximant(G[:L + 1, :M + 1] @ b, b)


FAMILIES = {
    "unit": (unit_series, exact_half_csc),
    "coulomb k=1": (lambda n: coulomb_series(n, 1.0), lambda theta: coulomb_exact(theta, 1.0)),
    "coulomb k=0.5": (lambda n: coulomb_series(n, 0.5), lambda theta: coulomb_exact(theta, 0.5)),
}

# max relative error on THETAS, measured: the default [n/n] at N -> the rule (its pick)
#   unit:          N = 22 2.39e-3 -> 1.24e-5 [8/7],  42 1.07e-2 -> 3.81e-8 [34/4],  82 1.97e-6 -> 6.08e-10 [76/3]
#   coulomb k=1:   N = 22 4.83e-2 -> 5.60e-4 [8/7],  42 3.10e-3 -> 8.39e-7 [34/4],  82 9.37e-5 -> 2.39e-8 [76/3]
#   coulomb k=0.5: N = 22 3.77e-1 -> 2.03e-2 [8/7],  42 1.75e-2 -> 5.48e-6 [32/5],  82 7.35e-4 -> 6.76e-8 [74/4]
# The picks are not asserted: some rounds sit within ~10% of TOL (unit N = 82 keeps
# sigma/sigma_max = 1.07e-14 in its third round, coulomb k=1 N = 42 drops 9.36e-15 in its
# second). The ceilings are twice the measured rule errors.
CEILING = {
    ("unit", 22): 2.5e-5, ("unit", 42): 8e-8, ("unit", 82): 1.2e-9,
    ("coulomb k=1", 22): 1.1e-3, ("coulomb k=1", 42): 1.7e-6, ("coulomb k=1", 82): 4.8e-8,
    ("coulomb k=0.5", 22): 4e-2, ("coulomb k=0.5", 42): 1.1e-5, ("coulomb k=0.5", 82): 1.4e-7,
}


@pytest.mark.parametrize("family, n", sorted(CEILING))
def test_rank_rule_beats_the_default_split(family, n):
    generate, oracle = FAMILIES[family]
    series, exact = generate(n), oracle(THETAS)

    def error(approx):
        return np.max(np.abs(evaluate(approx, THETAS) - exact) / np.abs(exact))

    default, _ = construct(series, *default_split(n - 2))
    rule = error(rank_rule(series, n))
    assert rule <= error(default)
    assert rule < CEILING[family, n]
