"""An independent resummation per angle: Wynn's epsilon algorithm on the partial sums.

The epsilon table of S_0 .. S_N (Shanks, J. Math. Phys. 34, 1 (1955); Wynn, Math. Tables
Aids Comput. 10, 91 (1956)) shares nothing with the Pade construction but the partial
sums, so its agreement with the closed forms and with the Pade approximant is evidence
that no other oracle supplies. The bounds below come from one measurement on the grids
given here (the figures in the comments).
"""

import numpy as np
import pytest

from legpade.pade import construct, evaluate
from legpade.scattering import RNParams, coulomb_exact, coulomb_series, exact_half_csc, rn_series, unit_series
from legpade.special import legendre_eval_all


def wynn_epsilon(S):
    """The last entry of the highest even column of the epsilon table of the rows S[0..N],
    for every column of S at once.

    eps_(k+1)^(n) = eps_(k-1)^(n+1) + 1 / (eps_k^(n+1) - eps_k^(n)), eps_(-1) = 0, eps_0 = S.
    A zero difference (a column that has settled) makes the next entry infinite, and an
    infinite difference makes the entry beyond it its neighbour eps_(k-1)^(n+1).
    """
    prev, cur = np.zeros((S.shape[0] + 1,) + S.shape[1:], dtype=complex), S
    best = S[-1]
    for k in range(1, S.shape[0]):
        with np.errstate(invalid="ignore"):  # inf - inf where two infinite entries meet
            d = cur[1:] - cur[:-1]
        inv = np.zeros_like(d)
        live = np.isfinite(d) & (d != 0)
        inv[live] = 1.0 / d[live]
        inv[d == 0] = np.inf
        prev, cur = cur, prev[1:-1] + inv
        if k % 2 == 0:
            best = cur[-1]
    return best


def partial_sums(c, theta):
    """S_0 .. S_N of the coefficients c_0 .. c_N at each angle, shape (N+1, angles)."""
    return np.cumsum(c[:, None] * legendre_eval_all(c.size - 1, np.cos(theta)), axis=0)


@pytest.mark.parametrize("n", [4, 5, 8, 14])
def test_exact_on_a_sum_of_geometric_sequences(n):
    # S_m = A + 2 q1^m + (1+i) q2^m: Shanks' e_2 is A, reached at the fourth column;
    # measured 3.3e-16 - 1.1e-14 relative
    m = np.arange(n + 1)[:, None]
    q1, q2 = np.array([0.5, 0.3 + 0.4j, -0.7, 0.9j]), np.array([0.25, -0.5j, 0.2, 0.6])
    limit = np.array([3.0, 1.0 - 2.0j, 0.5, -2.0])
    S = limit + 2.0 * q1**m + (1.0 + 1.0j) * q2**m
    assert np.max(np.abs(wynn_epsilon(S) - limit) / np.abs(limit)) < 5e-14


def test_zero_difference_in_the_table():
    # constant partial sums: every first-column difference is zero, and the table keeps the value
    S = np.full((9, 3), 2.0 - 1.0j)
    assert np.array_equal(wynn_epsilon(S), S[-1])


@pytest.mark.parametrize("series, exact", [
    (unit_series(42), exact_half_csc),
    (coulomb_series(42, 1.0), lambda theta: coulomb_exact(theta, 1.0)),
], ids=["unit", "coulomb"])
def test_matches_the_closed_forms_away_from_the_forward_cone(series, exact):
    # 600 angles on [1.5, pi] at N = 42; measured max / median relative error:
    # unit 2.3e-11 / 4.2e-16, Coulomb k = 1 7.2e-12 / 2.9e-15 (the max at isolated angles
    # where the table nearly breaks down)
    theta = np.linspace(1.5, np.pi, 600)
    target = exact(theta)
    error = np.abs(wynn_epsilon(partial_sums(series.coefficients, theta)) - target) / np.abs(target)
    assert error.max() < 1e-10
    assert np.median(error) < 1e-14


@pytest.mark.parametrize("q_over_m", [1e-4, 0.5, 0.99])
def test_agrees_with_the_default_rn_approximant(q_over_m):
    # what `compare --demo rn --N 162` builds: [81/81] on the series to order 164, against
    # epsilon on S_0 .. S_162, 600 angles on [0.3, pi]; measured max / median relative
    # difference 1.3e-8 - 3.3e-8 / 1.9e-13 - 2.3e-13
    p = RNParams(mass=10.0, charge=q_over_m * 10.0, eta=1e-4, mu=1e-6)
    full = rn_series(164, p)
    approximant, _ = construct(full, 81, 81)
    theta = np.linspace(0.3, np.pi, 600)
    pade = evaluate(approximant, theta)
    epsilon = wynn_epsilon(partial_sums(full.coefficients[:163], theta))
    difference = np.abs(epsilon - pade) / np.abs(pade)
    assert difference.max() < 1e-7
    assert np.median(difference) < 1e-12
