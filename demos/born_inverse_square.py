#!/usr/bin/env python3
"""First-order scattering on V = alpha/r^2.

The Born phase shifts have the closed form -pi*alpha/(2(2l+1)), checked
here against direct quadrature of the defining integral. The resulting
partial-wave series has constant coefficients, so its partial sums
oscillate like the unit-series example; the closed-form amplitude
-pi*alpha/(4k sin(theta/2)) is the oracle the resummation must match.
"""

import numpy as np

from legpade import (
    PotentialSpec,
    born_exact_invr2,
    born_phase_shift,
    born_series,
    construct,
    eval_partial_sum,
    evaluate,
)

ALPHA, K = 1.0, 1.0
pot = PotentialSpec("inverse_r2", ALPHA)

print("Born phase shifts: closed form vs quadrature of -k int j_l^2 V r^2 dr")
# born_series integrates every order in the same two quadratures; c_l = (2l+1) delta_l / k
by_quadrature = born_series(pot, 4, K, method="quadrature").coefficients.real
for l, c in enumerate(by_quadrature):
    closed = born_phase_shift(pot, l, K)
    quadrature = c * K / (2 * l + 1)
    print(f"  l = {l}: {closed:+.12f}  vs  {quadrature:+.12f}   (dev {abs(closed - quadrature):.1e})")

series = born_series(pot, 8, K)
print(f"\nseries coefficients are constant: c_l = {series.coefficients[0].real:.6f}")

approx, _ = construct(series, 3, 3)
print("\n       theta   partial(N=6)        [3/3]        exact")
partial6 = born_series(pot, 6, K)
table = np.linspace(np.pi / 2, np.pi, 8)
columns = (eval_partial_sum(partial6, table).real, evaluate(approx, table).real,
           born_exact_invr2(table, ALPHA, K))
for theta, p, q, e in zip(table, *columns):
    print(f"  {theta:10.6f}  {p:12.6f}  {q:12.6f}  {e:12.6f}")

thetas = np.linspace(np.pi / 2, np.pi, 300)
exact = born_exact_invr2(thetas, ALPHA, K)
worst = np.max(np.abs(evaluate(approx, thetas) - exact) / np.abs(exact))
print(f"\nworst [3/3] relative deviation on [pi/2, pi]: {worst:.2e}")
print("\nCSV with the full sweep: legpade compare --demo invr2 --N 6 -o born.csv")
