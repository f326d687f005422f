#!/usr/bin/env python3
"""Endpoint oscillation of a truncated Legendre series, and its removal.

The function 1/(2 sin(theta/2)) has the Legendre expansion with every
coefficient equal to one. Its partial sums oscillate near theta = pi no
matter how many terms are kept; the [3/3] rational resummation built from
the same coefficients does not.
"""

import numpy as np

from legpade import construct, eval_partial_sum, evaluate, exact_half_csc, unit_series

# partial sums of increasing length: the endpoint error does not improve
print("partial-sum error at theta = pi (exact value 0.5):")
for n in (6, 12, 24, 48):
    value = eval_partial_sum(unit_series(n), np.pi).real
    print(f"  N = {n:2d}: partial sum = {value:.6f}, error = {abs(value - 0.5):.3f}")

# the [3/3] approximant built from the series through order 8
approx, report = construct(unit_series(8), 3, 3)
print(f"\n[3/3] denominator: {np.round(approx.denominator.real, 6)}")
print(f"construction condition estimate {report.condition_estimate:.1f}, "
      f"residual {report.residual:.1e}")

print("\n        theta     partial(N=6)        [3/3]        exact")
table = np.linspace(np.pi / 3, np.pi, 9)
columns = (eval_partial_sum(unit_series(6), table).real, evaluate(approx, table).real,
           exact_half_csc(table))
for theta, partial, pade, exact in zip(table, *columns):
    print(f"  {theta:11.6f}  {partial:13.6f}  {pade:11.6f}  {exact:11.6f}")

thetas = np.linspace(np.pi / 3, np.pi, 500)
exact = exact_half_csc(thetas)
pade_err = np.max(np.abs(evaluate(approx, thetas) - exact))
partial_err = np.max(np.abs(eval_partial_sum(unit_series(6), thetas) - exact))
print(f"\nmax error on [pi/3, pi]: partial sum {partial_err:.3e}, [3/3] {pade_err:.3e} "
      f"({partial_err / pade_err:.0f}x smaller)")
print("\nCSV with the full sweep: legpade compare --demo unit --N 6 -o unit.csv")
