#!/usr/bin/env python3
"""Coulomb scattering: partial-wave resummation against the exact amplitude.

The Coulomb amplitude has both a closed form and a partial-wave expansion
whose coefficients are ratios of conjugate gamma values. The truncated
expansion oscillates; the [3/3] resummation tracks the closed form.
"""

import numpy as np

from legpade import (
    construct,
    coulomb_exact,
    coulomb_series,
    cross_section,
    eval_partial_sum,
    evaluate,
)

K = 1.0

series = coulomb_series(8, K)
print("series coefficients (moduli are (2l+1)/2k):")
for l, c in enumerate(series.coefficients[:4]):
    print(f"  c_{l} = {c:.6f}   |c_{l}| = {abs(c):.4f}")

approx, _ = construct(series, 3, 3)
print("\n[3/3] numerator:")
for n, a in enumerate(approx.numerator):
    print(f"  a_{n} = {a:.8f}")
print("[3/3] denominator:")
for m, b in enumerate(approx.denominator):
    print(f"  b_{m} = {b:.8f}")

print("\ncross sections sigma = |f|^2:")
print("        theta   partial(N=6)          [3/3]          exact")
partial6 = coulomb_series(6, K)
thetas = np.linspace(np.pi / 3, np.pi, 8)
columns = (cross_section(eval_partial_sum(partial6, thetas)), cross_section(evaluate(approx, thetas)),
           cross_section(coulomb_exact(thetas, K)))
for theta, sp, sq, se in zip(thetas, *columns):
    print(f"  {theta:11.6f}  {sp:13.6f}  {sq:13.6f}  {se:13.6f}")

print("\nCSV with the full sweep: legpade compare --demo coulomb --N 6 -o coulomb.csv")
