#!/usr/bin/env python3
"""Scattering cross sections in Reissner-Nordstrom spacetime.

Partial waves are built from the zeroth-order phase shift (closed form)
plus the first-order correction (four improper integrals over the effective
potential in the tortoise coordinate, taken together in one quadrature over
u = ln(r/r_+ - 1) that serves every order); the first-order shifts printed here are read back
from the series coefficients. No closed-form amplitude exists here; the
oscillation removal shows up as the collapse in total variation of |f| near
the backward direction.
"""

import numpy as np

from legpade import (
    RNParams,
    ComplexSeries,
    construct,
    cross_section,
    eval_partial_sum,
    evaluate,
    rn_phase_shift,
    rn_series,
)

ETA, MU, MASS = 1e-4, 1e-6, 10.0

for q_over_m in (0.5, 0.99, 1e-4):
    params = RNParams(mass=MASS, charge=q_over_m * MASS, eta=ETA, mu=MU)
    print(f"\n=== Q/M = {q_over_m}  (r+ = {params.r_plus:.4f}, r- = {params.r_minus:.4f}) ===")
    series = rn_series(8, params)
    # c_l = (2l+1)/(2i omega) exp(2i delta_l), and delta_l is the l = 0 zeroth-order
    # shift plus the first-order one
    ls = np.arange(4)
    ratio = series.coefficients[:4] * (2j * params.omega) / (2 * ls + 1)
    first_order = 0.5 * np.angle(ratio) - rn_phase_shift(0, params)
    print("first-order phase shifts:")
    for l, delta in zip(ls, first_order):
        print(f"  delta^1_{l} = {delta:+.6e}")

    approx, _ = construct(series, 3, 3)
    print("[3/3] numerator:")
    for n, a in enumerate(approx.numerator):
        print(f"  a_{n} = {a.real:9.2f} {a.imag:+8.2f}i")
    print("[3/3] denominator:")
    for m, b in enumerate(approx.denominator):
        print(f"  b_{m} = {b.real:9.4f} {b.imag:+8.4f}i")

    # oscillation collapse on the backward half
    thetas = np.linspace(np.pi / 2, np.pi, 300)
    partial = ComplexSeries(series.coefficients[:7])
    tv = lambda vals: float(np.sum(np.abs(np.diff(vals))))
    tv_partial = tv(np.abs(eval_partial_sum(partial, thetas)))
    tv_pade = tv(np.abs(evaluate(approx, thetas)))
    print(f"total variation of |f| on [pi/2, pi]: partial {tv_partial:.1f}, "
          f"[3/3] {tv_pade:.1f} ({tv_partial / tv_pade:.0f}x smaller)")

    sigma = cross_section(evaluate(approx, np.pi))
    print(f"backward cross section sigma(pi) = {sigma:.4e}")

print("\nCSV with the full sweep: legpade compare --demo rn --QoverM 0.5 "
      "--eta 1e-4 --mu 1e-6 --mass 10 -o rn.csv")
