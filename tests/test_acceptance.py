"""Acceptance gate: one test per criterion, each printing a PASS line with
the achieved figures and asserting the stated tolerance and runtime."""

import math
import time

import numpy as np
import pytest
from exact import triple_product_integral
from numpy.polynomial.legendre import leggauss

from legpade.pade import construct, evaluate
from legpade.scattering import (
    PotentialSpec,
    RNParams,
    born_exact_invr2,
    born_phase_shift,
    born_series,
    coulomb_series,
    exact_half_csc,
    rn_series,
    unit_series,
)
from legpade.series import ComplexSeries, eval_partial_sum, project_legendre_coefficient
from legpade.special import legendre_eval_all

PI = math.pi

# reference coefficients of the 1/r^2 Born f_[3/3]; the numerator scale
# corresponds to alpha/k = 1/10 (the denominator is scale-invariant)
BORN_TARGET_A = np.array(
    [
        -184224 * PI / 5948545,
        988256 * PI / 29742725,
        -257088 * PI / 65433995,
        -1036608 * PI / 4253209675,
    ]
)
BORN_TARGET_B = np.array(
    [1.0, -16158513 / 11897090, 854777 / 2379418, 11424 / 5948545]
)

# reference Reissner-Nordstrom f_[3/3] coefficients for eta=1e-4, mu=1e-6,
# M=10; the reference denominators carry no P_3 term (ours is ~2e-5)
RN_TARGETS = {
    0.5: (
        [1156.89 - 156.71j, -(1444.37 - 185.02j), 288.3 - 28.64j, 5.70 - 1.40j],
        [-1.33 + 0.0j, 0.33 - 0.001j],
    ),
    0.99: (
        [1422.85 - 266.46j, -(1796.91 - 323.3j), 374.62 - 57.17j, 5.77 - 1.9j],
        [-(1.33 - 0.001j), 0.33 - 0.001j],
    ),
    1e-4: (
        [1165.19 - 157.75j, -(1453.4 - 185.79j), 289.06 - 28.4j, 5.83 - 1.43j],
        [-(1.33 - 0.001j), 0.33 - 0.001j],
    ),
}


def report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({detail})")
    assert passed, f"criterion {number} failed: {detail}"


def test_criterion_1_unit_series_reconstruction():
    start = time.perf_counter()
    approx, _ = construct(unit_series(8), 3, 3)
    partial = unit_series(6)
    thetas = np.linspace(PI / 3, PI, 600)
    pade_err = max(abs(evaluate(approx, t) - exact_half_csc(t)) for t in thetas)
    partial_err = max(abs(eval_partial_sum(partial, t) - exact_half_csc(t)) for t in thetas)
    elapsed = time.perf_counter() - start
    ok = pade_err <= 1e-2 and pade_err * 10.0 <= partial_err and elapsed < 1.0
    report(
        1,
        "unit-series reconstruction",
        ok,
        f"pade max err {pade_err:.3e}, partial max err {partial_err:.3e}, "
        f"ratio {partial_err / pade_err:.0f}, {elapsed:.2f}s",
    )


def test_criterion_2_born_invr2_coefficients():
    start = time.perf_counter()
    series = born_series(PotentialSpec("inverse_r2", 1.0), 8, 10.0)
    approx, _ = construct(series, 3, 3)
    rel_a = np.max(np.abs(approx.numerator - BORN_TARGET_A) / np.abs(BORN_TARGET_A))
    rel_b = np.max(np.abs(approx.denominator - BORN_TARGET_B) / np.abs(BORN_TARGET_B))
    # the same construction at k=1 shares the denominator and scales the
    # numerator by 10, pinning the reference values to alpha/k = 1/10
    at_unit_k, _ = construct(born_series(PotentialSpec("inverse_r2", 1.0), 8, 1.0), 3, 3)
    scale_dev = np.max(np.abs(at_unit_k.numerator - 10.0 * approx.numerator)) / np.max(
        np.abs(at_unit_k.numerator)
    )
    same_den = np.max(np.abs(at_unit_k.denominator - approx.denominator))
    elapsed = time.perf_counter() - start
    ok = rel_a <= 1e-9 and rel_b <= 1e-9 and scale_dev < 1e-12 and same_den < 1e-12 and elapsed < 1.0
    report(
        2,
        "Born 1/r^2 coefficients",
        ok,
        f"numerator rel err {rel_a:.2e}, denominator rel err {rel_b:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_coulomb_coefficients():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    start = time.perf_counter()
    one_i = mp.mpc(0, 1)
    csch = 1 / mp.sinh(mp.pi)

    def c(x):
        return complex(x)

    target_a = np.array(
        [
            c((mp.mpf(4290272012250) / 264699104689 + mp.mpf(4320822501450) / 264699104689 * one_i)
              * mp.pi * csch / (mp.gamma(3 - one_i) * mp.gamma(4 - one_i))),
            c(-(mp.mpf(86298291777600) / 264699104689 - mp.mpf(22045543159500) / 264699104689 * one_i)
              * mp.pi * csch / (mp.gamma(4 - one_i) * mp.gamma(5 - one_i))),
            c(2 * mp.gamma(1 + one_i) / mp.gamma(2 - one_i)
              * (mp.mpf(4967588289069) / 58498502136269 + mp.mpf(7767606080115) / 58498502136269 * one_i)),
            c(-2 * mp.gamma(1 + one_i) / mp.gamma(2 - one_i)
              * (mp.mpf(1846662362937) / 166495736849381 - mp.mpf(4075527063195) / 166495736849381 * one_i)),
        ]
    )
    target_b = np.array(
        [
            1.0 + 0j,
            c(-(mp.mpf(1570098416997) / 1058796418756 + mp.mpf(31193942505) / 264699104689 * one_i)),
            c(2 * (mp.mpf(507748194515) / 2117592837512 + mp.mpf(66753972375) / 1058796418756 * one_i)),
            c(2 * (mp.mpf(1746613473) / 1058796418756 + mp.mpf(384403371) / 264699104689 * one_i)),
        ]
    )
    approx, _ = construct(coulomb_series(8, 1.0), 3, 3)
    rel_a = np.max(np.abs(approx.numerator - target_a) / np.abs(target_a))
    rel_b = np.max(np.abs(approx.denominator[1:] - target_b[1:]) / np.abs(target_b[1:]))
    elapsed = time.perf_counter() - start
    ok = rel_a <= 1e-8 and rel_b <= 1e-8 and elapsed < 1.0
    report(
        3,
        "Coulomb coefficients",
        ok,
        f"numerator rel err {rel_a:.2e}, denominator rel err {rel_b:.2e}, {elapsed:.2f}s",
    )


def total_variation(values):
    return float(np.sum(np.abs(np.diff(values))))


@pytest.mark.parametrize("q_over_m", [0.5, 0.99, 1e-4])
def test_criterion_4_reissner_nordstrom(q_over_m):
    start = time.perf_counter()
    params = RNParams(mass=10.0, charge=q_over_m * 10.0, eta=1e-4, mu=1e-6)
    series = rn_series(8, params)
    approx, _ = construct(series, 3, 3)
    target_a, target_b = RN_TARGETS[q_over_m]
    devs = [
        abs(approx.numerator[n] - target_a[n]) / abs(target_a[n]) for n in range(4)
    ] + [
        abs(approx.denominator[m + 1] - target_b[m]) / abs(target_b[m]) for m in range(2)
    ]
    worst = max(devs)
    coefficients_ok = worst <= 0.05

    thetas = np.linspace(PI / 2, PI, 400)
    partial = ComplexSeries(series.coefficients[:7])
    pade_tv = total_variation([abs(evaluate(approx, t)) for t in thetas])
    partial_tv = total_variation([abs(eval_partial_sum(partial, t)) for t in thetas])
    fallback_ok = pade_tv <= 0.25 * partial_tv

    elapsed = time.perf_counter() - start
    ok = (coefficients_ok or fallback_ok) and elapsed < 60.0
    report(
        4,
        f"Reissner-Nordstrom Q/M={q_over_m}",
        ok,
        f"worst coefficient dev {worst * 100:.2f}% (limit 5%), "
        f"TV ratio {pade_tv / partial_tv * 100:.1f}% (fallback limit 25%), {elapsed:.1f}s",
    )


def test_criterion_5_degenerate_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 9))
        series = ComplexSeries(rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1))
        approx, _ = construct(series, n, 0)
        for theta in rng.uniform(0.0, PI, 100):
            reference = eval_partial_sum(series, theta)
            worst = max(worst, abs(evaluate(approx, theta) - reference) / abs(reference))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(5, "degenerate equivalence", ok, f"worst rel dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_6_threej_oracle_equivalence():
    start = time.perf_counter()
    x, w = leggauss(32)
    table = np.array([[legendre_eval_all(l, xi)[l] for xi in x] for l in range(9)])
    worst = 0.0
    for l in range(9):
        for m in range(9):
            for n in range(9):
                by_quadrature = float(np.dot(w, table[l] * table[m] * table[n]))
                exact = float(triple_product_integral(l, m, n))
                worst = max(worst, abs(by_quadrature - exact))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    report(6, "3j oracle equivalence", ok, f"worst abs dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_7_rational_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    draws = 0
    worst = 0.0
    while draws < 20:
        L = int(rng.integers(0, 9))
        M = int(rng.integers(0, 5))
        if L + M > 8 or (L == 0 and M == 0):
            continue
        a_true = rng.normal(size=L + 1) + 1j * rng.normal(size=L + 1)
        b_true = np.concatenate(
            [[1.0 + 0j], (rng.normal(size=M) + 1j * rng.normal(size=M)) * 0.25 / max(M, 1)]
        )
        den = ComplexSeries(b_true)
        probe = np.linspace(0.0, PI, 181)
        if min(abs(eval_partial_sum(den, t)) for t in probe) < 0.5:
            continue
        num = ComplexSeries(a_true)

        def ratio(theta):
            return eval_partial_sum(num, theta) / eval_partial_sum(den, theta)

        coefficients = np.array(
            [project_legendre_coefficient(ratio, n) for n in range(L + 2 * M + 1)]
        )
        approx, _ = construct(ComplexSeries(coefficients), L, M)
        scale = max(np.max(np.abs(a_true)), 1.0)
        worst = max(
            worst,
            np.max(np.abs(approx.numerator - a_true)) / scale,
            np.max(np.abs(approx.denominator - b_true)) / scale,
        )
        draws += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    report(7, "rational recovery round trip", ok, f"20 draws, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_8_born_chain_consistency():
    start = time.perf_counter()
    pot = PotentialSpec("inverse_r2", 1.0)
    worst_shift = 0.0
    for l in range(11):
        by_quadrature = born_phase_shift(pot, l, 1.0, method="quadrature")
        closed = -PI / (2.0 * (2 * l + 1))
        worst_shift = max(worst_shift, abs(by_quadrature - closed))
    series = born_series(pot, 8, 1.0, method="quadrature")
    approx, _ = construct(series, 3, 3)
    worst_amp = 0.0
    for theta in np.linspace(PI / 2, PI, 200):
        exact = born_exact_invr2(theta, 1.0, 1.0)
        worst_amp = max(worst_amp, abs(evaluate(approx, theta) - exact) / abs(exact))
    elapsed = time.perf_counter() - start
    ok = worst_shift <= 1e-8 and worst_amp <= 0.02 and elapsed < 10.0
    report(
        8,
        "Born chain consistency",
        ok,
        f"phase-shift dev {worst_shift:.2e}, amplitude rel dev {worst_amp:.2e}, {elapsed:.1f}s",
    )
