import cmath
import logging
import math

import numpy as np
import pytest
from scipy.integrate import quad

import legpade.scattering as scattering
from legpade.errors import DomainError, QuadratureConvergenceError
from legpade.pade import construct, evaluate
from legpade.scattering import (
    _rn_radial,
    PotentialSpec,
    RNParams,
    born_exact_invr2,
    born_phase_shift,
    born_series,
    coulomb_exact,
    coulomb_series,
    cross_section,
    exact_half_csc,
    rn_drstar_dr,
    rn_effective_potential,
    rn_phase_shift,
    rn_series,
    rn_tortoise,
    unit_series,
)
from legpade.series import eval_partial_sum, project_legendre_coefficient
from legpade.special import legendre_eval, spherical_bessel_j

RN_REFERENCE = RNParams(mass=10.0, charge=5.0, eta=1e-4, mu=1e-6)


class TestUnitSeries:
    def test_values(self):
        assert np.allclose(unit_series(0).coefficients, [1.0])
        assert np.allclose(unit_series(6).coefficients, np.ones(7))

    def test_projection_of_target_function(self):
        for l in range(7):
            coefficient = project_legendre_coefficient(exact_half_csc, l)
            assert coefficient == pytest.approx(1.0, abs=1e-9)

    def test_negative_order(self):
        with pytest.raises(DomainError):
            unit_series(-1)


class TestExactHalfCsc:
    def test_values(self):
        assert exact_half_csc(math.pi) == 0.5
        assert exact_half_csc(math.pi / 3) == pytest.approx(1.0, rel=1e-15)
        # direct evaluation of 1/(2 sin 0.25)
        assert exact_half_csc(0.5) == pytest.approx(2.0209862506105356, rel=1e-15)

    def test_divergence(self):
        with pytest.raises(DomainError):
            exact_half_csc(0.0)
        with pytest.raises(DomainError):
            exact_half_csc(-1.0)


class TestCoulomb:
    def test_coefficient_moduli(self):
        for k in (0.5, 1.0, 2.0):
            series = coulomb_series(6, k)
            for l, c in enumerate(series.coefficients):
                assert abs(c) == pytest.approx((2 * l + 1) / (2 * k), rel=1e-12)

    def test_first_coefficient_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        series = coulomb_series(0, 1.0)
        ref = complex(mp.gamma(1 + 1j) / mp.gamma(1 - 1j) / (2 * mp.mpc(0, 1)))
        assert series.coefficients[0] == pytest.approx(ref, rel=1e-12)

    def test_ratio_recurrence(self):
        # Gamma(z+1) = z Gamma(z) fixes the phase ratio of consecutive terms
        k = 1.0
        series = coulomb_series(5, k)
        for l in range(1, 6):
            expected = (2 * l + 1) / (2 * l - 1) * (l + 1j / k) / (l - 1j / k)
            ratio = series.coefficients[l] / series.coefficients[l - 1]
            assert ratio == pytest.approx(expected, rel=1e-12)

    def test_exact_amplitude_modulus(self):
        for k in (0.5, 1.0, 3.0):
            for theta in (0.4, math.pi / 2, math.pi):
                f = coulomb_exact(theta, k)
                rutherford = 1.0 / (2.0 * k * k * math.sin(0.5 * theta) ** 2)
                assert abs(f) == pytest.approx(rutherford, rel=1e-12)
        assert abs(coulomb_exact(math.pi, 1.0)) == pytest.approx(0.5, rel=1e-12)

    def test_divergence(self):
        with pytest.raises(DomainError):
            coulomb_exact(0.0, 1.0)


class TestBornPhaseShift:
    def test_closed_form_values(self):
        pot = PotentialSpec("inverse_r2", 1.0)
        assert born_phase_shift(pot, 0, 1.0) == pytest.approx(-math.pi / 2, rel=1e-15)
        assert born_phase_shift(pot, 3, 1.0) == pytest.approx(-math.pi / 14, rel=1e-15)
        assert born_phase_shift(pot, 3, 7.3) == pytest.approx(-math.pi / 14, rel=1e-15)

    def test_zero_coupling(self):
        assert born_phase_shift(PotentialSpec("inverse_r2", 0.0), 4, 1.0) == 0.0

    def test_quadrature_agrees_with_closed_form(self):
        pot = PotentialSpec("inverse_r2", 1.0)
        for l in (0, 2, 5):
            by_quad = born_phase_shift(pot, l, 1.0, method="quadrature")
            closed = -math.pi / (2 * (2 * l + 1))
            assert abs(by_quad - closed) < 1e-8

    def test_inverse_r_diverges(self):
        with pytest.raises(QuadratureConvergenceError):
            born_phase_shift(PotentialSpec("inverse_r", 1.0), 0, 1.0)

    @pytest.mark.parametrize("n", [0, 8, 20, 40])
    def test_quadrature_series_makes_four_quadratures(self, monkeypatch, n):
        # the body and three tail integrals serve every order at once
        calls = []
        original = scattering.quad

        def counting_quad(f, a, b, **kwargs):
            calls.append((a, b, kwargs.get("weight")))
            return original(f, a, b, **kwargs)

        monkeypatch.setattr(scattering, "quad", counting_quad)
        series = born_series(PotentialSpec("inverse_r2", 1.0), n, 1.0, method="quadrature")
        x0 = max(100.0, 3.0 * n)
        assert calls == [(0.0, x0, None), (x0, np.inf, None), (x0, np.inf, "cos"), (x0, np.inf, "sin")]
        l = np.arange(n + 1)
        shifts = series.coefficients.real / (2 * l + 1)
        assert np.max(np.abs(shifts + math.pi / (2 * (2 * l + 1)))) <= 1e-12

    def test_single_order_is_entry_of_series(self):
        pot = PotentialSpec("inverse_r2", 1.0)
        series = born_series(pot, 5, 1.0, method="quadrature")
        assert born_phase_shift(pot, 5, 1.0, method="quadrature") * 11.0 == series.coefficients[5].real

    def test_potential_validation(self):
        with pytest.raises(ValueError):
            PotentialSpec("yukawa", 1.0)


class TestBornSeries:
    def test_constant_coefficients(self):
        series = born_series(PotentialSpec("inverse_r2", 1.0), 6, 1.0)
        assert np.allclose(series.coefficients, -math.pi / 2 * np.ones(7), rtol=1e-14)
        single = born_series(PotentialSpec("inverse_r2", 1.0), 0, 1.0)
        assert single.coefficients[0] == pytest.approx(-math.pi / 2, rel=1e-14)

    def test_pade_matches_closed_form_shape(self):
        series = born_series(PotentialSpec("inverse_r2", 1.0), 8, 1.0)
        approx, _ = construct(series, 3, 3)
        for theta in np.linspace(math.pi / 2, math.pi, 40):
            exact = born_exact_invr2(theta, 1.0, 1.0)
            assert abs(evaluate(approx, theta) - exact) < 2e-2 * abs(exact)
        midpoint = born_exact_invr2(math.pi / 2, 1.0, 1.0)
        assert abs(evaluate(approx, math.pi / 2) - midpoint) < 1e-2 * abs(midpoint)


class TestBornExact:
    def test_values_and_scaling(self):
        assert born_exact_invr2(math.pi, 1.0, 1.0) == pytest.approx(-math.pi / 4, rel=1e-15)
        assert born_exact_invr2(1.0, 3.0, 1.0) == pytest.approx(
            3.0 * born_exact_invr2(1.0, 1.0, 1.0), rel=1e-15
        )
        assert born_exact_invr2(1.0, 1.0, 2.0) == pytest.approx(
            0.5 * born_exact_invr2(1.0, 1.0, 1.0), rel=1e-15
        )

    def test_against_fourier_integral(self):
        # independent route: -integral of r^2 V(r) sin(qr)/(qr) dr, split into
        # a regular head and a weighted oscillatory tail
        alpha, k, theta = 1.0, 1.0, math.pi / 2
        q = 2.0 * k * math.sin(0.5 * theta)
        head, _ = quad(lambda r: alpha * math.sin(q * r) / (q * r), 0.0, 1.0)
        tail, _ = quad(lambda r: alpha / (q * r), 1.0, np.inf, weight="sin", wvar=q, limlst=100)
        assert -(head + tail) == pytest.approx(born_exact_invr2(theta, alpha, k), rel=1e-6)

    def test_divergence(self):
        with pytest.raises(DomainError):
            born_exact_invr2(0.0, 1.0, 1.0)


class TestPartialWaveIdentity:
    def test_bessel_legendre_sum(self):
        # sum of (2l+1) j_l(kr)^2 P_l(cos theta) converges to sin(qr)/(qr)
        k, r, theta = 1.0, 3.0, math.pi / 2
        q = 2.0 * k * math.sin(0.5 * theta)
        x = math.cos(theta)
        total = sum(
            (2 * l + 1) * spherical_bessel_j(l, k * r) ** 2 * legendre_eval(l, x)
            for l in range(41)
        )
        assert abs(total - math.sin(q * r) / (q * r)) < 1e-8

    def test_endpoint_oscillation_not_removed_by_more_terms(self):
        # max deviation on [pi/2, pi] does not decay as N = 4 -> 8 -> 12
        thetas = np.linspace(math.pi / 2, math.pi, 201)
        errors = {}
        for n in (4, 8, 12):
            series = born_series(PotentialSpec("inverse_r2", 1.0), n, 1.0)
            errors[n] = max(
                abs(eval_partial_sum(series, t) - born_exact_invr2(t, 1.0, 1.0)) for t in thetas
            )
        assert min(errors[8], errors[12]) >= 0.5 * errors[4]


class TestRNParams:
    def test_derived_quantities(self):
        p = RN_REFERENCE
        assert p.r_plus == pytest.approx(10.0 + math.sqrt(75.0), rel=1e-15)
        assert p.r_minus == pytest.approx(10.0 - math.sqrt(75.0), rel=1e-15)
        assert p.omega == pytest.approx(math.hypot(1e-4, 1e-6), rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            RNParams(mass=10.0, charge=10.0, eta=1e-4, mu=0.0)  # extremal
        with pytest.raises(ValueError):
            RNParams(mass=-1.0, charge=0.0, eta=1e-4, mu=0.0)
        with pytest.raises(ValueError):
            RNParams(mass=10.0, charge=0.0, eta=0.0, mu=0.0)
        with pytest.raises(ValueError):
            RNParams(mass=10.0, charge=0.0, eta=1e-4, mu=-1.0)
        for field, bad in [("mass", math.nan), ("mass", math.inf), ("charge", math.nan),
                           ("eta", math.nan), ("eta", math.inf), ("mu", math.nan), ("mu", math.inf)]:
            fields = {"mass": 10.0, "charge": 5.0, "eta": 1e-4, "mu": 0.0, field: bad}
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                RNParams(**fields)


class TestTortoise:
    def test_asymptotically_flat(self):
        p = RN_REFERENCE
        r = 1e9 * p.r_plus
        assert rn_tortoise(r, p) / r == pytest.approx(1.0, rel=1e-6)

    def test_schwarzschild_reduction(self):
        p = RNParams(mass=10.0, charge=0.0, eta=1e-4, mu=0.0)
        for r in (25.0, 60.0, 300.0):
            expected = r + 2 * p.mass * math.log(r / (2 * p.mass) - 1.0)
            assert rn_tortoise(r, p) == pytest.approx(expected, rel=1e-14)

    def test_jacobian_matches_finite_difference(self):
        p = RN_REFERENCE
        for r in np.linspace(1.05 * p.r_plus, 50 * p.r_plus, 20):
            h = 1e-6 * r
            numerical = (rn_tortoise(r + h, p) - rn_tortoise(r - h, p)) / (2 * h)
            assert rn_drstar_dr(r, p) == pytest.approx(numerical, rel=1e-6)

    def test_domain(self):
        p = RN_REFERENCE
        with pytest.raises(DomainError):
            rn_tortoise(p.r_plus, p)
        with pytest.raises(DomainError):
            rn_drstar_dr(0.5 * p.r_plus, p)


class TestEffectivePotential:
    def test_decays_at_infinity(self):
        p = RN_REFERENCE
        assert abs(rn_effective_potential(1e9, 2, p)) < 1e-16

    def test_vanishes_at_horizon_for_massless(self):
        p = RNParams(mass=10.0, charge=5.0, eta=1e-4, mu=0.0)
        assert abs(rn_effective_potential(p.r_plus * (1 + 1e-12), 3, p)) < 1e-9

    def test_mass_and_charge_form(self):
        # V = f (l(l+1)/r^2 + 2M/r^3 - 2Q^2/r^4) + mu^2 (Q^2/r^2 - 2M/r), f = 1 - 2M/r + Q^2/r^2
        for q_over_m in (1e-4, 0.5, 0.99):
            p = RNParams(mass=10.0, charge=q_over_m * 10.0, eta=1e-4, mu=1e-3)
            m, q2 = p.mass, p.charge**2
            for r in p.r_plus * (1.0 + np.geomspace(1e-3, 1e5, 17)):
                f = 1.0 - 2.0 * m / r + q2 / r**2
                for l in (0, 3, 20):
                    expected = f * (l * (l + 1) / r**2 + 2.0 * m / r**3 - 2.0 * q2 / r**4)
                    expected += p.mu**2 * (q2 / r**2 - 2.0 * m / r)
                    assert rn_effective_potential(r, l, p) == pytest.approx(expected, rel=1e-11)

    def test_l_dependence(self):
        p = RN_REFERENCE
        for r in (30.0, 100.0):
            factor = (1 - p.r_plus / r) * (1 - p.r_minus / r)
            for l in range(5):
                difference = rn_effective_potential(r, l + 1, p) - rn_effective_potential(r, l, p)
                assert difference == pytest.approx(factor * (2 * l + 2) / r**2, rel=1e-12)


class TestRNArrayForm:
    def test_matches_scalar_functions(self):
        for q_over_m in (1e-4, 0.5, 0.99):
            p = RNParams(mass=10.0, charge=q_over_m * 10.0, eta=1e-4, mu=1e-6)
            r = p.r_plus * (1.0 + np.geomspace(1e-8, 1e5, 41))
            rstar, _, w0 = _rn_radial(r, p)
            for l in (0, 3, 20):
                weight = l * (l + 1) / r**2 + w0
                for ri, rs, wi in zip(r, rstar, weight):
                    assert rs == pytest.approx(rn_tortoise(ri, p), rel=1e-13, abs=1e-12)
                    expected = rn_drstar_dr(ri, p) * rn_effective_potential(ri, l, p)
                    assert wi == pytest.approx(expected, rel=1e-12)


class TestRNPhaseShift:
    def test_order0_spacing_is_exact(self):
        # exactly pi/2 in exact arithmetic; float subtraction leaves ulps
        p = RN_REFERENCE
        shifts = [rn_phase_shift(l, p, 0) for l in range(8)]
        for l in range(7):
            assert shifts[l + 1] - shifts[l] == pytest.approx(math.pi / 2, abs=1e-13)

    def test_order0_schwarzschild_limit(self):
        p = RNParams(mass=10.0, charge=1e-7, eta=1e-4, mu=0.0)
        expected = 10.0 * 1e-4 * (1.0 - 2.0 * math.log(2.0))
        assert rn_phase_shift(0, p, 0) == pytest.approx(expected, rel=1e-9)

    def test_order1_finite_for_reference_cases(self):
        for q_over_m in (0.5, 0.99, 1e-4):
            p = RNParams(mass=10.0, charge=q_over_m * 10.0, eta=1e-4, mu=1e-6)
            value = rn_phase_shift(2, p, 1)
            assert math.isfinite(value)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            rn_phase_shift(0, RN_REFERENCE, 2)

    def test_rmax_validation(self):
        with pytest.raises(ValueError):
            rn_phase_shift(0, RN_REFERENCE, 1, r_max=RN_REFERENCE.r_plus)
        with pytest.raises(ValueError):
            rn_series(3, RN_REFERENCE, r_max=RN_REFERENCE.r_plus)

    def test_single_order_makes_the_series_quadratures(self, monkeypatch):
        # one four-component quadrature per radial piece, for a single order as for a series
        calls = []
        original = scattering.quad

        def counting_quad(f, a, b, **kwargs):
            calls.append((a, b))
            return original(f, a, b, **kwargs)

        monkeypatch.setattr(scattering, "quad", counting_quad)
        rn_series(20, RN_REFERENCE)
        series_calls, calls[:] = calls[:], []
        value = rn_phase_shift(7, RN_REFERENCE, 1)
        assert len(calls) == 4 and calls == series_calls
        assert value == scattering._rn_first_order(np.arange(21), RN_REFERENCE, 1e-8, None)[7]

    def test_cutoff_on_horizon_rejected(self):
        for epsilon in (1e-17, 0.0, -1e-3):
            with pytest.raises(DomainError):
                rn_phase_shift(0, RN_REFERENCE, 1, horizon_epsilon=epsilon)
            with pytest.raises(DomainError):
                rn_series(3, RN_REFERENCE, horizon_epsilon=epsilon)


def _per_order_rn_series(n, p):
    """rn_series(n, p) with two scipy quadratures per order over osc(r*) (dr*/dr) V_eff.

    Written from M and Q with the default cutoffs: r_+(1 + 1e-8) below, 50/eta
    above; the near-horizon slice [r_+(1 + 1e-8), 2 r_+] is integrated in
    u = ln(r/r_+ - 1), the rest is split at 20 r_+ and 1/eta.
    """
    m, q2, mu, eta = p.mass, p.charge**2, p.mu, p.eta
    rp, rm = p.r_plus, p.r_minus

    def tortoise(r):
        value = r + rp * rp / (rp - rm) * math.log(r / rp - 1.0)
        return value - rm * rm / (rp - rm) * math.log(r / rm - 1.0)

    def weight(r, l):
        f = (1.0 - rp / r) * (1.0 - rm / r)
        v = f * (l * (l + 1) / r**2 + 2.0 * m / r**3 - 2.0 * q2 / r**4) + mu**2 * (q2 / r**2 - 2.0 * m / r)
        return v / f

    def integral(g):
        near = lambda u: g(rp * (1.0 + math.exp(u))) * rp * math.exp(u)
        total = quad(near, math.log(1e-8), 0.0, epsabs=1e-13, epsrel=1e-9, limit=400)[0]
        for lo, hi in [(2.0 * rp, 20.0 * rp), (20.0 * rp, 1.0 / eta), (1.0 / eta, 50.0 / eta)]:
            total += quad(g, lo, hi, epsabs=1e-13, epsrel=1e-9, limit=1500)[0]
        return total

    c = []
    for l in range(n + 1):
        i_sin2 = integral(lambda r: math.sin(eta * tortoise(r)) ** 2 * weight(r, l))
        i_sin2e = integral(lambda r: math.sin(2.0 * eta * tortoise(r)) * weight(r, l))
        delta = -math.atan((i_sin2 / eta) / (1.0 + i_sin2e / eta)) + 2.0 * m * eta * math.log((rp - rm) / (2.0 * m))
        delta += rn_phase_shift(l, p, 0)
        c.append((-1) ** l * (2 * l + 1) / (2j * p.omega) * cmath.exp(2j * delta))
    return np.array(c)


class TestRNSeries:
    def test_coefficient_moduli(self):
        series = rn_series(4, RN_REFERENCE)
        for l, c in enumerate(series.coefficients):
            assert abs(c) == pytest.approx((2 * l + 1) / (2 * RN_REFERENCE.omega), rel=1e-10)

    def test_phase_increments_track_first_order_shifts(self):
        # after the parity reduction, successive coefficients differ by the
        # first-order phase step only
        series = rn_series(3, RN_REFERENCE)
        d1 = [rn_phase_shift(l, RN_REFERENCE, 1) for l in range(4)]
        for l in range(3):
            ratio = series.coefficients[l + 1] / series.coefficients[l]
            ratio *= (2 * l + 1) / (2 * l + 3)
            expected = 2.0 * (d1[l + 1] - d1[l])
            assert cmath.phase(ratio) == pytest.approx(expected, abs=1e-9)

    def test_quadratures_logged_at_debug(self, caplog):
        caplog.set_level(logging.DEBUG, logger="legpade.scattering")
        for n in (0, 2, 20, 40):
            caplog.clear()
            rn_series(n, RN_REFERENCE)
            records = [r for r in caplog.records if r.name == "legpade.scattering"]
            # for all orders and weights together: the near-horizon slice and three outer pieces
            assert len(records) == 4
            for record in records:
                assert record.levelno == logging.DEBUG
                lo, hi, abserr, neval = record.args
                assert lo < hi and 0.0 <= abserr < 1e-6 and neval > 0 and neval % 21 == 0
                assert record.getMessage().startswith(f"quadrature on [{lo:g}, {hi:g}]: abserr ")

    @pytest.mark.parametrize("q_over_m", [1e-4, 0.5, 0.99])
    def test_matches_per_order_quadpack(self, q_over_m):
        # independent of the l(l+1) A + B split: QUADPACK on each order's own weight
        p = RNParams(mass=10.0, charge=q_over_m * 10.0, eta=1e-4, mu=1e-6)
        reference = _per_order_rn_series(20, p)
        ours = rn_series(20, p).coefficients
        assert np.max(np.abs(ours - reference) / np.abs(reference)) < 1e-11

    def test_subtract_one_flag(self):
        base = rn_series(2, RN_REFERENCE)
        shifted = rn_series(2, RN_REFERENCE, subtract_one=True)
        pref = 1.0 / (2j * RN_REFERENCE.omega)
        for l in range(3):
            delta = base.coefficients[l] - shifted.coefficients[l]
            assert delta == pytest.approx((-1) ** l * pref * (2 * l + 1), rel=1e-12)


class TestCrossSection:
    def test_values(self):
        assert cross_section(3 + 4j) == pytest.approx(25.0, rel=1e-15)
        assert cross_section(0.0) == 0.0
        assert cross_section(coulomb_exact(math.pi, 1.0)) == pytest.approx(0.25, rel=1e-12)
