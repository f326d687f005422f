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
    rn_phase_shift,
    rn_series,
    unit_series,
)
from legpade.series import eval_partial_sum, project_legendre_coefficient
from legpade.special import (
    legendre_eval_all,
    log_gamma_complex,
    spherical_bessel_jy_all,
)

RN_REFERENCE = RNParams(mass=10.0, charge=5.0, eta=1e-4, mu=1e-6)


class TestUnitSeries:
    def test_values(self):
        assert np.allclose(unit_series(0).coefficients, [1.0])
        assert np.allclose(unit_series(6).coefficients, np.ones(7))

    def test_projection_of_target_function(self):
        for l in range(7):
            coefficient = project_legendre_coefficient(exact_half_csc, l)
            assert coefficient == pytest.approx(1.0, abs=1e-9)


class TestExactHalfCsc:
    def test_values(self):
        assert exact_half_csc(math.pi) == 0.5
        assert exact_half_csc(math.pi / 3) == pytest.approx(1.0, rel=1e-15)
        # direct evaluation of 1/(2 sin 0.25)
        assert exact_half_csc(0.5) == pytest.approx(2.0209862506105356, rel=1e-15)


class TestCoulomb:
    @pytest.mark.parametrize("n", [0, 1, 40, 120])
    def test_one_log_gamma_call_for_any_order(self, monkeypatch, n):
        calls = []

        def counting_log_gamma(z):
            calls.append(z)
            return log_gamma_complex(z)

        monkeypatch.setattr(scattering, "log_gamma_complex", counting_log_gamma)
        coulomb_series(n, 1.0)
        assert calls == [1 + 1j]

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_recurrence_against_mpmath_to_order_120(self, k):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            eta = 1 / mp.mpf(k)
            for l, c in enumerate(coulomb_series(120, k).coefficients):
                ratio = mp.exp(mp.loggamma(l + 1 + 1j * eta) - mp.loggamma(l + 1 - 1j * eta))
                ref = (2 * l + 1) / (2j * mp.mpf(k)) * ratio
                assert abs(mp.mpc(c) - ref) <= 5e-15 * abs(ref)

    def test_exact_amplitude_modulus(self):
        for k in (0.5, 1.0, 3.0):
            for theta in (0.4, math.pi / 2, math.pi):
                f = coulomb_exact(theta, k)
                rutherford = 1.0 / (2.0 * k * k * math.sin(0.5 * theta) ** 2)
                assert abs(f) == pytest.approx(rutherford, rel=1e-12)
        assert abs(coulomb_exact(math.pi, 1.0)) == pytest.approx(0.5, rel=1e-12)


class TestBornPhaseShift:
    def test_closed_form_values(self):
        pot = PotentialSpec("inverse_r2", 1.0)
        assert born_phase_shift(pot, 0, 1.0) == pytest.approx(-math.pi / 2, rel=1e-15)
        assert born_phase_shift(pot, 3, 1.0) == pytest.approx(-math.pi / 14, rel=1e-15)
        assert born_phase_shift(pot, 3, 7.3) == pytest.approx(-math.pi / 14, rel=1e-15)

    def test_zero_coupling(self):
        assert born_phase_shift(PotentialSpec("inverse_r2", 0.0), 4, 1.0) == 0.0

    @pytest.mark.parametrize("n", [0, 1, 5, 8, 20, 40, 60, 120])
    def test_quadrature_series_makes_two_quadratures(self, monkeypatch, n):
        # the body and the tail (its mean and its rotated oscillatory part in one integrand)
        # serve every order at once
        calls = []
        original = scattering.quad

        def counting_quad(f, a, b, **kwargs):
            calls.append((a, b))
            return original(f, a, b, **kwargs)

        monkeypatch.setattr(scattering, "quad", counting_quad)
        series = born_series(PotentialSpec("inverse_r2", 1.0), n, 1.0, method="quadrature")
        x0 = max(100.0, 3.0 * n)
        assert calls == [(0.0, x0), (0.0, np.inf)]
        l = np.arange(n + 1)
        shifts = series.coefficients.real / (2 * l + 1)
        assert np.max(np.abs(shifts + math.pi / (2 * (2 * l + 1)))) <= 1e-15

    def test_single_order_is_entry_of_series(self):
        pot = PotentialSpec("inverse_r2", 1.0)
        series = born_series(pot, 5, 1.0, method="quadrature")
        assert born_phase_shift(pot, 5, 1.0, method="quadrature") * 11.0 == series.coefficients[5].real


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

    def test_coupling_near_the_float_maximum_stays_finite(self):
        # every shift -alpha pi/(2(2l+1)) is finite here, though pi * alpha is not
        pot = PotentialSpec("inverse_r2", 1e308)
        auto, quadrature = (born_series(pot, 4, 1.0, method=method).coefficients for method in ("auto", "quadrature"))
        assert np.all(np.isfinite(auto))
        assert np.max(np.abs(quadrature - auto) / np.abs(auto)) <= 1e-12


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


@pytest.mark.parametrize("call, k", [
    (lambda k: coulomb_series(4, k), 1e-308),  # the log-gamma at 1 + i/k overflows
    (lambda k: coulomb_exact(1.0, k), 1e-308),
])
def test_overflowing_coefficients_name_the_wavenumber(call, k):
    # pytest turns numpy's RuntimeWarning into an error, so the overflow must stay quiet
    with pytest.raises(DomainError) as raised:
        call(k)
    assert type(raised.value) is DomainError and str(raised.value) == (
        f"wavenumber k = {k} is too small: the partial-wave coefficients overflow")


class TestPartialWaveIdentity:
    def test_bessel_legendre_sum(self):
        # sum of (2l+1) j_l(kr)^2 P_l(cos theta) converges to sin(qr)/(qr)
        k, r, theta = 1.0, 3.0, math.pi / 2
        q = 2.0 * k * math.sin(0.5 * theta)
        x = math.cos(theta)
        j, _ = spherical_bessel_jy_all(40, k * r)
        total = sum(
            (2 * l + 1) * j[l] ** 2 * legendre_eval_all(l, x)[l]
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

    def test_equal_values_compare_equal(self):
        # RNParams holds only scalars, so it keeps the generated value == and hash
        assert RNParams(10.0, 5.0, 1e-4) == RNParams(10.0, 5.0, 1e-4) != RNParams(10.0, 5.0, 2e-4)
        assert len({RNParams(10.0, 5.0, 1e-4), RNParams(10.0, 5.0, 1e-4)}) == 1

    @pytest.mark.parametrize("charge", [-10.0])
    def test_extremal_charge_is_domain_error(self, charge):
        # a negative charge is reported by its magnitude |Q|
        with pytest.raises(DomainError) as raised:
            RNParams(mass=10.0, charge=charge, eta=1e-4)
        assert type(raised.value) is DomainError and str(raised.value) == (
            "|Q| = 10.0 must be strictly below M = 10.0 (extremal configurations are rejected)")


def _tortoise(r, p):
    return _rn_radial(r, p)[0]


def _effective_potential(r, l, p):
    """V_eff of order l as the RN quadrature forms it: the horizon factor times l(l+1)/r^2 + w0."""
    _, horizon_factor, w0 = _rn_radial(r, p)
    return horizon_factor * (l * (l + 1) / r**2 + w0)


class TestTortoise:
    def test_asymptotically_flat(self):
        p = RN_REFERENCE
        r = 1e9 * p.r_plus
        assert _tortoise(r, p) / r == pytest.approx(1.0, rel=1e-6)

    def test_schwarzschild_reduction(self):
        p = RNParams(mass=10.0, charge=0.0, eta=1e-4, mu=0.0)
        for r in (25.0, 60.0, 300.0):
            expected = r + 2 * p.mass * math.log(r / (2 * p.mass) - 1.0)
            assert _tortoise(r, p) == pytest.approx(expected, rel=1e-14)

    def test_jacobian_matches_finite_difference(self):
        # the horizon factor is (dr*/dr)^-1
        p = RN_REFERENCE
        for r in np.linspace(1.05 * p.r_plus, 50 * p.r_plus, 20):
            h = 1e-6 * r
            numerical = (_tortoise(r + h, p) - _tortoise(r - h, p)) / (2 * h)
            assert 1.0 / _rn_radial(r, p)[1] == pytest.approx(numerical, rel=1e-6)


class TestEffectivePotential:
    def test_decays_at_infinity(self):
        p = RN_REFERENCE
        assert abs(_effective_potential(1e9, 2, p)) < 1e-16

    def test_vanishes_at_horizon_for_massless(self):
        p = RNParams(mass=10.0, charge=5.0, eta=1e-4, mu=0.0)
        assert abs(_effective_potential(p.r_plus * (1 + 1e-12), 3, p)) < 1e-9

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
                    assert _effective_potential(r, l, p) == pytest.approx(expected, rel=1e-11)

    def test_l_dependence(self):
        p = RN_REFERENCE
        for r in (30.0, 100.0):
            factor = (1 - p.r_plus / r) * (1 - p.r_minus / r)
            for l in range(5):
                difference = _effective_potential(r, l + 1, p) - _effective_potential(r, l, p)
                assert difference == pytest.approx(factor * (2 * l + 2) / r**2, rel=1e-12)


class TestRNArrayForm:
    def test_matches_scalar_functions(self):
        for q_over_m in (1e-4, 0.5, 0.99):
            p = RNParams(mass=10.0, charge=q_over_m * 10.0, eta=1e-4, mu=1e-6)
            r = p.r_plus * (1.0 + np.geomspace(1e-8, 1e5, 41))
            rstar, horizon_factor, w0 = _rn_radial(r, p)
            for i, ri in enumerate(r):
                rs, hf, wi = _rn_radial(float(ri), p)
                assert rstar[i] == pytest.approx(rs, rel=1e-13, abs=1e-12)
                assert horizon_factor[i] == pytest.approx(hf, rel=1e-12)
                assert w0[i] == pytest.approx(wi, rel=1e-12)


def _first_order_shifts(series, p):
    """The first-order shifts read back from c_l = (2l+1)/(2i omega) exp(2i delta_l), where delta_l is
    the l = 0 zeroth-order shift plus the first-order one; |delta_l| < pi/2 here, so the angle does not wrap."""
    ls = np.arange(series.coefficients.size)
    return 0.5 * np.angle(series.coefficients * (2j * p.omega) / (2 * ls + 1)) - rn_phase_shift(0, p)


class TestRNPhaseShift:
    def test_order0_spacing_is_exact(self):
        # exactly pi/2 in exact arithmetic; float subtraction leaves ulps
        p = RN_REFERENCE
        shifts = [rn_phase_shift(l, p) for l in range(8)]
        for l in range(7):
            assert shifts[l + 1] - shifts[l] == pytest.approx(math.pi / 2, abs=1e-13)

    def test_order0_schwarzschild_limit(self):
        p = RNParams(mass=10.0, charge=1e-7, eta=1e-4, mu=0.0)
        expected = 10.0 * 1e-4 * (1.0 - 2.0 * math.log(2.0))
        assert rn_phase_shift(0, p) == pytest.approx(expected, rel=1e-9)

    def test_order1_finite_for_reference_cases(self):
        for q_over_m in (0.5, 0.99, 1e-4):
            p = RNParams(mass=10.0, charge=q_over_m * 10.0, eta=1e-4, mu=1e-6)
            value = _first_order_shifts(rn_series(2, p), p)[2]
            assert math.isfinite(value)

    def test_single_order_makes_the_series_quadratures(self, monkeypatch):
        # one four-component quadrature in u = ln(r/r_+ - 1), for a single order as for a series
        calls = []
        original = scattering.quad

        def counting_quad(f, a, b, **kwargs):
            calls.append((a, b))
            return original(f, a, b, **kwargs)

        monkeypatch.setattr(scattering, "quad", counting_quad)
        rn_series(20, RN_REFERENCE)
        series_calls, calls[:] = calls[:], []
        rn_series(0, RN_REFERENCE)
        assert calls == series_calls == [(math.log(1e-8), math.log(5e5 / RN_REFERENCE.r_plus - 1.0))]

    def test_cutoff_beyond_twice_the_horizon_moves_the_integral(self):
        # eps >= 1 puts the lower cutoff at r_+(1 + eps) >= 2 r_+, checked against QUADPACK in r
        p = RN_REFERENCE
        rp, eta = p.r_plus, p.eta
        values = [_first_order_shifts(rn_series(1, p, horizon_epsilon=eps), p)[1] for eps in (1.0, 2.0, 10.0)]
        assert len(set(values)) == 3

        def integral(osc):
            def g(r):
                rstar, _, w0 = _rn_radial(r, p)
                return osc(eta * rstar) * (2.0 / (r * r) + w0)
            return quad(g, 11.0 * rp, 50.0 / eta, epsabs=0.0, epsrel=1e-12, limit=1000)[0]

        i_sin2, i_sin2e = integral(lambda x: math.sin(x) ** 2), integral(lambda x: math.sin(2.0 * x))
        expected = -math.atan((i_sin2 / eta) / (1.0 + i_sin2e / eta))
        expected += (rp + p.r_minus) * eta * math.log((rp - p.r_minus) / (rp + p.r_minus))
        assert values[2] == pytest.approx(expected, rel=1e-9)


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
        delta += rn_phase_shift(l, p)
        c.append((-1) ** l * (2 * l + 1) / (2j * p.omega) * cmath.exp(2j * delta))
    return np.array(c)


class TestRNSeries:
    def test_coefficient_moduli(self):
        series = rn_series(4, RN_REFERENCE)
        for l, c in enumerate(series.coefficients):
            assert abs(c) == pytest.approx((2 * l + 1) / (2 * RN_REFERENCE.omega), rel=1e-10)

    def test_quadratures_logged_at_debug(self, caplog):
        caplog.set_level(logging.DEBUG, logger="legpade.quadrature")

        def intervals_logged(call):
            caplog.clear()
            call()
            records = [r for r in caplog.records if r.name == "legpade.quadrature"]
            for record in records:
                assert record.levelno == logging.DEBUG
                lo, hi, abserr, neval = record.args
                assert lo < hi and 0.0 <= abserr < 1e-6 and neval > 0 and neval % 21 == 0
                assert record.getMessage().startswith(f"quadrature on [{lo:g}, {hi:g}]: abserr ")
            return [record.args[:2] for record in records]

        for n in (0, 2, 20, 40):
            # for all orders and weights together, over [ln eps, ln(r_max/r_+ - 1)]
            assert intervals_logged(lambda: rn_series(n, RN_REFERENCE)) == [
                (math.log(1e-8), math.log(5e5 / RN_REFERENCE.r_plus - 1.0))]
        # the Born body up to x0 = 100 and its tail, for all orders together
        born = PotentialSpec("inverse_r2", 1.0)
        assert intervals_logged(lambda: born_series(born, 4, 1.0, method="quadrature")) == [
            (0.0, 100.0), (0.0, math.inf)]
        assert intervals_logged(lambda: project_legendre_coefficient(exact_half_csc, 3)) == [(0.0, math.pi)]

    @pytest.mark.parametrize("q_over_m", [1e-4, 0.5, 0.99])
    def test_matches_per_order_quadpack(self, q_over_m):
        # independent of the l(l+1) A + B split: QUADPACK on each order's own weight
        p = RNParams(mass=10.0, charge=q_over_m * 10.0, eta=1e-4, mu=1e-6)
        reference = _per_order_rn_series(20, p)
        ours = rn_series(20, p).coefficients
        assert np.max(np.abs(ours - reference) / np.abs(reference)) < 1e-11

    def test_upper_cutoff_converges_like_one_over_r_max(self):
        # the tail beyond r_max falls like 1/r_max: the default 50/eta moves the coefficients by
        # 1.6e-3 against 1e4/eta, while 3e3/eta and 1e4/eta agree to 1.9e-5
        eta = RN_REFERENCE.eta
        near, far = (rn_series(8, RN_REFERENCE, r_max=r / eta).coefficients for r in (3e3, 1e4))
        assert np.max(np.abs(near - far) / np.abs(far)) < 1e-4

    def test_near_extremal_massive_field_needs_a_larger_horizon_epsilon(self):
        # README's near-extremal failure row. With mu > 0 the mass part of w0 grows like
        # 1/(r - r_+) at the horizon, so the integral depends on ln(eps) with a weight that
        # grows as Q/M -> 1: the default eps = 1e-8 meets roundoff, and the workaround eps = 1e-6
        # moves the coefficients by 7.2e-2 against 1e-7 (measured). With mu = 0 the default works.
        charge = 0.999999999999 * 10.0  # as compare --demo rn --QoverM 0.999999999999 forms it
        near = RNParams(mass=10.0, charge=charge, eta=1e-4, mu=1e-6)
        with pytest.raises(QuadratureConvergenceError, match="roundoff prevents the tolerance"):
            rn_series(3, near)
        coarse, fine = (rn_series(3, near, horizon_epsilon=eps).coefficients for eps in (1e-6, 1e-7))
        assert np.all(np.isfinite(coarse))
        assert np.max(np.abs(coarse - fine) / np.abs(fine)) > 1e-2
        massless = RNParams(mass=10.0, charge=charge, eta=1e-4, mu=0.0)
        assert np.all(np.isfinite(rn_series(3, massless).coefficients))

    def test_cutoffs_are_keyword_only(self):
        # keyword-only, so a stray positional flag cannot become a cutoff
        with pytest.raises(TypeError):
            rn_series(2, RN_REFERENCE, True)


class TestCrossSection:
    def test_values(self):
        assert cross_section(3 + 4j) == pytest.approx(25.0, rel=1e-15)
        assert cross_section(0.0) == 0.0
        assert cross_section(coulomb_exact(math.pi, 1.0)) == pytest.approx(0.25, rel=1e-12)
