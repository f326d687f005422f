import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

import legpade.scattering as scattering
from legpade.errors import QuadratureConvergenceError
from legpade.quadrature import GAUSS_WEIGHTS, KRONROD_WEIGHTS, NODES, quad
from legpade.scattering import PotentialSpec, RNParams, born_series, rn_series

mp = pytest.importorskip("mpmath")


class TestRule:
    def test_gauss_part_is_leggauss_10(self):
        x, w = leggauss(10)
        gauss = GAUSS_WEIGHTS != 0.0
        order = np.argsort(NODES[gauss])
        assert np.allclose(NODES[gauss][order], x, rtol=0, atol=1e-15)
        assert np.allclose(GAUSS_WEIGHTS[gauss][order], w, rtol=0, atol=1e-15)

    def test_kronrod_exact_to_degree_31(self):
        for degree in range(32):
            exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
            assert KRONROD_WEIGHTS @ NODES**degree == pytest.approx(exact, rel=0, abs=2e-15)
        # degree 32 is the first the rule misses
        assert abs(KRONROD_WEIGHTS @ NODES**32 - 2.0 / 33) > 1e-12


class TestIntegrals:
    def test_exponential_on_half_line(self):
        value, abserr, neval = quad(lambda x: np.exp(-x), 0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
        assert value == pytest.approx(1.0, rel=1e-13)
        assert abserr < 1e-12
        assert neval % 21 == 0

    def test_divergent_integral_raises(self):
        with pytest.raises(QuadratureConvergenceError, match="subdivision limit of 400"):
            quad(lambda x: 1.0 / x, 1.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)

    def test_exhausted_budget_raises(self):
        with pytest.raises(QuadratureConvergenceError, match="subdivision limit of 2"):
            quad(lambda x: np.cos(200.0 * x), 0.0, 10.0, limit=2)

    def test_roundoff_raises_early(self):
        # the integral cancels to ~1e-16, so epsrel=1e-12 lies under the 50 eps floor
        # of every panel; without roundoff detection all 400 intervals are spent
        calls = []

        def f(x):
            calls.append(x.size)
            return np.cos(x)

        with pytest.raises(QuadratureConvergenceError, match="roundoff"):
            quad(f, 0.0, 2 * np.pi, epsabs=0.0, epsrel=1e-12, limit=400)
        assert len(calls) < 40

    def test_non_finite_integrand_raises(self):
        # quad silences numpy's warnings (errors under pytest's filter) and each panel checks its
        # rule sums instead: "invalid value" from the matmul on an inf, and "overflow" from
        # finite values whose rule sum overflows, in a one-component or a two-component block
        for f in (lambda x: np.full(x.shape, np.nan),
                  lambda x: np.where(x > 0.9, np.inf, 1.0),
                  lambda x: np.full(x.shape, 1e308),
                  lambda x: np.stack([np.ones_like(x), np.full(x.shape, 1e308)], axis=1)):
            with pytest.raises(QuadratureConvergenceError, match=r"non-finite integrand on \[0, 1\]"):
                quad(f, 0.0, 1.0)

    def test_interval_too_short_to_bisect_raises(self):
        # the step's panel keeps the largest error down to a few ulps of 1/3; no tolerance is reachable
        with pytest.raises(QuadratureConvergenceError, match=r"interval \[0\.3333333333333\d*, "
                                                             r"0\.3333333333333\d*\] too short to bisect"):
            quad(lambda x: np.sign(x - 1.0 / 3.0), 0.0, 1.0, epsabs=0.0, epsrel=0.0, limit=200)

    def test_unsupported_limits_rejected(self):
        with pytest.raises(ValueError):
            quad(np.exp, -np.inf, 0.0)
        with pytest.raises(ValueError):
            quad(np.exp, 0.0, np.nan)
        # b - a overflows: the half-width is inf and the centre node NaN
        with pytest.raises(ValueError, match=r"\[-1e\+308, 1e\+308\]"):
            quad(lambda x: np.exp(-x * x), -1e308, 1e308)
        # a + b overflows: every node is inf, where 1/x integrates to 0, not ln 1.5
        with pytest.raises(ValueError, match=r"\[1e\+308, 1\.5e\+308\]"):
            quad(lambda x: 1.0 / x, 1e308, 1.5e308)


@settings(max_examples=60, deadline=None)
@given(
    amplitude=st.floats(0.1, 2.0),
    sign=st.sampled_from([-1.0, 1.0]),
    growth=st.floats(-3.0, 3.0),
    frequency=st.floats(0.0, 30.0),
    phase=st.floats(0.0, 2 * math.pi),
    lo=st.floats(-2.0, 2.0),
    width=st.floats(0.1, 5.0),
    epsrel=st.sampled_from([1e-6, 1e-10, 1e-12]),
)
# the integral, -14.8, cancels against integral |f| = 2.2e3: its tolerance 1.5e-11 lies
# below QUADPACK's floor 50 eps integral |f| = 2.4e-11, so quad raises on roundoff
@example(amplitude=1.0, sign=-1.0, growth=2.0, frequency=12.875, phase=5.875, lo=-0.1953125,
         width=4.609375, epsrel=1e-12)
# in float, rounding the cosine's argument (near 35) added 2.0e-16 to this draw's error and took
# it past the floor 50 eps integral |f| = 4.4e-16
@example(amplitude=1.0, sign=-1.0, growth=0.0, frequency=16.75, phase=1.991264039380761,
         lo=1.984375, width=0.1, epsrel=1e-06)
def test_finite_result_within_own_error_of_mpmath(amplitude, sign, growth, frequency, phase, lo, width, epsrel):
    # Re of A e^{i phase} e^{z lo} (e^{z (hi - lo)} - 1) / z with z = growth + i frequency, on the
    # interval [lo, hi] that quad is given; the integrand is evaluated by mpmath at each node quad
    # passes, so quad sees the function the oracle integrates up to one rounding of each value
    hi = lo + width
    mp.mp.dps = 40
    z = mp.mpc(growth, frequency)
    area = mp.exp(z * lo) * (mp.expm1(z * (mp.mpf(hi) - lo)) / z if z != 0 else mp.mpf(hi) - lo)
    exact = float(mp.re(sign * amplitude * mp.expj(phase) * area))

    def f(x):
        values = [sign * amplitude * mp.exp(growth * t) * mp.cos(frequency * t + phase) for t in map(mp.mpf, x)]
        return np.array(values, dtype=float)

    try:
        value, abserr, _ = quad(f, lo, hi, epsabs=1e-12, epsrel=epsrel, limit=400)
    except QuadratureConvergenceError as exc:
        # allowed only for a tolerance within 10x of QUADPACK's error floor 50 eps integral |f|
        assert "roundoff" in str(exc)
        # integral |f| piecewise between the zeros of the cosine
        first, last = (math.ceil((frequency * x + phase) / math.pi - 0.5) for x in (lo, hi))
        zeros = [((k + 0.5) * math.pi - phase) / frequency for k in range(first, last)] if frequency else []
        cuts = [lo, *zeros, hi]
        with mp.workdps(15):
            abs_area = mp.quad(lambda x: amplitude * mp.exp(growth * x) * abs(mp.cos(frequency * x + phase)), cuts)
        assert max(1e-12, epsrel * abs(exact)) <= 10.0 * 50.0 * np.finfo(float).eps * float(abs_area)
        return
    assert abs(value - exact) <= abserr


def _exp_cos_exact(amplitude, growth, frequency, phase, lo, width):
    # Re of A e^{i phase} e^{z lo} (e^{z width} - 1) / z with z = growth + i frequency
    mp.mp.dps = 40
    z = mp.mpc(growth, frequency)
    area = mp.exp(z * lo) * (mp.expm1(z * width) / z if z != 0 else width)
    return float(mp.re(amplitude * mp.expj(phase) * area))


# (A, B, C, D) over the ranges of test_finite_result_within_own_error_of_mpmath
_EXP_COS = st.tuples(st.floats(0.1, 2.0) | st.floats(-2.0, -0.1), st.floats(-3.0, 3.0),
                     st.floats(0.0, 30.0), st.floats(0.0, 2 * math.pi))


@settings(max_examples=40, deadline=None)
@given(
    components=st.lists(_EXP_COS, min_size=1, max_size=5),
    lo=st.floats(-2.0, 2.0),
    width=st.floats(0.1, 5.0),
    epsrel=st.sampled_from([1e-6, 1e-10, 1e-12]),
)
def test_stacked_finite_components_within_own_error_of_mpmath(components, lo, width, epsrel):
    amplitude, growth, frequency, phase = (np.array(c) for c in zip(*components))

    def f(x):
        x = x[:, None]
        return amplitude * np.exp(growth * x) * np.cos(frequency * x + phase)

    exact = [_exp_cos_exact(*c, lo, width) for c in components]
    # only tolerances above QUADPACK's error floor, 50 eps * integral |f| of the largest
    # component; below it quad raises on roundoff, as test_roundoff_raises_early shows
    x = np.linspace(lo, lo + width, 20001)
    floor = 50.0 * np.finfo(float).eps * np.max(np.abs(f(x)).sum(axis=0)) * width / 20000
    assume(max(1e-12, epsrel * max(map(abs, exact))) > 10.0 * floor)
    value, abserr, _ = quad(f, lo, lo + width, epsabs=1e-12, epsrel=epsrel, limit=400)
    assert value.shape == (len(components),)
    for got, want in zip(value, exact):
        assert abs(got - want) <= abserr


@pytest.mark.parametrize("limits, kwargs", [
    ((0.0, 3.0), {}),
    ((0.0, np.inf), {}),
    ((1.0, np.inf), {}),
])
def test_one_component_block_matches_scalar_integrand(limits, kwargs):
    def f(x):
        return np.exp(-0.5 * x) / (1.0 + x * x)

    scalar = quad(f, *limits, epsabs=1e-13, epsrel=1e-12, limit=400, **kwargs)
    block = quad(lambda x: f(x)[:, None], *limits, epsabs=1e-13, epsrel=1e-12, limit=400, **kwargs)
    assert isinstance(scalar[0], float)
    assert block[0].shape == (1,)
    assert (block[0][0], *block[1:]) == scalar


def _scipy_quad(f, a, b, **kwargs):
    """scipy's QUADPACK on the same (nodes, m) block integrand: one point per call and
    one integral per column, each held to the tolerance on its own."""
    from scipy.integrate import quad as scipy_quad

    def column(i):
        return lambda x: float(f(np.array([x]))[0, i])

    m = f(np.array([a])).shape[1]
    value, abserr = zip(*(scipy_quad(column(i), a, b, **kwargs) for i in range(m)))
    return np.array(value), max(abserr), 0


@pytest.mark.parametrize("q_over_m", [1e-4, 0.5, 0.99])
def test_rn_series_matches_scipy_quadpack(monkeypatch, q_over_m):
    params = RNParams(mass=10.0, charge=q_over_m * 10.0, eta=1e-4, mu=1e-6)
    ours = rn_series(20, params).coefficients
    monkeypatch.setattr(scattering, "quad", _scipy_quad)
    reference = rn_series(20, params).coefficients
    assert np.max(np.abs(ours - reference) / np.abs(reference)) < 1e-12


@pytest.mark.parametrize("n", [8, 20])
def test_born_series_matches_scipy_quadpack(monkeypatch, n):
    # the body, the mean tail and the rotated tail, each column by QUADPACK on its own
    pot = PotentialSpec("inverse_r2", 1.0)
    ours = born_series(pot, n, 1.0, method="quadrature").coefficients
    monkeypatch.setattr(scattering, "quad", _scipy_quad)
    reference = born_series(pot, n, 1.0, method="quadrature").coefficients
    assert np.max(np.abs(ours - reference) / np.abs(reference)) <= 1e-12
