import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

import legpade.scattering as scattering
from legpade.errors import QuadratureConvergenceError
from legpade.quadrature import GAUSS_WEIGHTS, KRONROD_WEIGHTS, NODES, quad
from legpade.scattering import RNParams, rn_series

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

    @pytest.mark.parametrize("weight", ["cos", "sin"])
    def test_fourier_tail_against_mpmath(self, weight):
        mp.mp.dps = 30
        trig = mp.cos if weight == "cos" else mp.sin
        exact = float(mp.quadosc(lambda x: trig(2 * x) / x**2, [1, mp.inf], omega=2))
        value, abserr, _ = quad(lambda x: 1.0 / x**2, 1.0, np.inf, weight=weight, wvar=2.0,
                                epsabs=1e-13, epsrel=1e-12, limit=400, limlst=200)
        assert abs(value - exact) <= abserr < 1e-12

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

    def test_fourier_head_held_to_whole_integral_target(self):
        # the head [0.125, z0] is ~2.2 and the tail cancels it to ~0.99, so the head's
        # error at epsrel of its own value (~1.8e-10) alone exceeds the 9.9e-11 target
        mp.mp.dps = 30
        exact = float(mp.quadosc(lambda x: (x + 0.5) ** -0.5 * mp.cos(0.3125 * x), [0.125, mp.inf],
                                 omega=0.3125))
        value, abserr, _ = quad(lambda x: (x + 0.5) ** -0.5, 0.125, np.inf, weight="cos", wvar=0.3125,
                                epsabs=1e-12, epsrel=1e-10, limit=400, limlst=200)
        assert abs(value - exact) <= abserr <= 1e-10 * abs(exact)

    def test_unsettled_cycles_raise(self):
        with pytest.raises(QuadratureConvergenceError, match="within 3 half-period cycles"):
            quad(lambda x: 1.0 / np.sqrt(x), 1.0, np.inf, weight="cos", wvar=1.0,
                 epsabs=1e-13, epsrel=1e-12, limlst=3)

    def test_unsupported_limits_rejected(self):
        with pytest.raises(ValueError):
            quad(np.exp, -np.inf, 0.0)
        with pytest.raises(ValueError):
            quad(np.exp, 0.0, 1.0, weight="cos", wvar=1.0)


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
def test_finite_result_within_own_error_of_mpmath(amplitude, sign, growth, frequency, phase, lo, width, epsrel):
    # Re of A e^{i phase} e^{z lo} (e^{z width} - 1) / z with z = growth + i frequency
    mp.mp.dps = 40
    z = mp.mpc(growth, frequency)
    area = mp.exp(z * lo) * (mp.expm1(z * width) / z if z != 0 else width)
    exact = float(mp.re(sign * amplitude * mp.expj(phase) * area))
    try:
        value, abserr, _ = quad(
            lambda x: sign * amplitude * np.exp(growth * x) * np.cos(frequency * x + phase),
            lo, lo + width, epsabs=1e-12, epsrel=epsrel, limit=400,
        )
    except QuadratureConvergenceError as exc:
        # allowed only for a tolerance within 10x of QUADPACK's error floor 50 eps integral |f|
        assert "roundoff" in str(exc)
        # integral |f| piecewise between the zeros of the cosine
        first, last = (math.ceil((frequency * x + phase) / math.pi - 0.5) for x in (lo, lo + width))
        zeros = [((k + 0.5) * math.pi - phase) / frequency for k in range(first, last)] if frequency else []
        cuts = [lo, *zeros, lo + width]
        with mp.workdps(15):
            abs_area = mp.quad(lambda x: amplitude * mp.exp(growth * x) * abs(mp.cos(frequency * x + phase)), cuts)
        assert max(1e-12, epsrel * abs(exact)) <= 10.0 * 50.0 * np.finfo(float).eps * float(abs_area)
        return
    assert abs(value - exact) <= abserr


@settings(max_examples=10, deadline=None)
@given(
    start=st.floats(0.0, 5.0),
    shift=st.floats(0.5, 3.0),
    power=st.floats(0.5, 3.0),
    omega=st.floats(0.3, 5.0),
    weight=st.sampled_from(["cos", "sin"]),
)
@example(start=0.125, shift=0.5, power=0.5, omega=0.3125, weight="cos")
def test_fourier_result_within_own_error_of_mpmath(start, shift, power, omega, weight):
    mp.mp.dps = 20
    trig = mp.cos if weight == "cos" else mp.sin
    value, abserr, _ = quad(lambda x: (x + shift) ** -power, start, np.inf, weight=weight, wvar=omega,
                            epsabs=1e-12, epsrel=1e-10, limit=400, limlst=200)
    exact = mp.quadosc(lambda x: (x + shift) ** -power * trig(omega * x), [start, mp.inf], omega=omega)
    assert abs(value - float(exact)) <= abserr


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


@settings(max_examples=6, deadline=None)
@given(
    start=st.floats(0.0, 5.0),
    tails=st.lists(st.tuples(st.floats(0.5, 3.0), st.floats(0.5, 3.0)), min_size=1, max_size=3),
    omega=st.floats(0.3, 5.0),
    weight=st.sampled_from(["cos", "sin"]),
)
@example(start=0.125, tails=[(0.5, 0.5), (2.0, 1.5)], omega=0.3125, weight="cos")
def test_stacked_fourier_components_within_own_error_of_mpmath(start, tails, omega, weight):
    # component i is (x + shift_i)^-power_i
    shift, power = (np.array(c) for c in zip(*tails))
    value, abserr, _ = quad(lambda x: (x[:, None] + shift) ** -power, start, np.inf, weight=weight,
                            wvar=omega, epsabs=1e-12, epsrel=1e-10, limit=400, limlst=200)
    mp.mp.dps = 20
    trig = mp.cos if weight == "cos" else mp.sin
    for got, (c, p) in zip(value, tails):
        exact = mp.quadosc(lambda x: (x + c) ** -p * trig(omega * x), [start, mp.inf], omega=omega)
        assert abs(got - float(exact)) <= abserr


@pytest.mark.parametrize("limits, kwargs", [
    ((0.0, 3.0), {}),
    ((0.0, np.inf), {}),
    ((1.0, np.inf), {"weight": "sin", "wvar": 2.0, "limlst": 200}),
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
