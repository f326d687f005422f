"""A test-side oracle for the Reissner-Nordstrom first-order integrals carried to infinity.

``rn_series`` cuts the first-order integrals at r_max (default 50/eta). Here, for mu = 0,
they run to infinity: the body up to R is the library's quadrature in u = ln(r/r_+ - 1);
beyond R, sin^2(eta r*) = (1 - cos 2 eta r*) / 2 splits into a mean part, integrated on
[R, inf), and e^(2i eta r*), integrated on the contour r = R + it, where it decays like
e^(-2 eta t). ``scattering._rn_radial`` takes the complex r unchanged. The bounds below
come from one measurement at mass 10, eta 1e-4, N = 8 (the figures in the comments).
"""

import math

import numpy as np
import pytest

from legpade.quadrature import quad
from legpade.scattering import RNParams, _rn_radial, rn_phase_shift, rn_series

N = 8
EPSILON = 1e-8  # the library's default lower cutoff r_+(1 + 1e-8)


def _integrals_to_infinity(p, R):
    """(A, B) against sin^2(eta r*) and against sin(2 eta r*), A over 1/r^2 and B over w0,
    on [r_+(1 + EPSILON), inf), split at R."""
    rp, eta = p.r_plus, p.eta

    def body(u):
        e = np.exp(u)
        r = rp * (1.0 + e)
        rstar, _, w0 = _rn_radial(r, p)
        f = np.stack([1.0 / (r * r), w0], axis=1) * (rp * e)[:, None]
        return np.concatenate([np.sin(eta * rstar)[:, None] ** 2 * f, np.sin(2.0 * eta * rstar)[:, None] * f], axis=1)

    def tail(s):
        # r = R + s/eta on the real axis for the mean part, r = R + i s/eta for e^(2i eta r*)
        r = R + s / eta
        mean = np.stack([1.0 / (r * r), _rn_radial(r, p)[2]], axis=1) / eta
        z = R + 1j * s / eta
        rstar, _, w0 = _rn_radial(z, p)
        osc = np.exp(2j * eta * rstar)[:, None] * np.stack([1.0 / (z * z), w0], axis=1) * (1j / eta)
        return np.concatenate([mean, osc.real, osc.imag], axis=1)

    inner, _, _ = quad(body, math.log(EPSILON), math.log(R / rp - 1.0), epsabs=1e-13, epsrel=1e-9, limit=1500)
    outer, _, _ = quad(tail, 0.0, math.inf, epsabs=1e-15, epsrel=1e-12, limit=400)
    mean, cos2, sin2 = outer[:2], outer[2:4], outer[4:]
    return inner[:2] + 0.5 * (mean - cos2), inner[2:] + sin2


def _series_to_infinity(p, R):
    """rn_series(N, p) coefficients with the first-order integrals carried to infinity."""
    (a_sin2, b_sin2), (a_sin2e, b_sin2e) = _integrals_to_infinity(p, R)
    rp, rm, eta = p.r_plus, p.r_minus, p.eta
    l = np.arange(N + 1)
    ll = l * (l + 1.0)
    first = -np.arctan(((ll * a_sin2 + b_sin2) / eta) / (1.0 + (ll * a_sin2e + b_sin2e) / eta))
    delta = rn_phase_shift(0, p) + first + (rp + rm) * eta * math.log((rp - rm) / (rp + rm))
    return (2 * l + 1) / (2j * p.omega) * np.exp(2j * delta)


def _max_relative(x, y):
    return np.max(np.abs(x - y) / np.abs(y))


# the max-relative change of the default cutoff's coefficients from the integrals to infinity,
# measured at Q/M = 1e-4, 0.5 and 0.99
DEFAULT_CUTOFF_ERROR = {1e-4: 1.645e-3, 0.5: 1.632e-3, 0.99: 2.018e-3}


@pytest.mark.parametrize("q_over_m", sorted(DEFAULT_CUTOFF_ERROR))
def test_first_order_integrals_to_infinity(q_over_m):
    p = RNParams(mass=10.0, charge=q_over_m * 10.0, eta=1e-4, mu=0.0)
    exact = _series_to_infinity(p, 50.0 / p.eta)
    # the split point does not matter: 50/eta and 200/eta agree to 0.97e-16 - 1.6e-16
    assert _max_relative(_series_to_infinity(p, 200.0 / p.eta), exact) < 1e-15
    # the cut integrals fall like 1/r_max; their 1/r_max extrapolation from 3e3/eta and 1e4/eta
    # agrees to 1.47e-9 - 1.93e-9, that extrapolation's own error
    near, far = (rn_series(N, p, r_max=r / p.eta).coefficients for r in (3e3, 1e4))
    assert _max_relative((1e4 * far - 3e3 * near) / (1e4 - 3e3), exact) < 5e-9
    # the default cutoff's error, bounded on both sides so that any change to it shows
    default = rn_series(N, p).coefficients
    assert _max_relative(default, exact) == pytest.approx(DEFAULT_CUTOFF_ERROR[q_over_m], rel=0.01)
