"""Worked scattering series and their exact oracles.

Four families feed the rational resummation:

* the unit series (all coefficients 1), whose target is 1/(2 sin(theta/2));
* the Coulomb amplitude series, with a closed-form exact amplitude;
* first-order (Born) series for a 1/r^2 potential, again with a closed form;
* Reissner-Nordstrom partial waves from zeroth- and first-order phase
  shifts, where no closed form exists.

The closed forms take an angle or an array of them through the one angle guard,
``series._check_theta``, and reject theta = 0 and any angle where they overflow.
A wavenumber so small that the Coulomb or Born coefficients overflow, or a Born coupling
so large, raises a DomainError that names them; ``special._finite`` makes each such check.

Phase-shift quadratures use the numpy Gauss-Kronrod integrator of
``legpade.quadrature``. The Born integrands of all orders 0..N form one (nodes, orders)
block, so two quadratures give every Born shift up to N: the body of j_l^2,
and its tail as one integrand, the tail's mean plus its oscillating part on a
contour rotated into the upper half plane, where it decays like e^(-2t). A
single-order call integrates orders 0..l. The Reissner-Nordstrom zeroth-order shift
is a closed form (``rn_phase_shift``); the first-order integrands are linear in l(l+1),
so ``rn_series`` gets the first-order shifts of every order from one four-component
integral, in one quadrature over u = ln(r/r_+ - 1), where the log endpoint at the
horizon is smooth; weights that overflow raise a DomainError naming mass and mu.
Each quadrature calls the module global ``quad`` (``perfbench/tracer.py`` rebinds it),
which logs its interval, error estimate and integrand points at DEBUG on the
``legpade.quadrature`` logger and names the interval in its failure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .quadrature import quad
from .series import ComplexSeries, _check_theta
from .special import _BIG, _check_order, _finite, _hankel_envelopes, _in_range, log_gamma_complex
# spherical_bessel_j/_y are unused here; perfbench/tracer.py rebinds them on this module
from .special import spherical_bessel_j, spherical_bessel_jy_all, spherical_bessel_y  # noqa: F401

__all__ = [
    "PotentialSpec",
    "RNParams",
    "unit_series",
    "exact_half_csc",
    "coulomb_series",
    "coulomb_exact",
    "born_phase_shift",
    "born_series",
    "born_exact_invr2",
    "rn_phase_shift",
    "rn_series",
    "cross_section",
]

POTENTIAL_KINDS = ("inverse_r2",)
_SQRT_BIG = math.sqrt(_BIG)  # the largest float whose square is finite
_K_MIN = math.nextafter(1.0 / _BIG, 1.0)  # the least wavenumber whose 1/k is finite


def _check_coupling(alpha):
    return _in_range(alpha, -_BIG, _BIG, "coupling alpha must be a finite number, got {}", "coupling alpha")


@dataclass(frozen=True)
class PotentialSpec:
    """Central potential alpha/r^2 (kind 'inverse_r2'). The 1/r potential has no
    kind: its Born integral diverges logarithmically."""

    kind: str
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in POTENTIAL_KINDS:
            raise ValueError(f"kind must be one of {POTENTIAL_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "alpha", _check_coupling(self.alpha))


@dataclass(frozen=True)
class RNParams:
    """Reissner-Nordstrom configuration in geometric units (G = c = 1).

    mass M > 0, charge |Q| strictly below M (the extremal case makes the
    tortoise coordinate degenerate), wavenumber eta > 0 and particle mass
    mu >= 0. Horizon radii and the energy follow from these.
    """

    mass: float
    charge: float
    eta: float
    mu: float = 0.0
    r_plus: float = field(init=False)
    r_minus: float = field(init=False)
    omega: float = field(init=False)

    def __post_init__(self):
        # each field keeps the float its guard returns, so a numpy scalar computes and hashes as a float
        for name, lo, what in (("mass", math.ulp(0.0), "mass must be finite and positive"),
                               ("charge", -_BIG, "charge must be finite"),
                               ("eta", math.ulp(0.0), "wavenumber eta must be finite and positive"),
                               ("mu", 0.0, "particle mass mu must be finite and non-negative")):
            object.__setattr__(self, name, _in_range(getattr(self, name), lo, _BIG, what + ", got {}", name))
        _in_range(self.mass, 0.0, _SQRT_BIG, "mass = {} is too large: its square overflows")
        _in_range(self.mass, 1.0 / _SQRT_BIG, _BIG, "mass = {} is too small: its square underflows")
        _in_range(self.mu, 0.0, _SQRT_BIG, "particle mass mu = {} is too large: its square overflows")
        _in_range(abs(self.charge), 0.0, math.nextafter(self.mass, 0.0),
                  f"|Q| = {{}} must be strictly below M = {self.mass} (extremal configurations are rejected)")
        disc = math.sqrt(self.mass**2 - self.charge**2)
        object.__setattr__(self, "r_plus", self.mass + disc)
        object.__setattr__(self, "r_minus", self.mass - disc)
        object.__setattr__(self, "omega", math.hypot(self.eta, self.mu))


def unit_series(n: int) -> ComplexSeries:
    """Series with c_l = 1 for l = 0..n; partial sums of 1/(2 sin(theta/2))."""
    return ComplexSeries(np.ones(_check_order(n, "series order") + 1, dtype=complex))


def _check_wavenumber(k: float) -> float:
    return _in_range(k, _K_MIN, _BIG, "wavenumber must be positive and finite, got {} (1/k must be finite too)",
                     "wavenumber k")


def _closed_form(theta, amplitude: str, f):
    """f(sin(theta/2)) after the angle guard; DomainError names ``amplitude`` where it is not finite."""
    # |f| falls as theta grows, so the smallest angle is one where it is not finite
    return _finite(lambda: f(np.sin(0.5 * _check_theta(theta))),
                   lambda bad: f"{amplitude} is not finite at theta = {np.min(theta)}")


def exact_half_csc(theta):
    """1/(2 sin(theta/2)) on (0, pi], at an angle (a float) or an array of them."""
    return _closed_form(theta, "1/(2 sin(theta/2))", lambda s: 0.5 / s)


def _overflow_at(k: float, alpha: float | None = None) -> str:
    """_finite's message where partial-wave coefficients overflow: it names k, and alpha of a Born series."""
    coupling = "" if alpha is None else f" or the coupling alpha = {alpha} too large"
    return f"wavenumber k = {k} is too small{coupling}: the partial-wave coefficients overflow"


def _gamma_ratio(k: float) -> complex:
    """Gamma(1 + i/k) / Gamma(1 - i/k), the l = 0 Coulomb phase factor; DomainError names k
    where its phase overflows. Gamma(1 - i/k) is the conjugate of Gamma(1 + i/k), so the
    ratio is exp(2i Im log Gamma(1 + i/k))."""
    phase = _finite(lambda: 2.0 * log_gamma_complex(1 + 1j / k).imag, _overflow_at(k))
    return cmath.exp(complex(0.0, phase))


def coulomb_series(n: int, k: float) -> ComplexSeries:
    """Coulomb partial-wave coefficients c_l = (2l+1)/(2ik) * Gamma(l+1+i/k) / Gamma(l+1-i/k),
    the gamma ratio stepped up from l = 0 by (l+i/k)/(l-i/k): one log-gamma call for any n."""
    n, k = _check_order(n, "series order"), _check_wavenumber(k)
    ik = 1j / k
    l = np.arange(n + 1)

    def coefficients():
        ratios = np.cumprod(np.append(_gamma_ratio(k), (l[1:] + ik) / (l[1:] - ik)))
        return 1.0 / (2j * k) * (2 * l + 1) * ratios

    return ComplexSeries(_finite(coefficients, _overflow_at(k)))


def coulomb_exact(theta, k: float):
    """Closed-form Coulomb amplitude (attractive unit coupling) at an angle (a complex) or an array."""
    k = _check_wavenumber(k)
    ratio = _gamma_ratio(k)
    return _closed_form(theta, "the Coulomb amplitude",
                        lambda s: -1.0 / (2.0 * k * k * s * s) * ratio * np.exp(-2j / k * np.log(s)))


def _bessel_sq_moments(n: int) -> np.ndarray:
    """integrals of j_l(x)^2 over [0, inf) for l = 0..n, two quadratures.

    Every order shares each quadrature's panels. The body runs up to
    x0 = max(100, 3n), beyond the turning point of j_n. On the tail,
    j_l^2 = |u_l|^2 / 2 + Re(u_l^2 e^(2ix)) / 2 with u_l = h_l^(1) e^(-ix)
    (``special._hankel_envelopes``): the mean part decays like a power, and by
    Jordan's lemma the oscillatory part's integral is i e^(2i x0) times that of
    u_l(x0 + it)^2 e^(-2t) over t in [0, inf), a smooth, decaying integrand,
    so both parts are one integrand in t.
    """
    x0 = max(100.0, 3.0 * n)
    phase = 1j * np.exp(2j * x0)

    def body(x):
        j, _ = spherical_bessel_jy_all(n, x)
        return (j * j).T

    def tail(t):
        # one recurrence on the stacked points x0 + t and x0 + it
        u, rotated = np.split(_hankel_envelopes(n, np.concatenate([x0 + t, x0 + 1j * t])), 2, axis=1)
        return 0.5 * (np.abs(u) ** 2 + (phase * rotated**2).real * np.exp(-2.0 * t)).T

    body_value, _, _ = quad(body, 0.0, x0, epsabs=1e-14, epsrel=1e-12, limit=600)
    tail_value, _, _ = quad(tail, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
    return body_value + tail_value


def _born_shifts(potential: PotentialSpec, n: int, k: float, method: str) -> np.ndarray:
    """First-order shifts -alpha * integral of j_l^2, l = 0..n, after the argument checks; free of k, as its guard."""
    if method not in ("auto", "quadrature"):
        raise ValueError(f"method must be 'auto' or 'quadrature', got {method!r}")
    n = _check_order(n, "partial-wave order")
    _check_wavenumber(k)
    if potential.alpha == 0.0:
        return np.zeros(n + 1)
    moments = math.pi / (2.0 * (2 * np.arange(n + 1) + 1)) if method == "auto" else _bessel_sq_moments(n)
    return _finite(lambda: -potential.alpha * moments,
                   f"the coupling alpha = {potential.alpha} is too large: the Born phase shifts overflow")


def born_phase_shift(potential: PotentialSpec, l: int, k: float, method: str = "auto") -> float:
    """First-order phase shift -k * integral of j_l(kr)^2 V(r) r^2 dr.

    For the 1/r^2 potential the closed form -pi*alpha/(2(2l+1)) is the fast
    path ('auto'); method='quadrature' forces the adaptive integration, which
    must agree with the closed form and serves as its independent check. Its
    two quadratures integrate every order 0..l at once and return entry l,
    so build many orders with ``born_series``, not a loop over this.
    """
    return float(_born_shifts(potential, l, k, method)[-1])


def born_series(potential: PotentialSpec, n: int, k: float, method: str = "auto") -> ComplexSeries:
    """Partial-wave series c_l = (2l+1) * phase_shift_l / k, real-valued.

    With method='quadrature' two quadratures serve all orders 0..n (see
    ``born_phase_shift``).
    """
    shifts = _born_shifts(potential, n, k, method)
    return ComplexSeries(_finite(lambda: (2 * np.arange(shifts.size) + 1) / k * shifts,
                                 _overflow_at(k, potential.alpha)))


def born_exact_invr2(theta, alpha: float, k: float):
    """Closed-form first-order amplitude for V = alpha/r^2, at an angle (a float) or an array."""
    alpha, k = _check_coupling(alpha), _check_wavenumber(k)
    return _closed_form(theta, "the 1/r^2 Born amplitude", lambda s: -math.pi * alpha / (4.0 * k * s))


def _rn_radial(r, params: RNParams):
    """Tortoise coordinate, horizon factor (dr*/dr)^-1 and w0 at r > r_+ (float or array;
    the caller checks the domain): the weight (dr*/dr) * V_eff of order l is l(l+1)/r^2 + w0."""
    rp, rm = params.r_plus, params.r_minus
    rstar = r + rp * rp / (rp - rm) * np.log(r / rp - 1.0)
    if rm > 0.0:
        rstar -= rm * rm / (rp - rm) * np.log(r / rm - 1.0)
    inv = 1.0 / r
    horizon_factor = (1.0 - rp / r) * (1.0 - rm / r)
    mass_term = params.mu**2 * inv * (rp * rm * inv - (rp + rm))
    w0 = inv**3 * ((rp + rm) - 2.0 * rp * rm * inv) + mass_term / horizon_factor
    return rstar, horizon_factor, w0


def rn_phase_shift(l: int, params: RNParams) -> float:
    """Zeroth-order scattering phase shift, the closed form l*pi/2 + M*eta*(1 - 2 ln 2) +
    2*M*eta*ln(sqrt(M^2-Q^2)/M). The first-order shifts come from ``rn_series``."""
    l = _check_order(l, "partial-wave order")
    mm, q, eta = params.mass, params.charge, params.eta
    return (
        l * math.pi / 2.0
        + mm * eta
        - 2.0 * mm * eta * math.log(2.0)
        + 2.0 * mm * eta * math.log(math.sqrt(mm * mm - q * q) / mm)
    )


def rn_series(
    n: int,
    params: RNParams,
    *,
    horizon_epsilon: float = 1e-8,
    r_max: float | None = None,
) -> ComplexSeries:
    """Partial-wave series c_l = (2l+1)/(2i omega) * exp(2i delta_l) terms.

    delta_l is the zeroth-order shift (``rn_phase_shift``) plus the first-order one. For
    each oscillator, sin^2(eta r*) and sin(2 eta r*), the first-order integral against
    l(l+1)/r^2 + w0 is l(l+1) A + B, with A against 1/r^2 and B against w0, so one
    four-component integral serves every order, one quadrature over u = ln(r/r_+ - 1)
    from ln(horizon_epsilon) to ln(r_max/r_+ - 1); r_max defaults to 50/eta, several
    oscillation wavelengths. The lower cutoff r_+(1 + horizon_epsilon) must be finite
    and beyond r_+, and r_max beyond it, with r_max^2 finite, else a DomainError names
    the cutoff at fault, and eta where r_max is the default.

    The l*pi/2 part of the zeroth-order shift only contributes a factor
    (-1)^l to the exponential, which mirrors the amplitude through
    theta -> pi - theta; the series is built in the orientation with the
    forward divergence at theta = 0, matching the reference cross-section
    data, so every order takes the zeroth-order shift of l = 0.
    """
    ls = np.arange(_check_order(n, "series order") + 1)
    rp, rm, eta = params.r_plus, params.r_minus, params.eta
    cutoff = "horizon_epsilon = {} must put the lower cutoff r_+(1 + horizon_epsilon) at a finite r beyond r_+"
    horizon_epsilon = _in_range(horizon_epsilon, -math.inf, math.inf, cutoff, "horizon_epsilon")
    lower = rp * (1.0 + horizon_epsilon)
    if not rp < lower < math.inf:
        raise DomainError(cutoff.format(horizon_epsilon))
    beyond = ("r_max = {} must be finite, with a finite square, and lie beyond the lower quadrature cutoff "
              f"r_+(1 + horizon_epsilon) = {lower}, horizon_epsilon = {horizon_epsilon}")
    if r_max is None:  # the caller gave none, so the message names the eta that set the default
        r_max = 50.0 / eta
        beyond = f"the default r_max = 50/eta at eta = {eta} is out of range, give r_max (--rn-rmax): {beyond}"
    r_max = _in_range(r_max, math.nextafter(lower, math.inf), _SQRT_BIG, beyond, "r_max")
    overflow = f"mass = {params.mass} and particle mass mu = {params.mu} make the first-order weights overflow"

    def block(u):
        # (nodes, 4) at r = r_+(1 + e^u), times dr/du = r_+ e^u: sin^2(eta r*)
        # against 1/r^2 and w0, then sin(2 eta r*) against both
        e = np.exp(u)
        r = rp * (1.0 + e)
        rstar, _, w0 = _rn_radial(r, params)
        sin2, sin2e, inv2 = np.sin(eta * rstar) ** 2, np.sin(2.0 * eta * rstar), 1.0 / (r * r)
        return np.stack([sin2 * inv2, sin2 * w0, sin2e * inv2, sin2e * w0], axis=1) * (rp * e)[:, None]

    (a_sin2, b_sin2, a_sin2e, b_sin2e), _, _ = quad(
        lambda u: _finite(lambda: block(u), overflow), math.log(horizon_epsilon), math.log(r_max / rp - 1.0),
        epsabs=1e-13, epsrel=1e-9, limit=1500)
    ll = ls * (ls + 1.0)
    i_sin2, i_sin2e = ll * a_sin2 + b_sin2, ll * a_sin2e + b_sin2e
    phase = -np.arctan((i_sin2 / eta) / (1.0 + i_sin2e / eta))
    delta = rn_phase_shift(0, params) + (phase + (rp + rm) * eta * math.log((rp - rm) / (rp + rm)))
    return ComplexSeries((2 * ls + 1) / (2j * params.omega) * np.exp(2j * delta))


def cross_section(f):
    """Differential cross section, the squared modulus of the amplitude (or of each in an array).
    Raises DomainError where |f|^2 overflows (or f is not finite), for a scalar and an array alike."""
    return _finite(lambda: np.abs(f) ** 2,
                   lambda bad: f"the cross section |f|^2 overflows: largest |f| = {np.max(np.abs(f)):.3e}")
