"""Worked scattering series and their exact oracles.

Four families feed the rational resummation:

* the unit series (all coefficients 1), whose target is 1/(2 sin(theta/2));
* the Coulomb amplitude series, with a closed-form exact amplitude;
* first-order (Born) series for a 1/r^2 potential, again with a closed form;
* Reissner-Nordstrom partial waves from zeroth- and first-order phase
  shifts, where no closed form exists.

Phase-shift quadratures use the adaptive Gauss-Kronrod integrator from
scipy; the improper integrals are split at documented breakpoints and the
near-horizon log endpoint is tamed with a logarithmic substitution.
``scipy.integrate`` is imported on the first quadrature call, so the
closed-form series, the oracles and every caller that never integrates
load numpy only.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, QuadratureConvergenceError
from .series import ComplexSeries
from .special import log_gamma_complex, spherical_bessel_j, spherical_bessel_y

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
    "rn_tortoise",
    "rn_drstar_dr",
    "rn_effective_potential",
    "rn_phase_shift",
    "rn_series",
    "cross_section",
]

POTENTIAL_KINDS = ("inverse_r", "inverse_r2")


@dataclass(frozen=True)
class PotentialSpec:
    """Central potential alpha/r (kind 'inverse_r') or alpha/r^2 ('inverse_r2')."""

    kind: str
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in POTENTIAL_KINDS:
            raise ValueError(f"kind must be one of {POTENTIAL_KINDS}, got {self.kind!r}")
        if not math.isfinite(self.alpha):
            raise ValueError("coupling must be finite")


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
        if self.mass <= 0.0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if abs(self.charge) >= self.mass:
            raise ValueError(
                f"|Q| = {abs(self.charge)} must be strictly below M = {self.mass} "
                "(extremal configurations are rejected)"
            )
        if self.eta <= 0.0:
            raise ValueError(f"wavenumber eta must be positive, got {self.eta}")
        if self.mu < 0.0:
            raise ValueError(f"particle mass mu must be non-negative, got {self.mu}")
        disc = math.sqrt(self.mass**2 - self.charge**2)
        object.__setattr__(self, "r_plus", self.mass + disc)
        object.__setattr__(self, "r_minus", self.mass - disc)
        object.__setattr__(self, "omega", math.hypot(self.eta, self.mu))


def unit_series(n: int) -> ComplexSeries:
    """Series with c_l = 1 for l = 0..n; partial sums of 1/(2 sin(theta/2))."""
    if n < 0:
        raise DomainError(f"order must be non-negative, got {n}")
    return ComplexSeries(np.ones(n + 1, dtype=complex))


def exact_half_csc(theta: float) -> float:
    """1/(2 sin(theta/2)) on (0, pi]; diverges in the forward direction."""
    theta = float(theta)
    if theta == 0.0:
        raise DomainError("1/(2 sin(theta/2)) diverges at theta = 0")
    if not 0.0 < theta <= math.pi:
        raise DomainError(f"theta = {theta} outside (0, pi]")
    return 0.5 / math.sin(0.5 * theta)


def coulomb_series(n: int, k: float) -> ComplexSeries:
    """Coulomb partial-wave coefficients c_l = (2l+1)/(2ik) * ratio of
    conjugate gamma values at l+1 +- i/k."""
    if n < 0:
        raise DomainError(f"order must be non-negative, got {n}")
    if k <= 0.0:
        raise DomainError(f"wavenumber must be positive, got {k}")
    ik = 1j / k
    pref = 1.0 / (2j * k)
    c = [
        pref
        * (2 * l + 1)
        * cmath.exp(log_gamma_complex(l + 1 + ik) - log_gamma_complex(l + 1 - ik))
        for l in range(n + 1)
    ]
    return ComplexSeries(np.array(c))


def coulomb_exact(theta: float, k: float) -> complex:
    """Closed-form Coulomb scattering amplitude (attractive unit coupling)."""
    theta = float(theta)
    if theta == 0.0:
        raise DomainError("the Coulomb amplitude diverges at theta = 0")
    if not 0.0 < theta <= math.pi:
        raise DomainError(f"theta = {theta} outside (0, pi]")
    if k <= 0.0:
        raise DomainError(f"wavenumber must be positive, got {k}")
    s = math.sin(0.5 * theta)
    ik = 1j / k
    ratio = cmath.exp(log_gamma_complex(1 + ik) - log_gamma_complex(1 - ik))
    return -1.0 / (2.0 * k * k * s * s) * ratio * cmath.exp(-2j / k * math.log(s))


def _tail_start(l: int) -> float:
    # asymptotic split point: safely beyond the turning point of j_l
    return max(100.0, 3.0 * l)


def quad(f, a, b, **kwargs):
    """``scipy.integrate.quad``, imported on first use (it dominates start-up)."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(f, a, b, **kwargs)


def _checked_quad(f, a, b, *, epsabs, epsrel, limit=400, **kwargs):
    from scipy.integrate import IntegrationWarning

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IntegrationWarning)
        value, abserr = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, **kwargs)
    for w in caught:
        if issubclass(w.category, IntegrationWarning):
            raise QuadratureConvergenceError(
                f"quadrature on [{a:g}, {b:g}] did not converge: {w.message}"
            )
    return value, abserr


def _bessel_sq_moment(l: int, power: int) -> float:
    """integral of j_l(x)^2 * x^power over [0, inf).

    Body integrated directly; on the tail, j_l = A sin + B cos with rational
    A, B (recovered through y_l), so the mean part decays like a power and
    the rest is a clean Fourier integral handled by weighted quadrature.
    """
    x0 = _tail_start(l)
    body, _ = _checked_quad(
        lambda x: spherical_bessel_j(l, x) ** 2 * x**power, 0.0, x0,
        epsabs=1e-14, epsrel=1e-12, limit=600,
    )

    def mean(x):
        return 0.5 * (spherical_bessel_j(l, x) ** 2 + spherical_bessel_y(l, x) ** 2) * x**power

    def cos_part(x):
        a = spherical_bessel_j(l, x) * math.sin(x) - spherical_bessel_y(l, x) * math.cos(x)
        b = spherical_bessel_j(l, x) * math.cos(x) + spherical_bessel_y(l, x) * math.sin(x)
        return 0.5 * (b * b - a * a) * x**power

    def sin_part(x):
        a = spherical_bessel_j(l, x) * math.sin(x) - spherical_bessel_y(l, x) * math.cos(x)
        b = spherical_bessel_j(l, x) * math.cos(x) + spherical_bessel_y(l, x) * math.sin(x)
        return a * b * x**power

    tail_mean, _ = _checked_quad(mean, x0, np.inf, epsabs=1e-13, epsrel=1e-12)
    tail_cos, _ = _checked_quad(
        cos_part, x0, np.inf, weight="cos", wvar=2.0, epsabs=1e-13, epsrel=1e-12, limlst=200
    )
    tail_sin, _ = _checked_quad(
        sin_part, x0, np.inf, weight="sin", wvar=2.0, epsabs=1e-13, epsrel=1e-12, limlst=200
    )
    return body + tail_mean + tail_cos + tail_sin


def born_phase_shift(potential: PotentialSpec, l: int, k: float, method: str = "auto") -> float:
    """First-order phase shift -k * integral of j_l(kr)^2 V(r) r^2 dr.

    For the 1/r^2 potential the closed form -pi*alpha/(2(2l+1)) is the fast
    path ('auto'); method='quadrature' forces the adaptive integration, which
    must agree with the closed form and serves as its independent check. The
    1/r potential has a logarithmically divergent Born integral, reported as
    a quadrature convergence failure.
    """
    if method not in ("auto", "quadrature"):
        raise ValueError(f"method must be 'auto' or 'quadrature', got {method!r}")
    if l < 0:
        raise DomainError(f"order must be non-negative, got {l}")
    if k <= 0.0:
        raise DomainError(f"wavenumber must be positive, got {k}")
    if potential.alpha == 0.0:
        return 0.0
    if potential.kind == "inverse_r2":
        if method == "auto":
            return -math.pi * potential.alpha / (2.0 * (2 * l + 1))
        return -potential.alpha * _bessel_sq_moment(l, 0)
    # inverse_r: r^2 V = alpha * r, moment power 1 (divergent; quadrature reports it)
    return -(potential.alpha / k) * _bessel_sq_moment(l, 1)


def born_series(potential: PotentialSpec, n: int, k: float, method: str = "auto") -> ComplexSeries:
    """Partial-wave series c_l = (2l+1) * phase_shift_l / k, real-valued."""
    if n < 0:
        raise DomainError(f"order must be non-negative, got {n}")
    c = np.array(
        [(2 * l + 1) / k * born_phase_shift(potential, l, k, method=method) for l in range(n + 1)],
        dtype=complex,
    )
    return ComplexSeries(c)


def born_exact_invr2(theta: float, alpha: float, k: float) -> float:
    """Closed-form first-order amplitude for V = alpha/r^2."""
    theta = float(theta)
    if theta == 0.0:
        raise DomainError("the 1/r^2 Born amplitude diverges at theta = 0")
    if not 0.0 < theta <= math.pi:
        raise DomainError(f"theta = {theta} outside (0, pi]")
    if k <= 0.0:
        raise DomainError(f"wavenumber must be positive, got {k}")
    return -math.pi * alpha / (4.0 * k * math.sin(0.5 * theta))


def _check_outside_horizon(r: float, params: RNParams) -> float:
    r = float(r)
    if r <= params.r_plus:
        raise DomainError(f"r = {r} must lie outside the outer horizon r_+ = {params.r_plus}")
    return r


def rn_tortoise(r: float, params: RNParams) -> float:
    """Tortoise coordinate outside the outer horizon."""
    r = _check_outside_horizon(r, params)
    rp, rm = params.r_plus, params.r_minus
    value = r + rp * rp / (rp - rm) * math.log(r / rp - 1.0)
    if rm > 0.0:
        value -= rm * rm / (rp - rm) * math.log(r / rm - 1.0)
    return value


def rn_drstar_dr(r: float, params: RNParams) -> float:
    """Jacobian dr*/dr = 1/((1 - r_+/r)(1 - r_-/r))."""
    r = _check_outside_horizon(r, params)
    return 1.0 / ((1.0 - params.r_plus / r) * (1.0 - params.r_minus / r))


def rn_effective_potential(r: float, l: int, params: RNParams) -> float:
    """Effective radial potential for angular momentum l."""
    r = _check_outside_horizon(r, params)
    if l < 0:
        raise DomainError(f"order must be non-negative, got {l}")
    rp, rm = params.r_plus, params.r_minus
    horizon_factor = (1.0 - rp / r) * (1.0 - rm / r)
    centrifugal = l * (l + 1) / r**2 + ((rp + rm) / r**3 - 2.0 * rp * rm / r**4)
    mass_term = params.mu**2 * (rp * rm / r**2 - (rp + rm) / r)
    return horizon_factor * centrifugal + mass_term


def _rn_integral(f, params: RNParams, horizon_epsilon: float, r_max: float) -> float:
    """Integral of f over (r_+, r_max] with the documented cutoffs.

    The slice hugging the horizon is integrated in u = ln(r/r_+ - 1), where
    the integrable log endpoint becomes smooth; the rest is split at the
    potential's near zone and the first oscillation scale.
    """
    rp = params.r_plus
    total = 0.0

    def near(u):
        r = rp * (1.0 + math.exp(u))
        return f(r) * rp * math.exp(u)

    hi0 = min(2.0 * rp, r_max)
    if hi0 > rp * (1.0 + horizon_epsilon):
        u_hi = math.log(hi0 / rp - 1.0)
        value, _ = _checked_quad(near, math.log(horizon_epsilon), u_hi, epsabs=1e-13, epsrel=1e-9)
        total += value
    lo = hi0
    for hi in sorted({min(20.0 * rp, r_max), min(1.0 / params.eta, r_max), r_max}):
        if hi <= lo:
            continue
        value, _ = _checked_quad(f, lo, hi, epsabs=1e-13, epsrel=1e-9, limit=1500)
        total += value
        lo = hi
    return total


def rn_phase_shift(
    l: int,
    params: RNParams,
    order: int,
    horizon_epsilon: float = 1e-8,
    r_max: float | None = None,
) -> float:
    """Zeroth- or first-order scattering phase shift.

    Order 0 is the closed form l*pi/2 + M*eta*(1 - 2 ln 2) +
    2*M*eta*ln(sqrt(M^2-Q^2)/M). Order 1 needs two improper quadratures over
    the effective potential, cut off at r_+(1 + horizon_epsilon) below and
    r_max (default 50/eta, several oscillation wavelengths) above.
    """
    if l < 0:
        raise DomainError(f"order must be non-negative, got {l}")
    if order not in (0, 1):
        raise ValueError(f"phase-shift order must be 0 or 1, got {order}")
    mm, q, eta = params.mass, params.charge, params.eta
    if order == 0:
        return (
            l * math.pi / 2.0
            + mm * eta
            - 2.0 * mm * eta * math.log(2.0)
            + 2.0 * mm * eta * math.log(math.sqrt(mm * mm - q * q) / mm)
        )
    rp, rm = params.r_plus, params.r_minus
    if r_max is None:
        r_max = 50.0 / eta
    if r_max <= rp * (1.0 + horizon_epsilon):
        raise ValueError("r_max must lie beyond the lower quadrature cutoff")

    def weighted(osc):
        def f(r):
            return osc(eta, rn_tortoise(r, params)) * rn_drstar_dr(r, params) * rn_effective_potential(r, l, params)
        return _rn_integral(f, params, horizon_epsilon, r_max)

    i_sin2 = weighted(lambda e, rs: math.sin(e * rs) ** 2)
    i_sin2e = weighted(lambda e, rs: math.sin(2.0 * e * rs))
    phase = -math.atan((i_sin2 / eta) / (1.0 + i_sin2e / eta))
    return phase + (rp + rm) * eta * math.log((rp - rm) / (rp + rm))


def rn_series(
    n: int,
    params: RNParams,
    subtract_one: bool = False,
    horizon_epsilon: float = 1e-8,
    r_max: float | None = None,
) -> ComplexSeries:
    """Partial-wave series c_l = (2l+1)/(2i omega) * exp(2i delta_l) terms.

    The l*pi/2 part of the zeroth-order shift only contributes a factor
    (-1)^l to the exponential, which mirrors the amplitude through
    theta -> pi - theta; the series is built in the orientation with the
    forward divergence at theta = 0, matching the reference cross-section
    data. Set subtract_one=True for the (e^{2i delta} - 1) convention.
    """
    if n < 0:
        raise DomainError(f"order must be non-negative, got {n}")
    pref = 1.0 / (2j * params.omega)
    c = []
    for l in range(n + 1):
        delta = (
            rn_phase_shift(l, params, 0)
            + rn_phase_shift(l, params, 1, horizon_epsilon=horizon_epsilon, r_max=r_max)
        )
        term = cmath.exp(2j * delta)
        if subtract_one:
            term -= 1.0
        c.append((-1) ** l * pref * (2 * l + 1) * term)
    return ComplexSeries(np.array(c))


def cross_section(f: complex) -> float:
    """Differential cross section, the squared modulus of the amplitude."""
    return abs(f) ** 2
