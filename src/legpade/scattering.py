"""Worked scattering series and their exact oracles.

Four families feed the rational resummation:

* the unit series (all coefficients 1), whose target is 1/(2 sin(theta/2));
* the Coulomb amplitude series, with a closed-form exact amplitude;
* first-order (Born) series for a 1/r^2 potential, again with a closed form;
* Reissner-Nordstrom partial waves from zeroth- and first-order phase
  shifts, where no closed form exists.

Phase-shift quadratures use the numpy Gauss-Kronrod integrator of
``legpade.quadrature``; the improper integrals are split at documented
breakpoints and the near-horizon log endpoint is tamed with a logarithmic
substitution. The Born integrands of all orders 0..N form one (nodes, orders)
block from ``special.spherical_bessel_jy_all``, so four quadratures give every
Born shift up to N, and a single-order call integrates orders 0..l. The
Reissner-Nordstrom first-order integrands are linear in l(l+1), so one
four-component integral (four quadratures) gives the shifts of every order.
Each quadrature logs its interval, error estimate and integrand points at
DEBUG on the ``legpade.scattering`` logger.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, QuadratureConvergenceError
from .quadrature import quad
from .series import ComplexSeries
from .special import log_gamma_complex, spherical_bessel_jy_all
# spherical_bessel_j/_y are unused here; perfbench/tracer.py rebinds them on this module
from .special import spherical_bessel_j, spherical_bessel_y  # noqa: F401

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
        for name in ("mass", "charge", "eta", "mu"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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


def _checked_quad(f, a, b, *, epsabs, epsrel, limit=400, **kwargs):
    """``quad`` through the module global (tracers rebind it), logged at DEBUG.

    ``logging`` is imported here because only the quadrature paths log and
    the import adds ~6 ms to every start-up.
    """
    import logging

    try:
        value, abserr, neval = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, **kwargs)
    except QuadratureConvergenceError as exc:
        raise QuadratureConvergenceError(f"quadrature on [{a:g}, {b:g}] did not converge: {exc}") from exc
    logging.getLogger(__name__).debug("quadrature on [%g, %g]: abserr %.3g, neval %d", a, b, abserr, neval)
    return value, abserr, neval


def _bessel_sq_moments(n: int, power: int) -> np.ndarray:
    """integrals of j_l(x)^2 * x^power over [0, inf) for l = 0..n, four quadratures.

    Every order shares each quadrature's panels. The body runs up to
    max(100, 3n), beyond the turning point of j_n; on the tail, j_l = A sin + B cos
    with rational A, B (recovered through y_l), so the mean part decays like a
    power and the rest is a clean Fourier integral handled by weighted quadrature.
    """
    x0 = max(100.0, 3.0 * n)

    def body(x):
        j, _ = spherical_bessel_jy_all(n, x)
        return (j * j * x**power).T

    def tail(x):
        # mean, cos and sin parts of j^2 x^power, each (nodes, orders)
        j, y = spherical_bessel_jy_all(n, x)
        s, c = np.sin(x), np.cos(x)
        a, b = j * s - y * c, j * c + y * s
        return [(part * x**power).T for part in (0.5 * (j * j + y * y), 0.5 * (b * b - a * a), a * b)]

    body_value, _, _ = _checked_quad(body, 0.0, x0, epsabs=1e-14, epsrel=1e-12, limit=600)
    tail_mean, _, _ = _checked_quad(lambda x: tail(x)[0], x0, np.inf, epsabs=1e-13, epsrel=1e-12)
    tail_cos, _, _ = _checked_quad(
        lambda x: tail(x)[1], x0, np.inf, weight="cos", wvar=2.0, epsabs=1e-13, epsrel=1e-12, limlst=200
    )
    tail_sin, _, _ = _checked_quad(
        lambda x: tail(x)[2], x0, np.inf, weight="sin", wvar=2.0, epsabs=1e-13, epsrel=1e-12, limlst=200
    )
    return body_value + tail_mean + tail_cos + tail_sin


def _born_shifts(potential: PotentialSpec, n: int, k: float, method: str) -> np.ndarray:
    """First-order phase shifts of the orders 0..n, after checking the arguments."""
    if method not in ("auto", "quadrature"):
        raise ValueError(f"method must be 'auto' or 'quadrature', got {method!r}")
    if n < 0:
        raise DomainError(f"order must be non-negative, got {n}")
    if k <= 0.0:
        raise DomainError(f"wavenumber must be positive, got {k}")
    if potential.alpha == 0.0:
        return np.zeros(n + 1)
    if potential.kind == "inverse_r2":
        if method == "auto":
            return -math.pi * potential.alpha / (2.0 * (2 * np.arange(n + 1) + 1))
        return -potential.alpha * _bessel_sq_moments(n, 0)
    # inverse_r: r^2 V = alpha * r, moment power 1 (divergent; quadrature reports it)
    return -(potential.alpha / k) * _bessel_sq_moments(n, 1)


def born_phase_shift(potential: PotentialSpec, l: int, k: float, method: str = "auto") -> float:
    """First-order phase shift -k * integral of j_l(kr)^2 V(r) r^2 dr.

    For the 1/r^2 potential the closed form -pi*alpha/(2(2l+1)) is the fast
    path ('auto'); method='quadrature' forces the adaptive integration, which
    must agree with the closed form and serves as its independent check. Its
    four quadratures integrate every order 0..l at once and return entry l,
    so build many orders with ``born_series``, not a loop over this. The
    1/r potential has a logarithmically divergent Born integral, reported as
    a quadrature convergence failure.
    """
    return float(_born_shifts(potential, l, k, method)[l])


def born_series(potential: PotentialSpec, n: int, k: float, method: str = "auto") -> ComplexSeries:
    """Partial-wave series c_l = (2l+1) * phase_shift_l / k, real-valued.

    With method='quadrature' four quadratures serve all orders 0..n (see
    ``born_phase_shift``).
    """
    ls = np.arange(n + 1)
    return ComplexSeries((2 * ls + 1) / k * _born_shifts(potential, n, k, method))


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


def _check_outside_horizon(r: float, params: RNParams) -> float:
    r = float(r)
    if r <= params.r_plus:
        raise DomainError(f"r = {r} must lie outside the outer horizon r_+ = {params.r_plus}")
    return r


def rn_tortoise(r: float, params: RNParams) -> float:
    """Tortoise coordinate outside the outer horizon."""
    return float(_rn_radial(_check_outside_horizon(r, params), params)[0])


def rn_drstar_dr(r: float, params: RNParams) -> float:
    """Jacobian dr*/dr = 1/((1 - r_+/r)(1 - r_-/r))."""
    return float(1.0 / _rn_radial(_check_outside_horizon(r, params), params)[1])


def rn_effective_potential(r: float, l: int, params: RNParams) -> float:
    """Effective radial potential for angular momentum l."""
    r = _check_outside_horizon(r, params)
    if l < 0:
        raise DomainError(f"order must be non-negative, got {l}")
    _, horizon_factor, w0 = _rn_radial(r, params)
    return float(horizon_factor * (l * (l + 1) / r**2 + w0))


def _rn_integral(f, params: RNParams, horizon_epsilon: float, r_max: float) -> np.ndarray:
    """Integral of the (nodes, m) block f over (r_+, r_max] with the documented cutoffs.

    The slice hugging the horizon is integrated in u = ln(r/r_+ - 1), where
    the integrable log endpoint becomes smooth; the rest is split at the
    potential's near zone and the first oscillation scale, one quadrature per piece.
    """
    rp = params.r_plus
    total = 0.0

    def near(u):
        e = np.exp(u)
        return f(rp * (1.0 + e)) * (rp * e)[:, None]

    hi0 = min(2.0 * rp, r_max)
    if hi0 > rp * (1.0 + horizon_epsilon):
        u_hi = math.log(hi0 / rp - 1.0)
        value, _, _ = _checked_quad(near, math.log(horizon_epsilon), u_hi, epsabs=1e-13, epsrel=1e-9)
        total += value
    lo = hi0
    for hi in sorted({min(20.0 * rp, r_max), min(1.0 / params.eta, r_max), r_max}):
        if hi <= lo:
            continue
        value, _, _ = _checked_quad(f, lo, hi, epsabs=1e-13, epsrel=1e-9, limit=1500)
        total += value
        lo = hi
    return total


def _rn_first_order(ls: np.ndarray, params: RNParams, horizon_epsilon: float,
                    r_max: float | None) -> np.ndarray:
    """First-order phase shifts of the orders ``ls``: for each oscillator, sin^2(eta r*)
    and sin(2 eta r*), the integral against l(l+1)/r^2 + w0 is l(l+1) A + B, with A
    against 1/r^2 and B against w0, so one four-component integral serves every order."""
    rp, rm, eta = params.r_plus, params.r_minus, params.eta
    if r_max is None:
        r_max = 50.0 / eta
    if not rp * (1.0 + horizon_epsilon) > rp:
        raise DomainError(f"horizon_epsilon = {horizon_epsilon} puts the lower cutoff on r_+")
    if r_max <= rp * (1.0 + horizon_epsilon):
        raise ValueError("r_max must lie beyond the lower quadrature cutoff")

    def weights(r):
        # (nodes, 4): sin^2(eta r*) against 1/r^2 and w0, then sin(2 eta r*) against both
        rstar, _, w0 = _rn_radial(r, params)
        sin2, sin2e, inv2 = np.sin(eta * rstar) ** 2, np.sin(2.0 * eta * rstar), 1.0 / (r * r)
        return np.stack([sin2 * inv2, sin2 * w0, sin2e * inv2, sin2e * w0], axis=1)

    a_sin2, b_sin2, a_sin2e, b_sin2e = _rn_integral(weights, params, horizon_epsilon, r_max)
    ll = ls * (ls + 1.0)
    i_sin2, i_sin2e = ll * a_sin2 + b_sin2, ll * a_sin2e + b_sin2e
    phase = -np.arctan((i_sin2 / eta) / (1.0 + i_sin2e / eta))
    return phase + (rp + rm) * eta * math.log((rp - rm) / (rp + rm))


def rn_phase_shift(
    l: int,
    params: RNParams,
    order: int,
    horizon_epsilon: float = 1e-8,
    r_max: float | None = None,
) -> float:
    """Zeroth- or first-order scattering phase shift.

    Order 0 is the closed form l*pi/2 + M*eta*(1 - 2 ln 2) +
    2*M*eta*ln(sqrt(M^2-Q^2)/M). Order 1 is linear in l(l+1) over four improper
    integrals of the effective potential, cut off at r_+(1 + horizon_epsilon)
    below and r_max (default 50/eta, several oscillation wavelengths) above, in
    four shared quadratures that serve every l; build many orders with ``rn_series``.
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
    return float(_rn_first_order(np.array([l]), params, horizon_epsilon, r_max)[0])


def rn_series(
    n: int,
    params: RNParams,
    subtract_one: bool = False,
    horizon_epsilon: float = 1e-8,
    r_max: float | None = None,
) -> ComplexSeries:
    """Partial-wave series c_l = (2l+1)/(2i omega) * exp(2i delta_l) terms.

    All first-order shifts share four quadratures (see ``rn_phase_shift``).
    The l*pi/2 part of the zeroth-order shift only contributes a factor
    (-1)^l to the exponential, which mirrors the amplitude through
    theta -> pi - theta; the series is built in the orientation with the
    forward divergence at theta = 0, matching the reference cross-section
    data, so every order takes the zeroth-order shift of l = 0. Set
    subtract_one=True for the (e^{2i delta} - 1) convention, which in this
    orientation subtracts (-1)^l.
    """
    if n < 0:
        raise DomainError(f"order must be non-negative, got {n}")
    ls = np.arange(n + 1)
    delta = rn_phase_shift(0, params, 0) + _rn_first_order(ls, params, horizon_epsilon, r_max)
    term = np.exp(2j * delta)
    if subtract_one:
        term -= (-1.0) ** ls
    return ComplexSeries((2 * ls + 1) / (2j * params.omega) * term)


def cross_section(f: complex) -> float:
    """Differential cross section, the squared modulus of the amplitude."""
    return abs(f) ** 2
