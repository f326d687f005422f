"""Self-contained special functions.

Legendre polynomials by the Bonnet three-term recurrence (one evaluator,
``legendre_eval_all``, for a scalar argument or an array of them), squared
zero-projection Wigner 3j symbols in exact rational arithmetic, the
principal branch of the complex log-gamma function, and spherical Bessel
functions of both kinds, every order up to n in one call
(``spherical_bessel_jy_all``), with thin scalar wrappers.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, PoleError

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "legendre_eval",
    "legendre_eval_all",
    "threej_zero_sq",
    "triple_product_integral",
    "log_gamma_complex",
    "spherical_bessel_j",
    "spherical_bessel_y",
    "spherical_bessel_jy_all",
]

_X_TOL = 1.0 + 4.0 * np.finfo(float).eps


def _in_range(x, lo: float, hi: float, message: str):
    """x as a float, or an array-like as a float array, after checking that every
    entry lies in [lo, hi] (NaN does not); ``message`` formats the first that does not."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = float(x)
        if lo <= x <= hi:
            return x
        raise DomainError(message.format(x))
    inside = (lo <= x) & (x <= hi)
    if not inside.all():
        raise DomainError(message.format(x.flat[np.argmin(inside)]))
    return x


def legendre_eval_all(l_max: int, x) -> np.ndarray:
    """P_0(x) .. P_{l_max}(x) for a float or an array x, shape (l_max+1,) + shape(x).

    x within 4 eps outside [-1, 1] is clipped onto it; NaN or further out raise DomainError.
    """
    if l_max < 0:
        raise DomainError(f"Legendre degree must be non-negative, got {l_max}")
    x = _in_range(x, -_X_TOL, _X_TOL, "Legendre argument x = {} outside [-1, 1]")
    x = min(1.0, max(-1.0, x)) if isinstance(x, float) else np.clip(x, -1.0, 1.0)
    # the same arithmetic on a float and on an array, so a scalar stays a float
    p = [1.0 + 0.0 * x, x]
    for k in range(1, l_max):
        p.append(((2 * k + 1) * x * p[k] - k * p[k - 1]) / (k + 1))
    return np.array(p[: l_max + 1])


def legendre_eval(l: int, x):
    """P_l(x) for integer l >= 0 and x (a float or an array) in [-1, 1]."""
    return legendre_eval_all(l, x)[l]


@lru_cache(maxsize=None)
def _threej_sq_canonical(l: int, m: int, n: int) -> Fraction:
    from fractions import Fraction  # only the exact oracle needs it

    J = l + m + n
    if J % 2 == 1:
        return Fraction(0)
    if not abs(l - m) <= n <= l + m:
        return Fraction(0)
    g = J // 2
    # Racah closed form for all-zero projections, kept in big-integer rationals
    num = (
        math.factorial(J - 2 * l)
        * math.factorial(J - 2 * m)
        * math.factorial(J - 2 * n)
    )
    den = math.factorial(J + 1)
    w = Fraction(
        math.factorial(g),
        math.factorial(g - l) * math.factorial(g - m) * math.factorial(g - n),
    )
    return Fraction(num, den) * w * w


def threej_zero_sq(l: int, m: int, n: int) -> Fraction:
    """Exact square of the Wigner 3j symbol (l m n; 0 0 0).

    Returns Fraction(0) when l+m+n is odd or the triangle inequality fails;
    selection-rule zeros are exact, never raised as errors.
    """
    for v in (l, m, n):
        if v != int(v) or v < 0:
            raise DomainError(f"3j indices must be non-negative integers, got {(l, m, n)}")
    # the square is invariant under permutations, so the cache keys on the sorted triple
    return _threej_sq_canonical(*sorted((int(l), int(m), int(n))))


def triple_product_integral(l: int, m: int, n: int) -> Fraction:
    """Exact value of the Legendre triple product integral on [-1, 1].

    Equals twice the squared zero-projection 3j symbol.
    """
    return 2 * threej_zero_sq(l, m, n)


def threej_zero_sq_float(l: int, m: int, n: int) -> float:
    """Float image of threej_zero_sq."""
    return float(threej_zero_sq(l, m, n))


# Lanczos approximation, g = 607/128, 15 terms (Godfrey's coefficient set).
# Gives ~15 significant digits on the right half plane.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_LOG_SQRT_2PI = 0.9189385332046727417803297


def _log_gamma_lanczos(z: complex) -> complex:
    # valid for Re z >= 0.5
    s = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[k] / (z - 1.0 + k)
    t = z + _LANCZOS_G - 0.5
    return _LOG_SQRT_2PI + (z - 0.5) * cmath.log(t) - t + cmath.log(s)


def _log_sin_pi(z: complex) -> complex:
    # principal log of sin(pi z); safe for |Im z| small enough that cosh fits
    x, y = z.real, z.imag
    s = complex(
        math.sin(math.pi * x) * math.cosh(math.pi * y),
        math.cos(math.pi * x) * math.sinh(math.pi * y),
    )
    return cmath.log(s)


def log_gamma_complex(z: complex) -> complex:
    """Principal branch of log Gamma(z).

    Lanczos sum on Re z >= 0.5, reflection with Hare's branch correction
    otherwise. Poles at non-positive integers raise PoleError.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise PoleError(f"log-gamma pole at z = {z.real:g}")
    if z.imag < 0.0:
        return log_gamma_complex(z.conjugate()).conjugate()
    if z.real >= 0.5:
        return _log_gamma_lanczos(z)
    # reflection; the 2*pi*i multiple keeps the principal branch
    winding = complex(0.0, math.copysign(2.0 * math.pi, z.imag) * math.floor(0.5 * z.real + 0.25))
    return (
        math.log(math.pi)
        + winding
        - _log_sin_pi(z)
        - log_gamma_complex(1.0 - z)
    )


def spherical_bessel_jy_all(n: int, x) -> tuple[np.ndarray, np.ndarray]:
    """j_0 .. j_n and y_0 .. y_n at a float or an array x, each of shape (n+1,) + shape(x).

    y by upward recurrence, stable at every order (x > 0; near 0 it overflows to
    -inf and stays there). j by the same recurrence through the orders l <= x,
    where it is stable, so wholly upward once x >= n; above order x, j_l = r_l
    j_(l-1) with the ratios r_l = j_l/j_(l-1) of Miller's downward recurrence,
    started at order n + 20 + 4.8 sqrt(n) (Gillman and Fiebig, Comput. Phys. 2,
    62 (1988)). j_0(0) = 1 and j_l(0) = 0 for l >= 1. The caller checks the domain.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s, c = np.sin(x), np.cos(x)
        y = [-c / x]
        y.append(y[0] / x - s / x)
        j = [np.where(x == 0.0, 1.0, s / x)]
        j.append(j[0] / x - c / x)
        ratio = {}
        if n >= 1 and np.min(x) < n:  # some order lies above some x
            r = 0.0
            for k in range(n + 20 + int(4.8 * math.sqrt(n)), 0, -1):
                r = x / (2 * k + 1 - x * r)
                if k <= n:
                    ratio[k] = r
        for k in range(1, n + 1):
            if k > 1:
                y.append(np.where(y[k - 1] == -np.inf, -np.inf, (2 * k - 1) / x * y[k - 1] - y[k - 2]))
                j.append((2 * k - 1) / x * j[k - 1] - j[k - 2])
            if ratio:
                j[k] = np.where(x >= k, j[k], ratio[k] * j[k - 1])
    return np.array(j[: n + 1]), np.array(y[: n + 1])


def spherical_bessel_j(l: int, x: float) -> float:
    """Spherical Bessel function j_l(x) for x >= 0: entry l of ``spherical_bessel_jy_all(l, x)``."""
    if l < 0:
        raise DomainError(f"order must be non-negative, got {l}")
    x = float(x)
    if x < 0.0:
        raise DomainError(f"argument must be non-negative, got {x}")
    return float(spherical_bessel_jy_all(l, np.array([x]))[0][l, 0])


def spherical_bessel_y(l: int, x: float) -> float:
    """Spherical Bessel function of the second kind, y_l(x), x > 0: entry l of
    ``spherical_bessel_jy_all(l, x)``."""
    if l < 0:
        raise DomainError(f"order must be non-negative, got {l}")
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"argument must be positive, got {x}")
    return float(spherical_bessel_jy_all(l, np.array([x]))[1][l, 0])
