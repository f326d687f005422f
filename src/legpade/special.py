"""Self-contained special functions.

Legendre polynomials by the Bonnet three-term recurrence (one evaluator,
``legendre_eval_all``, for a scalar argument or an array of them), squared
zero-projection Wigner 3j symbols in exact rational arithmetic, the
principal branch of the complex log-gamma function, and spherical Bessel
functions of the first kind with a stable downward recurrence.
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


def _spherical_j_series(l: int, x: float) -> float:
    # ascending series x^l/(2l+1)!! * sum_k (-x^2/2)^k / (k! (2l+3)(2l+5)...)
    df = 1.0
    for k in range(1, 2 * l + 2, 2):
        df *= k
    term = 1.0
    total = 1.0
    k = 0
    while True:
        k += 1
        term *= -0.5 * x * x / (k * (2 * l + 2 * k + 1))
        total += term
        if abs(term) < 1e-17 * abs(total):
            break
    return x**l / df * total


def spherical_bessel_j(l: int, x: float) -> float:
    """Spherical Bessel function j_l(x) for x >= 0.

    Upward recurrence for x >= l (stable there), Miller-style downward
    recurrence with normalization for x < l.
    """
    if l < 0:
        raise DomainError(f"order must be non-negative, got {l}")
    x = float(x)
    if x < 0.0:
        raise DomainError(f"argument must be non-negative, got {x}")
    if x == 0.0:
        return 1.0 if l == 0 else 0.0
    if l == 0:
        return math.sin(x) / x
    if x * x < 0.25 * (2 * l + 3):
        return _spherical_j_series(l, x)
    j0 = math.sin(x) / x
    j1 = j0 / x - math.cos(x) / x
    if l == 1:
        return j1
    if x >= l:
        for k in range(1, l):
            j0, j1 = j1, (2 * k + 1) / x * j1 - j0
        return j1
    # downward from a buffer above l; rescale to dodge overflow, then
    # normalize against whichever of j_0, j_1 is better conditioned
    top = l + 20 + int(1.2 * math.sqrt(l) * 4)
    jp, jc = 0.0, 1e-30
    out = 0.0
    for k in range(top, 0, -1):
        jm = (2 * k + 1) / x * jc - jp
        jp, jc = jc, jm
        if k - 1 == l:
            out = jc
        if abs(jc) > 1e250:
            jc *= 1e-250
            jp *= 1e-250
            out *= 1e-250
    # jc = unnormalized j_0, jp = unnormalized j_1
    if abs(j0) >= abs(j1):
        scale = j0 / jc
    else:
        scale = j1 / jp
    return out * scale


def spherical_bessel_y(l: int, x: float) -> float:
    """Spherical Bessel function of the second kind, y_l(x), x > 0.

    Upward recurrence is unconditionally stable for y_l. Used internally by
    the oscillatory-tail quadratures.
    """
    if l < 0:
        raise DomainError(f"order must be non-negative, got {l}")
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"argument must be positive, got {x}")
    y0 = -math.cos(x) / x
    if l == 0:
        return y0
    y1 = y0 / x - math.sin(x) / x
    for k in range(1, l):
        y0, y1 = y1, (2 * k + 1) / x * y1 - y0
    return y1
