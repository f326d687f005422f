"""Self-contained special functions, and the package's guards of arguments and of results.

Legendre polynomials by the Bonnet three-term recurrence (one evaluator,
``legendre_eval_all``, for a scalar argument or an array of them), squared
zero-projection Wigner 3j symbols in exact rational arithmetic, the
principal branch of log-gamma on the half plane Re z >= 1/2, where the
Coulomb phase Gamma(1 + i/k) lies (DomainError elsewhere), spherical Bessel
functions of both kinds, every order up to n in one call
(``spherical_bessel_jy_all``), with thin scalar wrappers, and the envelopes
h_l^(1)(z) e^(-iz) of the spherical Hankel functions at complex z.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "legendre_eval_all",
    "threej_zero_sq",
    "triple_product_integral",
    "log_gamma_complex",
    "spherical_bessel_j",
    "spherical_bessel_y",
    "spherical_bessel_jy_all",
]

_X_TOL = 1.0 + 4.0 * np.finfo(float).eps
_BIG = float(np.finfo(float).max)


def _in_range(x, lo: float, hi: float, message: str, name: str | None = None):
    """x as a float, or an array-like as a float array, after checking that every
    entry lies in [lo, hi] (NaN does not); ``message`` formats the first that does not.
    Given the ``name`` of a parameter that must be one number, an array raises DomainError naming it.
    Text or a complex (1+0j too, or an array-like of either) is rejected: numpy would parse or truncate it."""
    if not isinstance(x, float) and np.asarray(x).dtype.kind in "SUc":
        raise DomainError(message.format(repr(x)))
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = float(x)
        if lo <= x <= hi:
            return x
        raise DomainError(message.format(x))
    if name is not None:
        raise DomainError(f"{name} must be one number, got {x!r}")
    inside = (lo <= x) & (x <= hi)
    if not inside.all():
        raise DomainError(message.format(x.flat[np.argmin(inside)]))
    return x


def _finite(compute, error):
    """compute() under np.errstate that silences overflow, division by zero and invalid values;
    raises error(bad), a DomainError, where the mask bad marks an entry that is not finite."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        value = compute()
    if (bad := ~np.isfinite(value)).any():
        raise error(bad)
    return value


def _check_order(n, what: str) -> int:
    """n as an int after checking that it is a non-negative integral value (an int, a
    numpy integer, an integral float or a 0-d array of one); DomainError names ``what`` and n
    otherwise, also where the comparison or int() fails (text, None, a complex, an array) and
    for a one-entry array, which int() converts on numpy before 2.4."""
    try:
        if 0 <= n < math.inf and n % 1 == 0 and not (isinstance(n, np.ndarray) and n.ndim):
            return int(n)
    except (TypeError, ValueError):
        pass
    raise DomainError(f"{what} must be a non-negative integer, got {n}")


def legendre_eval_all(l_max: int, x) -> np.ndarray:
    """P_0(x) .. P_{l_max}(x) for a float or an array x, shape (l_max+1,) + shape(x).

    x within 4 eps outside [-1, 1] is clipped onto it; NaN or further out raise DomainError.
    """
    l_max = _check_order(l_max, "Legendre degree")
    x = _in_range(x, -_X_TOL, _X_TOL, "Legendre argument x = {} outside [-1, 1]")
    x = min(1.0, max(-1.0, x)) if isinstance(x, float) else np.clip(x, -1.0, 1.0)
    # the same arithmetic on a float and on an array, so a scalar stays a float
    p = [1.0 + 0.0 * x, x]
    for k in range(1, l_max):
        p.append(((2 * k + 1) * x * p[k] - k * p[k - 1]) / (k + 1))
    return np.array(p[: l_max + 1])


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
    # the square is invariant under permutations, so the cache keys on the sorted triple
    return _threej_sq_canonical(*sorted(_check_order(v, "3j index") for v in (l, m, n)))


def triple_product_integral(l: int, m: int, n: int) -> Fraction:
    """Exact value of the Legendre triple product integral on [-1, 1].

    Equals twice the squared zero-projection 3j symbol.
    """
    return 2 * threej_zero_sq(l, m, n)


def threej_zero_sq_float(l: int, m: int, n: int) -> float:
    """Float image of threej_zero_sq."""
    return float(threej_zero_sq(l, m, n))


# Lanczos approximation, g = 607/128, 15 terms (Godfrey's coefficient set).
# Gives ~15 significant digits on the half plane Re z >= 1/2.
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


def log_gamma_complex(z: complex) -> complex:
    """Principal branch of log Gamma(z) for finite z with Re z >= 1/2, by the Lanczos sum.

    DomainError names any other z: Re z < 1/2, or a NaN or infinite part.
    """
    z = complex(z)
    if not (z.real >= 0.5 and cmath.isfinite(z)):
        raise DomainError(f"log-gamma needs a finite z with Re z >= 1/2, got z = {z}")
    s = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[k] / (z - 1.0 + k)
    t = z + _LANCZOS_G - 0.5
    return _LOG_SQRT_2PI + (z - 0.5) * cmath.log(t) - t + cmath.log(s)


def spherical_bessel_jy_all(n: int, x) -> tuple[np.ndarray, np.ndarray]:
    """j_0 .. j_n and y_0 .. y_n at a float or an array x, each of shape (n+1,) + shape(x).

    y by upward recurrence, stable at every order (x > 0; near 0 it overflows to
    -inf and stays there). j by the same recurrence through the orders l <= x,
    where it is stable, so wholly upward once x >= n; above order x, j_l = r_l
    j_(l-1) with the ratios r_l = j_l/j_(l-1) of Miller's downward recurrence,
    started at order n + 20 + 4.8 sqrt(n) (Gillman and Fiebig, Comput. Phys. 2,
    62 (1988)). j_0(0) = 1 and j_l(0) = 0 for l >= 1. The caller checks x.
    """
    n = _check_order(n, "Bessel order")
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s, c = np.sin(x), np.cos(x)
        y = [-c / x]
        y.append(y[0] / x - s / x)
        j = [np.where(x == 0.0, 1.0, s / x)]
        j.append(j[0] / x - c / x)
        ratio = {}
        if n >= 1 and np.min(x, initial=math.inf) < n:  # some order lies above some x
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


def _hankel_envelopes(n: int, z) -> np.ndarray:
    """u_0 .. u_n at an array z with Re z > 0, shape (n+1,) + shape(z), where
    u_l(z) = h_l^(1)(z) e^(-iz) is a polynomial in 1/z, analytic off the origin:
    u_0 = -i/z, u_1 = -1/z - i/z^2, then the upward recurrence of h^(1), which is
    stable. On the real axis |u_l|^2 = j_l^2 + y_l^2. The caller checks n and z."""
    z = np.asarray(z, dtype=complex)
    u = [-1j / z, -1.0 / z - 1j / (z * z)]
    for k in range(1, n):
        u.append((2 * k + 1) / z * u[k] - u[k - 1])
    return np.array(u[: n + 1])


def spherical_bessel_j(l: int, x: float) -> float:
    """Spherical Bessel function j_l(x) for a finite x >= 0: entry l of ``spherical_bessel_jy_all(l, x)``."""
    x = _in_range(x, 0.0, _BIG, "argument must be finite and non-negative, got {}", "argument x")
    return float(spherical_bessel_jy_all(l, np.array([x]))[0][-1, 0])


def spherical_bessel_y(l: int, x: float) -> float:
    """Spherical Bessel function of the second kind, y_l(x), for a finite x > 0: entry l of
    ``spherical_bessel_jy_all(l, x)``."""
    x = _in_range(x, math.ulp(0.0), _BIG, "argument must be finite and positive, got {}", "argument x")
    return float(spherical_bessel_jy_all(l, np.array([x]))[1][-1, 0])
