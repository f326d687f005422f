"""Self-contained special functions, and the package's guards of arguments and of results.

Legendre polynomials by the Bonnet three-term recurrence (one evaluator,
``legendre_eval_all``, for a scalar argument or an array of them), the
principal branch of log-gamma on the half plane Re z >= 1/2, where the
Coulomb phase Gamma(1 + i/k) lies (DomainError elsewhere), spherical Bessel
functions of both kinds, every order up to n in one call (``spherical_bessel_jy_all``:
one stacked recurrence for j and y, then Miller's ratios for j; a NaN entry of x
leaves the others alone), with thin scalar wrappers, and the envelopes
h_l^(1)(z) e^(-iz) of the spherical Hankel functions at complex z.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError

__all__ = [
    "legendre_eval_all",
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
    Only a bool, int or float dtype is a number; ``message`` names the rest (text, a complex, None, objects)."""
    if not isinstance(x, (int, float)) and np.asarray(x).dtype.kind not in "biuf":
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


def _finite(compute, message):
    """compute() under np.errstate that silences overflow, division by zero and invalid values; DomainError(message)
    where an entry is not finite, or DomainError(message(bad)), called only then, for a callable of the mask bad."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        value = compute()
    if (bad := ~np.isfinite(value)).any():
        raise DomainError(message(bad) if callable(message) else message)
    return value


def _check_order(n, what: str) -> int:
    """n as an int after checking its type, a Python or numpy bool, int or float or a 0-d array of one
    (the kinds ``_in_range`` takes), and its value, integral and >= 0; DomainError names ``what`` and n otherwise."""
    numpy_number = isinstance(n, (np.generic, np.ndarray)) and not n.ndim and n.dtype.kind in "biuf"
    if (isinstance(n, (int, float)) or numpy_number) and 0 <= n < math.inf and n % 1 == 0:
        return int(n)
    raise DomainError(f"{what} must be a non-negative integer, got {n}")


def _legendre_rows(l_max: int, x) -> list:
    """[P_0(x) .. P_{l_max}(x)] at a numpy float or array x, unchecked: Python floats for a numpy
    float, whose arithmetic is twice as slow and rounds alike, arrays for an array, by the same steps."""
    x = x if x.ndim else x.tolist()
    p = [1.0 + 0.0 * x, x]
    for k in range(1, l_max):
        p.append(((2 * k + 1) * x * p[k] - k * p[k - 1]) / (k + 1))
    return p[: l_max + 1]


def legendre_eval_all(l_max: int, x) -> np.ndarray:
    """P_0(x) .. P_{l_max}(x) for a float or an array x, shape (l_max+1,) + shape(x).

    x within 4 eps outside [-1, 1] is clipped onto it; NaN or further out raise DomainError.
    """
    l_max = _check_order(l_max, "Legendre degree")
    x = _in_range(x, -_X_TOL, _X_TOL, "Legendre argument x = {} outside [-1, 1]")
    return np.array(_legendre_rows(l_max, np.clip(x, -1.0, 1.0)))


def threej_zero_sq_float(l: int, m: int, n: int) -> float:
    """Square of the Wigner 3j symbol (l m n; 0 0 0), correctly rounded; 0.0 when J = l+m+n is odd or the
    triangle inequality fails. Racah's closed form C(J-2l, g-l) C(J-2m, g-m) C(J-2n, g-n) / ((J+1) C(J, g)), J = 2g,
    in ints with one true division, which rounds as float() of its exact counterpart in tests/exact.py does."""
    l, m, n = (_check_order(v, "3j index") for v in (l, m, n))
    J = l + m + n
    if J % 2 == 1 or not abs(l - m) <= n <= l + m:
        return 0.0
    g = J // 2
    return (math.comb(J - 2 * l, g - l) * math.comb(J - 2 * m, g - m) * math.comb(J - 2 * n, g - n)
            / ((J + 1) * math.comb(J, g)))


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

    DomainError names any other z: Re z < 1/2, a NaN or infinite part, or what is not one number (text, None, a list).
    """
    numpy_number = isinstance(z, (np.generic, np.ndarray)) and not z.ndim and z.dtype.kind in "biufc"
    if isinstance(z, (int, float, complex)) or numpy_number:  # asked first: complex() parses text
        z = complex(z)
    if not (isinstance(z, complex) and z.real >= 0.5 and cmath.isfinite(z)):
        raise DomainError(f"log-gamma needs a finite z with Re z >= 1/2, got z = {z!r}")
    s = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[k] / (z - 1.0 + k)
    t = z + _LANCZOS_G - 0.5
    return _LOG_SQRT_2PI + (z - 0.5) * cmath.log(t) - t + cmath.log(s)


def spherical_bessel_jy_all(n: int, x) -> tuple[np.ndarray, np.ndarray]:
    """j_0 .. j_n and y_0 .. y_n at a float or an array x, each of shape (n+1,) + shape(x).

    The pair [j_l, y_l] goes through one upward recurrence, f_l = (2l-1)/x f_(l-1) - f_(l-2), stable
    for y at every order (x > 0; near 0 it overflows to -inf and stays there) and for j through the
    orders l <= x, so j is wholly upward once x >= n. Above order x, j_l = r_l j_(l-1), in increasing l,
    with the ratios r_l = j_l/j_(l-1) of Miller's downward recurrence, started at order n + 20 + 4.8 sqrt(n)
    (Gillman and Fiebig, Comput. Phys. 2, 62 (1988)). j_0(0) = 1 and j_l(0) = 0 for l >= 1. A NaN entry
    of x gives NaN there and leaves the other entries alone. The caller checks x.
    """
    n = _check_order(n, "Bessel order")
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s, c = np.sin(x), np.cos(x)
        f = [np.array([s / x, -c / x])]
        f.append(f[0] / x - np.array([c / x, s / x]))
        for k in range(2, n + 1):  # j meets -inf only above order x, where Miller's ratios replace it
            f.append(np.where(f[k - 1] == -np.inf, -np.inf, (2 * k - 1) / x * f[k - 1] - f[k - 2]))
        j, y = np.array(f[: n + 1]).swapaxes(0, 1)
        j[0] = np.where(x == 0.0, 1.0, j[0])
        if n >= 1 and not np.all(x >= n):  # some order lies above some x, or an x is NaN
            r = [0.0]  # then r_K .. r_1, so r[-l] = r_l
            for k in range(n + 20 + int(4.8 * math.sqrt(n)), 0, -1):
                r.append(x / (2 * k + 1 - x * r[-1]))
            for k in range(1, n + 1):
                j[k] = np.where(x >= k, j[k], r[-k] * j[k - 1])
    return j, y


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
