"""Truncated Legendre-basis series: the partial sums whose endpoint
oscillation the rational resummation removes, and the projection of a
function onto one Legendre order, one ``legpade.quadrature.quad`` call on
[0, pi] that logs at DEBUG and names [0, pi] in its failure."""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .quadrature import NODES, quad
from .special import _check_order, _finite, _in_range, _legendre_rows, legendre_eval_all

__all__ = ["ComplexSeries", "eval_partial_sum", "project_legendre_coefficient"]


@dataclass(frozen=True, eq=False)
class ComplexSeries:
    """Ordered Legendre coefficients c_0 .. c_N of a truncated expansion.

    Immutable after construction and compared by identity; entries must be
    finite numbers, not text, and there must be at least one.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        if np.asarray(self.coefficients).dtype.kind in "SU":  # numpy would parse text as numbers
            raise ValueError("series coefficients must be numbers, not text")
        c = np.array(self.coefficients, dtype=complex)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("a series needs a one-dimensional, non-empty coefficient list")
        if not np.all(np.isfinite(c)):
            raise ValueError("series coefficients must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)

    @property
    def order(self) -> int:
        """Highest retained Legendre order N; the series carries N+1 terms."""
        return self.coefficients.size - 1


def _check_theta(theta):
    """theta as a float, or an array of angles as a float array, all in [0, pi]."""
    return _in_range(theta, 0.0, math.pi, "theta = {} outside [0, pi]")


def _legendre_sums(theta, *coefficients):
    """Sum of c_l P_l(cos theta) for each coefficient vector after one angle check, lowest order first and
    by the same operations at any shape, so an angle's sum has the same bits alone and in any array: a
    Python complex at a float angle, an array of theta's shape for an array of angles."""
    rows = _legendre_rows(max(c.size for c in coefficients) - 1, np.cos(_check_theta(theta)))
    return [functools.reduce(operator.add, map(operator.mul, rows, c.tolist())) for c in coefficients]


def _checked(theta, what: str, compute):
    """compute() where it is finite, else DomainError "{what} overflows at theta = ...": a float angle's Python
    result gets a cmath.isfinite test and no np.errstate, which costs microseconds; other shapes get _finite."""
    def overflow(bad):
        return DomainError(f"{what} overflows at theta = {np.min(np.asarray(theta, dtype=float)[bad])}")
    if not isinstance(theta, float):
        return _finite(compute, overflow)
    value = compute()
    if not cmath.isfinite(value):
        raise overflow(True)
    return value


def eval_partial_sum(series: ComplexSeries, theta):
    """Sum of c_l P_l(cos theta) over the retained orders, at an angle (a
    complex) or an array of them; DomainError where the sum overflows.

    theta = 0 is allowed (the sum is finite everywhere); callers comparing
    against oracles that diverge in the forward direction must exclude it
    themselves.
    """
    return _checked(theta, "the partial sum", lambda: _legendre_sums(theta, series.coefficients)[0])


def project_legendre_coefficient(f: Callable[[np.ndarray], np.ndarray], n: int) -> complex:
    """Order-n Legendre coefficient of a function of theta.

    ((2n+1)/2) times the integral of f(theta) P_n(cos theta) sin(theta) over
    [0, pi], by the adaptive G10K21 of ``legpade.quadrature`` (epsrel 1e-12,
    epsabs 1e-13 * max(1, pi * max|integrand| on the first panel), at most
    200 panels), with the real and imaginary parts as the two components of
    one integral. Integrating in theta lets the sin(theta) Jacobian
    regularize the forward-direction divergences the scattering oracles
    carry; the panel nodes never touch the endpoints. ``f`` is called once
    per distinct panel (the first panel's values, which set the tolerance,
    are reused) with the array of its 21 node angles and returns the values
    there (or one value for all of them), like the closed-form oracles. ``quad``
    logs the integral at DEBUG and raises QuadratureConvergenceError, naming
    [0, pi] and its reason, when the integral does not reach the tolerance.
    """
    n = _check_order(n, "projection order")

    def weighted(theta):
        return np.asarray(f(theta), dtype=complex) * legendre_eval_all(n, np.cos(theta))[n] * np.sin(theta)

    # quad's error estimate never falls below 50 eps * integral |integrand|, so
    # the absolute tolerance grows with pi * max |integrand| on the first
    # panel's nodes; both parts share it, so a vanishing part still converges
    first_nodes = 0.5 * math.pi + 0.5 * math.pi * NODES  # quad's first panel, all of [0, pi]
    first_panel = weighted(first_nodes)
    epsabs = 1e-13 * max(1.0, math.pi * float(np.max(np.abs(first_panel))))

    def parts(theta):
        values = first_panel if np.array_equal(theta, first_nodes) else weighted(theta)
        return values.view(float).reshape(-1, 2)  # columns Re, Im

    re, im = quad(parts, 0.0, math.pi, epsabs=epsabs, epsrel=1e-12, limit=200)[0]
    return 0.5 * (2 * n + 1) * complex(re, im)
