"""Truncated Legendre-basis series: the partial sums whose endpoint
oscillation the rational resummation removes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, QuadratureConvergenceError
from .special import _in_range, legendre_eval_all

__all__ = ["ComplexSeries", "eval_partial_sum", "project_legendre_coefficient"]


@dataclass(frozen=True)
class ComplexSeries:
    """Ordered Legendre coefficients c_0 .. c_N of a truncated expansion.

    Immutable after construction; entries must be finite and there must be
    at least one.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("a series needs a one-dimensional, non-empty coefficient list")
        if not np.all(np.isfinite(c)):
            raise ValueError("series coefficients must be finite")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)

    def __len__(self) -> int:
        return self.coefficients.size

    @property
    def order(self) -> int:
        """Highest retained Legendre order N; the series carries N+1 terms."""
        return self.coefficients.size - 1

    def scaled(self, factor: complex) -> "ComplexSeries":
        return ComplexSeries(self.coefficients * factor)


def _check_theta(theta):
    """theta as a float, or an array of angles as a float array, all in [0, pi]."""
    return _in_range(theta, 0.0, math.pi, "theta = {} outside [0, pi]")


def eval_partial_sum(series: ComplexSeries, theta):
    """Sum of c_l P_l(cos theta) over the retained orders, at an angle (a
    complex) or an array of them.

    theta = 0 is allowed (the sum is finite everywhere); callers comparing
    against oracles that diverge in the forward direction must exclude it
    themselves.
    """
    theta = _check_theta(theta)
    p = legendre_eval_all(series.order, np.cos(theta))
    # p.T puts the order axis last, so any shape of theta contracts alike
    value = p.T.dot(series.coefficients).T
    return complex(value) if isinstance(theta, float) else value


def project_legendre_coefficient(f: Callable[[float], complex], n: int) -> complex:
    """Order-n Legendre coefficient of a function of theta.

    Gauss-Legendre quadrature of ((2n+1)/2) * integral of f(theta) P_n over
    d(cos theta), carried out in the theta parametrization: the sin(theta)
    Jacobian regularizes the forward-direction divergences the scattering
    oracles carry, where nodes placed in cos(theta) would stall on the
    endpoint singularity. Starts from max(64, n+9) nodes (degree 2n+16
    polynomials in cos(theta) are integrated to machine precision) and
    doubles until two successive estimates agree to 1e-11; raises
    QuadratureConvergenceError when seven rules do not.
    """
    from numpy.polynomial.legendre import leggauss  # kept off the start-up path

    if n < 0:
        raise DomainError(f"projection order must be non-negative, got {n}")
    nodes = max(64, n + 9)
    previous = None
    for _ in range(7):
        x, w = leggauss(nodes)
        theta = 0.5 * math.pi * (x + 1.0)
        pn = legendre_eval_all(n, np.cos(theta))[n]
        fv = np.array([f(t) for t in theta], dtype=complex)
        estimate = (
            0.25 * math.pi * (2 * n + 1) * complex(np.dot(w, fv * pn * np.sin(theta)))
        )
        change = math.inf if previous is None else abs(estimate - previous)
        if change <= 1e-11 * max(1.0, abs(estimate)):
            return estimate
        previous = estimate
        nodes *= 2
    raise QuadratureConvergenceError(
        f"projection of order {n} did not converge: the last two rules differ by {change:.3g}")
