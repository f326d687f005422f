"""Adaptive Gauss-Kronrod quadrature in numpy.

The phase-shift integrals need adaptive integration of a smooth function
over a finite interval and over ``[a, inf)``. This module provides both with
the 10-point Gauss / 21-point Kronrod pair and QUADPACK's error estimate
(Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner, *QUADPACK*,
Springer 1983):

* finite ``[a, b]``: bisect the panel with the largest error estimate until
  the summed estimate is at most ``max(epsabs, epsrel * |I|)``;
* ``[a, inf)``: the same on ``t in (0, 1]`` after ``x = a + (1 - t) / t``.

An integrand maps the array of the 21 nodes of one panel to a real (21, m)
block, its m >= 1 components there; any other shape or a complex dtype
raises ValueError. The components share one panel sequence: the error
estimate and ``|I|`` are their max-norms. Failure to reach the tolerance
raises ``QuadratureConvergenceError``, naming the interval and the reason; no
partial result is returned. That includes roundoff, detected as in QUADPACK
dqage: six bisections that change the value by at most 1e-5 relative while
keeping 99% of the error. Every call logs its interval, error estimate and
integrand points at DEBUG on the ``legpade.quadrature`` logger.
"""

from __future__ import annotations

import heapq
import math
import sys

import numpy as np

from .errors import QuadratureConvergenceError

__all__ = ["quad"]

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min

# Kronrod abscissae on [-1, 1], largest first; the odd positions (0-based)
# are the 10-point Gauss abscissae. Constants as tabulated in QUADPACK dqk21.
_XK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
)
_WK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)

NODES = np.array(_XK + (0.0,) + tuple(-x for x in reversed(_XK)))
KRONROD_WEIGHTS = np.array(_WK + _WK[-2::-1])
GAUSS_WEIGHTS = np.zeros(21)
GAUSS_WEIGHTS[1:10:2] = _WG
GAUSS_WEIGHTS[11:20:2] = _WG[::-1]
_WEIGHTS = np.stack([KRONROD_WEIGHTS, GAUSS_WEIGHTS])

_ROUNDOFF_LIMIT = 6  # QUADPACK dqage gives up after this many unproductive bisections


def _norm(v) -> float:
    """Max-norm of a vector of component values."""
    return max(map(abs, v.tolist()))


def _panel(f, a: float, b: float) -> tuple[np.ndarray, float]:
    """G10K21 on one panel of the (21, m) block integrand f: the m Kronrod values and
    the largest of their QUADPACK error estimates. A non-finite integrand value, or a rule
    sum that overflows, raises QuadratureConvergenceError (``quad`` silences numpy's warnings)."""
    half = 0.5 * (b - a)
    fx = f(0.5 * (a + b) + half * NODES)
    resk, resg = _WEIGHTS @ fx
    resabs, resasc = (np.abs(np.concatenate([fx.T, (fx - 0.5 * resk).T])) @ KRONROD_WEIGHTS).reshape(2, -1)
    result = resk * half
    half = abs(half)
    err = 0.0
    components = zip(result.tolist(), (resk - resg).tolist(), resabs.tolist(), resasc.tolist())
    for value, diff, absv, asc in components:
        absv *= half
        asc *= half
        e = abs(diff * half)
        # a non-finite integrand value makes resabs non-finite; an overflowing sum, any of the four
        if not all(map(math.isfinite, (value, e, absv, asc))):
            raise QuadratureConvergenceError(f"non-finite integrand on [{a:g}, {b:g}]")
        if asc != 0.0 and e != 0.0:
            e = asc * min(1.0, (200.0 * e / asc) ** 1.5)
        if absv > _TINY / (50.0 * _EPS):
            e = max(50.0 * _EPS * absv, e)
        err = max(err, e)
    return result, err


def _adaptive(f, a: float, b: float, epsabs: float, epsrel: float, limit: int) -> tuple[np.ndarray, float, int]:
    """Globally adaptive bisection; returns (values, error estimate, panels)."""
    value, err = _panel(f, a, b)
    heap = [(-err, a, b, value)]  # largest error first
    total, errsum, panels = value, err, 1
    roundoff = 0  # bisections that changed neither value nor error, QUADPACK dqage's iroff1
    while errsum > max(epsabs, epsrel * _norm(total)):
        if roundoff >= _ROUNDOFF_LIMIT:
            raise QuadratureConvergenceError(
                f"roundoff prevents the tolerance {max(epsabs, epsrel * _norm(total)):.3g} "
                f"(error estimate {errsum:.3g} after {panels} panels)"
            )
        if len(heap) >= limit:
            raise QuadratureConvergenceError(
                f"subdivision limit of {limit} intervals reached "
                f"(error estimate {errsum:.3g}, tolerance {max(epsabs, epsrel * _norm(total)):.3g})"
            )
        neg_err, lo, hi, v = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if max(abs(lo), abs(hi)) <= (1.0 + 100.0 * _EPS) * (abs(mid) + 1000.0 * _TINY):
            raise QuadratureConvergenceError(
                f"interval [{lo:.17g}, {hi:.17g}] too short to bisect (error estimate {errsum:.3g})"
            )
        v1, e1 = _panel(f, lo, mid)
        v2, e2 = _panel(f, mid, hi)
        panels += 2
        both = v1 + v2
        if _norm(v - both) <= 1e-5 * _norm(both) and e1 + e2 >= -0.99 * neg_err:
            roundoff += 1
        total = total + (both - v)
        errsum += e1 + e2 + neg_err
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
    return np.array([math.fsum(c) for c in zip(*(item[3] for item in heap))]), errsum, panels


def quad(f, a: float, b: float, *, epsabs: float = 1.49e-8, epsrel: float = 1.49e-8,
         limit: int = 50) -> tuple[np.ndarray, float, int]:
    """Integral of the vectorized ``f`` over ``[a, b]``; ``b`` may be ``inf``.

    ``f`` maps the nodes to a real (nodes, m) block (see the module notes);
    returns ``(m values, error estimate, integrand points)``. ``limit`` caps
    the subintervals. Raises ``QuadratureConvergenceError`` when the
    tolerance is not reached, and ``ValueError`` for any other return of
    ``f``, a non-finite ``a``, a non-finite ``|a| + |b|`` unless b = inf,
    an ``epsabs`` or ``epsrel`` that is not one real number >= 0, or a ``limit`` that is not an integer >= 1.
    """
    # imported here: nothing on the start-up path loads logging, and it costs ~5 ms
    import logging

    a, b = float(a), float(b)
    # |a| + |b| bounds every panel's b - a and a + b, so the nodes stay finite
    if not math.isfinite(a) or not (b == math.inf or math.isfinite(abs(a) + abs(b))):
        raise ValueError(f"need a finite lower limit and b = +inf or |a| + |b| finite, got [{a}, {b}]")
    for name, tol in (("epsabs", epsabs), ("epsrel", epsrel)):  # a NaN one would end the bisection after one panel
        numpy_number = isinstance(tol, (np.generic, np.ndarray)) and not tol.ndim and tol.dtype.kind in "biuf"
        if not ((isinstance(tol, (int, float)) or numpy_number) and tol >= 0.0):
            raise ValueError(f"{name} must be a number >= 0, got {tol}")
    if not (isinstance(limit, (int, np.integer)) and limit >= 1):  # a NaN limit would never stop the bisection
        raise ValueError(f"limit must be an integer >= 1, got {limit}")

    def block(x):
        fx = np.asarray(f(x))
        if fx.ndim != 2 or len(fx) != len(x) or not fx.size or fx.dtype.kind not in "iuf":
            raise ValueError(f"f must return a real (21, m >= 1) block, got shape {fx.shape}, dtype {fx.dtype}")
        return fx

    # numpy's overflow warnings are silenced once per call; each panel checks its sums instead
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        try:
            if b == math.inf:
                def mapped(t):
                    return block(a + (1.0 - t) / t) / (t * t)[:, None]

                value, err, panels = _adaptive(mapped, 0.0, 1.0, epsabs, epsrel, limit)
            else:
                value, err, panels = _adaptive(block, a, b, epsabs, epsrel, limit)
        except QuadratureConvergenceError as exc:
            raise QuadratureConvergenceError(f"quadrature on [{a:g}, {b:g}] did not converge: {exc}") from exc
    neval = 21 * panels
    logging.getLogger(__name__).debug("quadrature on [%g, %g]: abserr %.3g, neval %d", a, b, err, neval)
    return value, err, neval
