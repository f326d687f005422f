"""Adaptive Gauss-Kronrod quadrature in numpy.

The phase-shift integrals need three things: adaptive integration of a
smooth function over a finite interval, the same over ``[a, inf)``, and
Fourier integrals ``int_a^inf f(x) cos|sin(omega x) dx`` whose integrands
decay too slowly for the plain map. This module provides all three with
the 10-point Gauss / 21-point Kronrod pair and QUADPACK's error estimate
(Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner, *QUADPACK*,
Springer 1983):

* finite ``[a, b]``: bisect the panel with the largest error estimate until
  the summed estimate is at most ``max(epsabs, epsrel * |I|)``;
* ``[a, inf)``: the same on ``t in (0, 1]`` after ``x = a + (1 - t) / t``;
* ``weight="cos"|"sin"`` on ``[a, inf)``: integrate ``[a, z_0]`` up to the
  first zero of the weight, then one half-period ``pi / |omega|`` per cycle,
  and extrapolate the cycles' partial sums with Wynn's epsilon algorithm
  (Wynn, MTAC 10, 1956). The ``[a, z_0]`` piece is redone when its error
  exceeds its share of the whole integral's target.

Integrands take a numpy array of the 21 nodes of one panel and return the
values there. Failure to reach the tolerance raises
``QuadratureConvergenceError``; no partial result is returned. That
includes roundoff, detected as in QUADPACK dqage: six bisections that
change the value by at most 1e-5 relative while keeping 99% of the error.
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

# tolerance shares of a Fourier integral, as in QUADPACK qawf: epsabs * (1 - p)
# before the first zero, epsabs * (1 - p) * p**(k + 1) for cycle k; they sum to epsabs
_CYCLE_SHARE = 0.9
_WYNN_DEPTH = 50  # longest epsilon-table diagonal kept
_ROUNDOFF_LIMIT = 6  # QUADPACK dqage gives up after this many unproductive bisections


def _panel(f, a: float, b: float) -> tuple[float, float]:
    """G10K21 on one panel: the Kronrod value and QUADPACK's error estimate."""
    half = 0.5 * (b - a)
    fx = np.asarray(f(0.5 * (a + b) + half * NODES), dtype=float)
    resk, resg = (_WEIGHTS @ fx).tolist()
    resabs, resasc = (KRONROD_WEIGHTS @ np.abs([fx, fx - 0.5 * resk]).T).tolist()
    result = resk * half
    half = abs(half)
    resabs *= half
    resasc *= half
    err = abs((resk - resg) * half)
    if not (math.isfinite(result) and math.isfinite(err)):
        raise QuadratureConvergenceError(f"non-finite integrand on [{a:g}, {b:g}]")
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _TINY / (50.0 * _EPS):
        err = max(50.0 * _EPS * resabs, err)
    return result, err


def _adaptive(f, a: float, b: float, epsabs: float, epsrel: float, limit: int) -> tuple[float, float, int]:
    """Globally adaptive bisection; returns (value, error estimate, panels)."""
    value, err = _panel(f, a, b)
    heap = [(-err, a, b, value)]  # largest error first
    total, errsum, panels = value, err, 1
    roundoff = 0  # bisections that changed neither value nor error, QUADPACK dqage's iroff1
    while errsum > max(epsabs, epsrel * abs(total)):
        if roundoff >= _ROUNDOFF_LIMIT:
            raise QuadratureConvergenceError(
                f"roundoff prevents the tolerance {max(epsabs, epsrel * abs(total)):.3g} "
                f"(error estimate {errsum:.3g} after {panels} panels)"
            )
        if len(heap) >= limit:
            raise QuadratureConvergenceError(
                f"subdivision limit of {limit} intervals reached "
                f"(error estimate {errsum:.3g}, tolerance {max(epsabs, epsrel * abs(total)):.3g})"
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
        if abs(v - (v1 + v2)) <= 1e-5 * abs(v1 + v2) and e1 + e2 >= -0.99 * neg_err:
            roundoff += 1
        total += v1 + v2 - v
        errsum += e1 + e2 + neg_err
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
    return math.fsum(item[3] for item in heap), errsum, panels


def _wynn(diagonal: list, s: float) -> list:
    """Ascending diagonal of Wynn's epsilon table after appending partial sum s.

    ``diagonal[k]`` is eps_k of the previous diagonal; the even entries are
    the extrapolated limits. The diagonal stops where two neighbours agree
    to rounding, since the next entry would divide by their difference.
    """
    new = [s]
    before = 0.0
    for old in diagonal[:_WYNN_DEPTH]:
        delta = new[-1] - old
        if abs(delta) <= 4.0 * _EPS * abs(old):
            break
        new.append(before + 1.0 / delta)
        before = old
    return new


def _fourier(f, a: float, omega: float, weight: str, epsabs: float, epsrel: float,
             limit: int, limlst: int) -> tuple[float, float, int]:
    """int_a^inf f(x) cos|sin(omega x) dx from half-period cycles and Wynn's epsilon."""
    trig = np.cos if weight == "cos" else np.sin

    def g(x):
        return f(x) * trig(omega * x)

    half_period = math.pi / abs(omega)
    offset = 0.5 if weight == "cos" else 0.0  # zeros at (m + offset) * half_period
    z0 = (math.ceil(a / half_period - offset) + offset) * half_period
    head, head_err, panels = 0.0, 0.0, 0
    if z0 > a:
        head, head_err, panels = _adaptive(g, a, z0, epsabs * (1.0 - _CYCLE_SHARE), epsrel, limit)
    tail, errsum = 0.0, 0.0
    diagonal: list = []
    recent: list = []  # last extrapolated limits of the tail, newest first
    for k in range(limlst):
        lo = z0 + k * half_period
        cycle_eps = epsabs * (1.0 - _CYCLE_SHARE) * _CYCLE_SHARE ** (k + 1)
        value, err, n = _adaptive(g, lo, lo + half_period, cycle_eps, epsrel, limit)
        tail += value
        errsum += err
        panels += n
        diagonal = _wynn(diagonal, tail)
        recent = [diagonal[(len(diagonal) - 1) & ~1]] + recent[:2]
        if len(recent) == 3:
            target = max(epsabs, epsrel * abs(head + recent[0]))
            if head_err > (1.0 - _CYCLE_SHARE) * target:
                # epsrel held the head to its own value, which can exceed the whole
                # integral's target once the tail cancels part of it: redo it to its share
                head, head_err, n = _adaptive(g, a, z0, (1.0 - _CYCLE_SHARE) * target, 0.0, limit)
                panels += n
            limit_value = head + recent[0]
            extrap_err = max(sum(abs(recent[0] - r) for r in recent[1:]), 5.0 * _EPS * abs(limit_value))
            if extrap_err + head_err + errsum <= max(epsabs, epsrel * abs(limit_value)):
                return limit_value, extrap_err + head_err + errsum, panels
    raise QuadratureConvergenceError(
        f"Fourier integral did not settle within {limlst} half-period cycles"
    )


def quad(f, a: float, b: float, *, epsabs: float = 1.49e-8, epsrel: float = 1.49e-8,
         limit: int = 50, weight: str | None = None, wvar: float | None = None,
         limlst: int = 50) -> tuple[float, float, int]:
    """Integral of the vectorized ``f`` over ``[a, b]``; ``b`` may be ``inf``.

    Returns ``(value, error estimate, integrand points)``. ``limit`` caps the
    subintervals of each adaptive integration. With ``weight="cos"`` or
    ``"sin"`` the integrand is ``f(x) * cos|sin(wvar * x)`` over ``[a, inf)``
    and ``limlst`` caps the half-period cycles. Raises
    ``QuadratureConvergenceError`` when the tolerance is not reached.
    """
    a, b = float(a), float(b)
    if not math.isfinite(a) or b == -math.inf or math.isnan(b):
        raise ValueError(f"need a finite lower limit and b finite or +inf, got [{a}, {b}]")
    if weight is not None:
        if weight not in ("cos", "sin") or b != math.inf or not wvar:
            raise ValueError("weight 'cos' or 'sin' needs b = inf and a nonzero wvar")
        value, err, panels = _fourier(f, a, float(wvar), weight, epsabs, epsrel, limit, limlst)
    elif b == math.inf:
        def mapped(t):
            return f(a + (1.0 - t) / t) / (t * t)

        value, err, panels = _adaptive(mapped, 0.0, 1.0, epsabs, epsrel, limit)
    else:
        value, err, panels = _adaptive(f, a, b, epsabs, epsrel, limit)
    return value, err, 21 * panels
