"""Rational resummation of a truncated Legendre series.

The approximant is a ratio of two Legendre-basis polynomials, degrees L over
M, whose coefficients are matched to the series: expanding

    (sum_k b_k P_k) * (sum_m c_m P_m)

in Legendre polynomials, the orders L+1 .. L+M are forced to vanish (an MxM
linear system for b_1..b_M with b_0 = 1) and the orders 0 .. L define the
numerator. One product-linearization matrix G, with G[n, k] the order-n
coefficient of P_k * sum_m c_m P_m, serves all three: its rows L+1 .. L+M
form the system, G[:L+1] @ b is the numerator and G[L+1:] @ b the residual.
Products of Legendre polynomials are relinearized through squared
zero-projection 3j symbols. For each (n, k) only the k+1 orders
m = n-k+2j can contribute, so G sums just that band, weighted by the
symbols' float closed form: O((L+M) M^2) work and O((L+M) M) memory. G[n, k]
does not depend on L or M, and G of any [L/M] is a bit-identical slice of G
of a larger one built from the same series. The exact rational symbols of
tests/exact.py are the oracle it is tested against. The system is solved by
numpy.linalg and rejected when its 1-norm condition number reaches 1e14.

The matching sums run over every coefficient the caller supplies, not just
the first L+M+1: feeding more terms of the underlying function sharpens the
match (and is what reproduces the reference worked examples, which carry the
series two orders past L+M).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InsufficientCoefficientsError,
    PoleError,
    ResidualTooLargeError,
    SingularSystemError,
)
from .series import ComplexSeries, _checked, _legendre_sums
# legendre_eval_all and threej_zero_sq_float are unused here; perfbench/tracer.py rebinds them on this module
from .special import _check_order, _finite, legendre_eval_all, threej_zero_sq_float  # noqa: F401

__all__ = [
    "PadeApproximant",
    "ConstructionReport",
    "build_denominator_system",
    "solve_denominator",
    "compute_numerator",
    "construct",
    "evaluate",
    "default_split",
]

_RCOND_FLOOR = 1e-14
_RESIDUAL_FLOOR = 1e-8
_POLE_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class PadeApproximant:
    """Numerator a_0..a_L and denominator b_0..b_M in the Legendre basis, compared by identity."""

    numerator: np.ndarray
    denominator: np.ndarray

    def __post_init__(self):
        # ComplexSeries checks each side and stores a read-only copy
        a = ComplexSeries(self.numerator).coefficients
        b = ComplexSeries(self.denominator).coefficients
        if b[0] != 1.0:
            raise ValueError(f"denominator must be normalized to b_0 = 1, got {b[0]}")
        floor = _finite(lambda: _POLE_FLOOR * float(np.abs(b).sum()),  # evaluate's pole floor, fixed once
                        "the denominator is too large: sum|b| overflows")
        object.__setattr__(self, "numerator", a)
        object.__setattr__(self, "denominator", b)
        object.__setattr__(self, "_pole_floor", floor)

    @property
    def L(self) -> int:
        return self.numerator.size - 1

    @property
    def M(self) -> int:
        return self.denominator.size - 1


@dataclass(frozen=True)
class ConstructionReport:
    """Numerical health of a construction: linear-system conditioning and the
    recomputed magnitude of the enforced-zero orders."""

    condition_estimate: float
    residual: float


def default_split(n: int) -> tuple[int, int]:
    """Default (L, M) with L + M = n: equal halves, numerator gets the odd one."""
    n = _check_order(n, "series order")
    return (n + 1) // 2, n // 2


def _product_matrix(series: ComplexSeries, L: int, M: int) -> tuple[np.ndarray, int, int]:
    """G[n, k] for n = 0..L+M, k = 0..M, the order-n coefficient of P_k * sum_m c_m P_m,
    and the degrees as ints, after checking them against the series' coefficient count.

    P_k P_m = sum_n (2n+1) W(k, m, n) P_n, W the squared zero-projection 3j symbol.
    Only the band m = n-k+2j, j = 0..k, n+j >= k, is nonzero; there, with g = n+j and
    A(p) = (2p)!/(2^p p!)^2, W = A(g-k) A(k-j) A(j) / ((2g+1) A(g)). Each entry sums
    its band in a fixed order, so G of a smaller L, M is a bit-identical slice.
    """
    L, M = _check_order(L, "numerator degree L"), _check_order(M, "denominator degree M")
    c = series.coefficients
    if c.size < L + M + 1:
        raise InsufficientCoefficientsError(f"need at least {L + M + 1} coefficients for L={L}, M={M}; "
                                            f"series has {c.size}")
    n = np.arange(L + M + 1)[:, None]
    p = np.arange(1, L + 2 * M + 1)
    A = np.concatenate([[1.0], np.cumprod((2 * p - 1) / (2 * p))])

    def assemble():
        G = np.empty((L + M + 1, M + 1), dtype=complex)
        for k in range(M + 1):
            j = np.arange(k + 1)
            g, m = n + j, n - k + 2 * j
            on = (g >= k) & (m < c.size)
            # entries off the band index A[0] and c[0] and are then zeroed
            w = A[(g - k) * on] * A[k - j] * A[j] / ((2 * g + 1) * A[g])
            G[:, k] = np.where(on, w * c[m * on], 0.0).sum(axis=1)
        return (2 * n + 1) * G

    return _finite(assemble, _too_large(c)), L, M


def _too_large(c: np.ndarray) -> str:
    """_finite's message where a product with the series c leaves the float range."""
    return f"series coefficients are too large for the product kernel (max|c| = {np.max(np.abs(c)):.3e})"


def _system(G: np.ndarray, L: int) -> tuple[np.ndarray, np.ndarray]:
    # rows L+1..L+M of G over 2n+1 are the sums of c_m W(k, m, n)
    rows = G[L + 1:] / (2 * np.arange(L + 1, G.shape[0]) + 1)[:, None]
    return rows[:, 1:], -rows[:, 0]


def _denominator(G: np.ndarray, L: int, too_large) -> tuple[np.ndarray, float]:
    """b_0..b_M and the system's 1-norm condition number; _finite(too_large) guards the solve, construct its residual."""
    if G.shape[1] == 1:
        return np.array([1.0 + 0.0j]), 1.0
    a, rhs = _system(G, L)
    cond = float(np.linalg.cond(a, 1))
    if not cond < 1.0 / _RCOND_FLOOR:
        raise SingularSystemError(f"condition number {cond:.3e} is not below 1/{_RCOND_FLOOR:g}; "
                                  "system is numerically singular", condition_estimate=cond)
    return np.concatenate([[1.0 + 0.0j], _finite(lambda: np.linalg.solve(a, rhs), too_large)]), cond


def build_denominator_system(series: ComplexSeries, L: int, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Matrix and right-hand side of the vanishing conditions for b_1..b_M.

    Row j (for enforced order n = L+j): A[j-1, k-1] = sum_m c_m W(k, m, n)
    with W the squared zero-projection 3j symbol, rhs[j-1] the negated b_0
    column. Sums run over all coefficients the series carries.
    """
    G, L, M = _product_matrix(series, L, M)
    if M < 1:
        raise DomainError("the denominator system needs M >= 1")
    return _system(G, L)


def solve_denominator(series: ComplexSeries, L: int, M: int) -> tuple[np.ndarray, float]:
    """Denominator coefficients b_0..b_M (b_0 = 1) and the 1-norm condition
    number of the system (1.0 when M = 0)."""
    G, L, _ = _product_matrix(series, L, M)
    return _denominator(G, L, _too_large(series.coefficients))


def compute_numerator(series: ComplexSeries, denominator: np.ndarray, L: int) -> np.ndarray:
    """Numerator a_0..a_L for a denominator b_0..b_M, checked as a ComplexSeries; its length sets M."""
    b = ComplexSeries(denominator).coefficients
    G, L, _ = _product_matrix(series, L, b.size - 1)
    return _finite(lambda: G[: L + 1] @ b, _too_large(series.coefficients))


def construct(series: ComplexSeries, L: int, M: int) -> tuple[PadeApproximant, ConstructionReport]:
    """Build the degree-(L, M) approximant matched to the series.

    The report carries the linear-system condition estimate and the largest
    recomputed magnitude among the enforced-zero orders L+1 .. L+M; the
    construction fails if that residual exceeds 1e-8 * max|c|.
    """
    G, L, _ = _product_matrix(series, L, M)
    too_large = _too_large(series.coefficients)
    b, cond = _denominator(G, L, too_large)
    a = _finite(lambda: G[: L + 1] @ b, too_large)
    residual = float(np.max(np.abs(_finite(lambda: G[L + 1:] @ b, too_large)), initial=0.0))
    scale = float(np.max(np.abs(series.coefficients)))
    if residual > _RESIDUAL_FLOOR * scale:
        raise ResidualTooLargeError(f"enforced-zero orders leave residual {residual:.3e} > {_RESIDUAL_FLOOR:g} "
                                    f"* max|c| = {_RESIDUAL_FLOOR * scale:.3e}", residual=residual)
    return PadeApproximant(a, b), ConstructionReport(condition_estimate=cond, residual=residual)


def evaluate(p: PadeApproximant, theta):
    """Value of the approximant at an angle in [0, pi] (a complex) or an array of them.

    Numerator and denominator are summed as by ``eval_partial_sum``, and an angle's value has the same bits
    in any array. A float angle's sums and quotient are Python's; its division may differ from numpy's in the last bit.
    Raises PoleError where the denominator is below 1e-12 * sum|b_m|, the floor p fixed when it was built:
    a spurious rational pole inside the domain. Its ``theta`` is the angle (a float) for a float angle and
    the array of pole angles otherwise. Raises DomainError where a sum or the value overflows, at every angle shape.
    """
    def quotient():
        num, den = _legendre_sums(theta, p.numerator, p.denominator)
        at_pole = np.abs(den) < p._pole_floor  # Python's abs raises OverflowError where |den| overflows
        if at_pole.any():
            poles = np.asarray(theta, dtype=float)[at_pole] if at_pole.ndim else float(theta)
            raise PoleError(f"denominator vanishes at theta = {poles} (|Q| = {np.min(np.abs(den)):.3e})",
                            theta=poles)
        return num / den

    return _checked(theta, "the approximant", quotient)
