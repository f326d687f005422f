"""Exact rational oracles for the squared zero-projection 3j symbols that ``pade._product_matrix``
evaluates in floats. The tests import them as ``from exact import ...``; no ``legpade`` module uses them."""

import math
from fractions import Fraction


def threej_zero_sq(l: int, m: int, n: int) -> Fraction:
    """Exact square of the Wigner 3j symbol (l m n; 0 0 0) for non-negative int l, m, n.

    Racah's closed form C(J-2l, g-l) C(J-2m, g-m) C(J-2n, g-n) / ((J+1) C(J, g)), J = l+m+n = 2g:
    what pade._product_matrix evaluates in floats, where the powers of 4 of A(p) = C(2p, p)/4^p cancel.
    Fraction(0) when J is odd or the triangle inequality fails.
    """
    J = l + m + n
    if J % 2 == 1 or not abs(l - m) <= n <= l + m:
        return Fraction(0)
    g = J // 2
    return Fraction(math.comb(J - 2 * l, g - l) * math.comb(J - 2 * m, g - m) * math.comb(J - 2 * n, g - n),
                    (J + 1) * math.comb(J, g))


def triple_product_integral(l: int, m: int, n: int) -> Fraction:
    """Exact value of the Legendre triple product integral on [-1, 1]: twice the squared 3j symbol."""
    return 2 * threej_zero_sq(l, m, n)
