import math
import re
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from legpade.errors import DomainError
from legpade.pade import PadeApproximant, construct
from legpade.scattering import (
    PotentialSpec,
    RNParams,
    born_series,
    coulomb_exact,
    coulomb_series,
    cross_section,
    exact_half_csc,
    rn_series,
)
from legpade.series import ComplexSeries, eval_partial_sum
from legpade.special import (
    _finite,
    _hankel_envelopes,
    _in_range,
    legendre_eval_all,
    log_gamma_complex,
    spherical_bessel_j,
    spherical_bessel_jy_all,
    spherical_bessel_y,
    threej_zero_sq,
    triple_product_integral,
)


def quad_triple_product(l, m, n, nodes=64):
    """Independent oracle: Gauss-Legendre quadrature of P_l P_m P_n on [-1, 1]."""
    x, w = leggauss(nodes)
    pl = np.array([legendre_eval_all(l, xi)[l] for xi in x])
    pm = np.array([legendre_eval_all(m, xi)[m] for xi in x])
    pn = np.array([legendre_eval_all(n, xi)[n] for xi in x])
    return float(np.dot(w, pl * pm * pn))


class TestLegendre:
    def test_low_order_values(self):
        assert legendre_eval_all(0, 0.3)[0] == 1.0
        assert legendre_eval_all(1, 0.3)[1] == 0.3
        # closed form (3x^2 - 1)/2 at x = 0.5
        assert legendre_eval_all(2, 0.5)[2] == pytest.approx(-0.125, abs=1e-15)

    def test_eval_all_endpoints(self):
        assert np.allclose(legendre_eval_all(2, 1.0), [1, 1, 1])
        assert np.allclose(legendre_eval_all(2, -1.0), [1, -1, 1])
        assert np.allclose(legendre_eval_all(3, 0.0), [1, 0, -0.5, 0], atol=1e-15)

    def test_eval_all_matches_scalar(self):
        x = 0.37
        table = legendre_eval_all(12, x)
        for l in range(13):
            assert table[l] == pytest.approx(legendre_eval_all(l, x)[l], abs=1e-15)

    def test_bounded_on_domain(self):
        rng = np.random.default_rng(7)
        for x in rng.uniform(-1, 1, 200):
            for l in (1, 5, 17):
                assert abs(legendre_eval_all(l, x)[l]) <= 1.0 + 1e-12

    def test_domain_error(self):
        with pytest.raises(DomainError):
            legendre_eval_all(3, 1.1)
        with pytest.raises(DomainError):
            legendre_eval_all(3, -1.0001)
        # arguments within a few ulps of 1 are accepted
        legendre_eval_all(3, 1.0 + 1e-16)

    def test_recurrence_consistency(self):
        # (l+1) P_{l+1} - (2l+1) x P_l + l P_{l-1} = 0
        rng = np.random.default_rng(11)
        for x in rng.uniform(-1, 1, 100):
            p = legendre_eval_all(21, x)
            for l in range(1, 20):
                resid = (l + 1) * p[l + 1] - (2 * l + 1) * x * p[l] + l * p[l - 1]
                assert abs(resid) < 1e-12

    def test_orthogonality_by_quadrature(self):
        x, w = leggauss(64)
        table = np.array([[legendre_eval_all(l, xi)[l] for xi in x] for l in range(21)])
        for l in range(21):
            for m in range(21):
                integral = float(np.dot(w, table[l] * table[m]))
                expected = 2.0 / (2 * l + 1) if l == m else 0.0
                assert abs(integral - expected) < 1e-12


class TestThreeJ:
    def test_trivial_values(self):
        assert threej_zero_sq(0, 0, 0) == Fraction(1)
        assert threej_zero_sq(1, 1, 1) == Fraction(0)  # odd parity
        assert threej_zero_sq(1, 2, 4) == Fraction(0)  # triangle fails

    def test_112_against_quadrature(self):
        # integral equals 2 * (3j)^2, so the quadrature oracle fixes the value
        assert threej_zero_sq(1, 1, 2) == Fraction(2, 15)
        assert quad_triple_product(1, 1, 2) == pytest.approx(2 * 2 / 15, abs=1e-14)

    def test_normalization_row(self):
        # (l, l, 0): picks out the Legendre normalization 2/(2l+1)
        assert triple_product_integral(3, 3, 0) == Fraction(2, 7)
        assert triple_product_integral(0, 0, 0) == Fraction(2)

    def test_quadrature_agreement(self):
        x, w = leggauss(64)
        table = np.array([[legendre_eval_all(l, xi)[l] for xi in x] for l in range(13)])
        for l in range(13):
            for m in range(13):
                for n in range(13):
                    exact = float(triple_product_integral(l, m, n))
                    numeric = float(np.dot(w, table[l] * table[m] * table[n]))
                    assert abs(exact - numeric) < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        from itertools import permutations

        for _ in range(40):
            l, m, n = rng.integers(0, 13, size=3)
            values = {threej_zero_sq(*p) for p in permutations((int(l), int(m), int(n)))}
            assert len(values) == 1

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            threej_zero_sq(-1, 1, 1)

    @pytest.mark.parametrize("l, m", [(40, 80), (97, 150), (200, 3), (300, 300)])
    def test_sum_rule_is_exact_at_high_orders(self, l, m):
        # P_l P_m = sum_n (2n+1) W(l, m, n) P_n at x = 1, where every P is 1; exact past the
        # orders the quadrature test reaches
        assert sum((2 * n + 1) * threej_zero_sq(l, m, n) for n in range(l + m + 1)) == Fraction(1)


class TestLogGamma:
    def test_integers(self):
        assert log_gamma_complex(1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma_complex(5.0).real == pytest.approx(math.log(24.0), rel=1e-14)
        assert log_gamma_complex(5.0).imag == 0.0

    def test_modulus_reflection_identity(self):
        # |Gamma(1+ib)|^2 = pi b / sinh(pi b); at b = 1 the modulus is
        # sqrt(pi/sinh(pi)) = 0.5215640468649398
        value = abs(np.exp(log_gamma_complex(1 + 1j)))
        assert value == pytest.approx(math.sqrt(math.pi / math.sinh(math.pi)), rel=1e-13)
        assert value == pytest.approx(0.5215640468649398, rel=1e-13)

    def test_against_mpmath_on_box(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        rng = np.random.default_rng(5)
        for _ in range(400):
            z = complex(rng.uniform(0.5, 10), rng.uniform(-10, 10))
            ref = complex(mp.loggamma(mp.mpc(z.real, z.imag)))
            assert abs(log_gamma_complex(z) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_conjugate_symmetry(self):
        z = 2.5 - 3.7j
        assert log_gamma_complex(z) == pytest.approx(
            log_gamma_complex(z.conjugate()).conjugate(), rel=1e-14
        )

    @pytest.mark.parametrize("z", [0.0, -1.0, -7.0, 0.49, -3.5 + 2j, complex(math.nan, 0.0),
                                   complex(1.0, math.nan), complex(1.0, math.inf), complex(math.inf, 0.0),
                                   "2", "1+1j", b"2", None, np.array([2.0]), [2.0], (2.0,), [[1, 2], [3]]])
    def test_left_of_half_plane_is_domain_error(self, z):
        # the Lanczos sum holds on finite z with Re z >= 1/2 only; at a NaN or infinite part it gives nan+nanj;
        # complex() would parse text, None is no number, and a list or an array is not one number
        shown = complex(z) if isinstance(z, (float, complex)) else repr(z)
        message = f"log-gamma needs a finite z with Re z >= 1/2, got z = {shown}"
        with pytest.raises(DomainError, match=re.escape(message)):
            log_gamma_complex(z)


class TestSphericalBessel:
    def test_closed_forms(self):
        assert spherical_bessel_j(0, 2.0) == pytest.approx(math.sin(2.0) / 2.0, rel=1e-14)
        assert spherical_bessel_j(1, 0.0) == 0.0
        assert spherical_bessel_j(0, 0.0) == 1.0
        # j_1(x) = sin x / x^2 - cos x / x at x = 1
        assert spherical_bessel_j(1, 1.0) == pytest.approx(
            math.sin(1.0) - math.cos(1.0), rel=1e-14
        )
        assert spherical_bessel_j(1, 1.0) == pytest.approx(0.30116867893975674, rel=1e-14)

    def test_against_scipy_grid(self):
        from scipy.special import spherical_jn

        for l in range(21):
            for x in np.concatenate([np.geomspace(1e-4, 4, 25), np.linspace(4, 100, 49)]):
                ours = spherical_bessel_j(l, float(x))
                ref = float(spherical_jn(l, x))
                assert abs(ours - ref) <= 1e-10 * max(abs(ref), 1e-280)

    def test_unitarity_sum(self):
        # sum over l of (2l+1) j_l(x)^2 converges to 1
        total = sum((2 * l + 1) * spherical_bessel_j(l, 5.0) ** 2 for l in range(41))
        assert abs(total - 1.0) < 1e-8

    def test_domain_error(self):
        with pytest.raises(DomainError):
            spherical_bessel_j(2, -0.5)
        with pytest.raises(DomainError):
            spherical_bessel_j(-1, 1.0)
        # NaN lies in no range
        with pytest.raises(DomainError, match="argument must be finite and non-negative, got nan"):
            spherical_bessel_j(2, math.nan)
        with pytest.raises(DomainError, match="argument must be finite and positive, got nan"):
            spherical_bessel_y(2, math.nan)
        with pytest.raises(DomainError, match="argument must be finite and positive, got 0.0"):
            spherical_bessel_y(2, 0.0)
        # scipy gives 0 at infinity; the recurrences gave NaN
        with pytest.raises(DomainError, match="argument must be finite and non-negative, got inf"):
            spherical_bessel_j(2, math.inf)
        with pytest.raises(DomainError, match="argument must be finite and positive, got inf"):
            spherical_bessel_y(2, math.inf)

    def test_neumann_wronskian(self):
        # j_l' y_l - j_l y_l' = 1/x^2 checked through the recurrence form:
        # j_{l+1} y_l - j_l y_{l+1} = 1/x^2
        for x in (0.7, 3.3, 25.0):
            for l in range(8):
                lhs = spherical_bessel_j(l + 1, x) * spherical_bessel_y(l, x) - \
                    spherical_bessel_j(l, x) * spherical_bessel_y(l + 1, x)
                assert lhs == pytest.approx(1.0 / (x * x), rel=1e-10)


# orders 0..40 on a wide log grid plus x = l +- 1/2 around every turning point,
# where the array form switches j between its two recurrences
_BESSEL_L = 40
_BESSEL_X = np.concatenate([np.geomspace(1e-4, 1e4, 41),
                            [l + d for l in range(1, _BESSEL_L + 1) for d in (-0.5, 0.5)]])


class TestSphericalBesselAllOrders:
    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        j, y = spherical_bessel_jy_all(_BESSEL_L, _BESSEL_X)
        assert j.shape == y.shape == (_BESSEL_L + 1, _BESSEL_X.size)
        for i, x in enumerate(_BESSEL_X.tolist()):
            scale = mp.sqrt(mp.pi / (2 * mp.mpf(x)))
            for l in range(_BESSEL_L + 1):
                ref_j = float(mp.besselj(l + 0.5, x) * scale)
                assert abs(j[l, i] - ref_j) <= 1e-10 * max(abs(ref_j), 1e-280)
                ref_y = float(mp.bessely(l + 0.5, x) * scale)
                if abs(ref_y) < 1e300:
                    assert abs(y[l, i] - ref_y) <= 1e-10 * abs(ref_y)
                else:  # beyond the double range y_l overflows
                    assert not abs(y[l, i]) < 1e300

    def test_scalar_wrappers_are_array_entries(self):
        _, y = spherical_bessel_jy_all(_BESSEL_L, _BESSEL_X)
        for l in range(_BESSEL_L + 1):
            j, _ = spherical_bessel_jy_all(l, _BESSEL_X)
            for i, x in enumerate(_BESSEL_X.tolist()):
                assert spherical_bessel_j(l, x) == j[l, i]
                if np.isfinite(y[l, i]):
                    assert spherical_bessel_y(l, x) == y[l, i]

    def test_overflowed_y_stays_minus_infinity(self):
        # y_l ~ -(2l-1)!!/x^(l+1) overflows from l = 1 at x = 1e-200; the upward
        # recurrence must not go on to form -inf - (-inf) = NaN
        assert [spherical_bessel_y(l, 1e-200) for l in (3, 4, 5)] == [-math.inf] * 3
        j, y = spherical_bessel_jy_all(5, [1e-200, 1e-100])
        assert not np.isnan(j).any() and not np.isnan(y).any()
        # a NaN argument still gives NaN
        assert np.isnan(spherical_bessel_jy_all(5, [math.nan])[1]).all()

    @pytest.mark.parametrize("n", [1, 8, 40])
    def test_nan_entry_leaves_the_others_alone(self, n):
        # a NaN once made the Miller test false for every entry, so j_8(0.1) came out 2.89e-3, not 2.90e-16
        x = _BESSEL_X
        with_nan = np.insert(x, [0, 3, x.size], math.nan)
        nan_at = np.isnan(with_nan)
        for alone, among in zip(spherical_bessel_jy_all(n, x), spherical_bessel_jy_all(n, with_nan)):
            assert among[:, ~nan_at].tobytes() == alone.tobytes()
            assert np.isnan(among[:, nan_at]).all()

    def test_origin(self):
        j, _ = spherical_bessel_jy_all(5, np.array([0.0, 1e-300]))
        assert j[:, 0].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert j[0, 1] == 1.0 and j[1, 1] == pytest.approx(1e-300 / 3, rel=1e-15)

    @pytest.mark.parametrize("n", [0, 3])
    def test_empty_x(self, n):
        j, y = spherical_bessel_jy_all(n, np.array([]))
        assert j.shape == y.shape == (n + 1, 0)


class TestHankelEnvelopes:
    # left and right of every order's turning point, near and far from the real axis
    Z = np.array([0.5 + 0.1j, 3.0 + 2.0j, 12.0, 25.0 + 40.0j, 100.0 + 0.5j, 150.0 + 60.0j])

    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        u = _hankel_envelopes(_BESSEL_L, self.Z)
        assert u.shape == (_BESSEL_L + 1, self.Z.size)
        # mpmath forms h^(1) = j + iy, which cancels by e^(-2 Im z) off the real axis
        with mp.workdps(100):
            for i, z in enumerate(self.Z.tolist()):
                z = mp.mpc(z)
                for l in range(_BESSEL_L + 1):
                    ref = complex(mp.hankel1(l + 0.5, z) * mp.sqrt(mp.pi / (2 * z)) * mp.exp(-1j * z))
                    assert abs(u[l, i] - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("text", ["10", b"10", np.str_("0.5"), ["1", "2"], np.array([b"0.5"]),
                                  np.array(["0.5"], dtype=object), np.array("10", dtype=object),
                                  np.array([0.5, "1"], dtype=object)])
def test_numeric_text_is_not_a_number(text):
    # numpy would read these as 10.0, 0.5, [1.0, 2.0], [0.5], [0.5], 10.0 and [0.5, 1.0]:
    # an object array converts entry by entry, and float() parses text
    with pytest.raises(DomainError, match=re.escape(f"got {text!r}")):
        _in_range(text, 0.0, 100.0, "value must lie in [0, 100], got {}")


def test_finite_guard_names_the_entries_that_are_not_finite():
    calls = []

    def message(bad):
        calls.append(bad)
        return f"not finite at entries {np.flatnonzero(bad).tolist()}"

    assert _finite(lambda: 1.0 / np.array([2.0, 4.0]), message).tolist() == [0.5, 0.25]
    assert _finite(lambda: complex(3.0, 4.0), message) == 3 + 4j  # a Python scalar passes through
    assert calls == []  # the message is formatted only on failure
    # division by zero, 0/0 and overflow; pytest turns numpy's RuntimeWarning into an error,
    # so the guard must keep all three quiet
    def quotient():
        return np.array([1.0, 1.0, 0.0, 1e308]) / np.array([2.0, 0.0, 0.0, 1e-308])

    with pytest.raises(DomainError, match=r"^not finite at entries \[1, 2, 3\]$"):
        _finite(quotient, message)
    assert len(calls) == 1
    with pytest.raises(DomainError, match=r"^a plain message$"):
        _finite(quotient, "a plain message")


# every message a non-finite guard of pade, series and scattering raises, in full, and RNParams' |Q| < M
GUARD_MESSAGES = {
    "pole floor": (lambda: PadeApproximant([1.0], [1.0, 1e308, 1e308]),
                   "the denominator is too large: sum|b| overflows"),
    "product kernel": (lambda: construct(ComplexSeries(np.full(9, 1e308)), 3, 3),
                       "series coefficients are too large for the product kernel (max|c| = 1.000e+308)"),
    "closed form": (lambda: exact_half_csc(np.array([1e-320, 1.0])),
                    "1/(2 sin(theta/2)) is not finite at theta = 1e-320"),
    "coulomb series": (lambda: coulomb_series(4, 1e-308),
                       "wavenumber k = 1e-308 is too small: the partial-wave coefficients overflow"),
    "coulomb phase": (lambda: coulomb_exact(1.0, 1e-307),
                      "wavenumber k = 1e-307 is too small: the partial-wave coefficients overflow"),
    "born series": (lambda: born_series(PotentialSpec("inverse_r2", 1e308), 4, 1.0),
                    "wavenumber k = 1.0 is too small or the coupling alpha = 1e+308 too large: "
                    "the partial-wave coefficients overflow"),
    "rn weights": (lambda: rn_series(3, RNParams(10.0, 5.0, 1e-4, mu=1e151)),
                   "mass = 10.0 and particle mass mu = 1e+151 make the first-order weights overflow"),
    "cross section": (lambda: cross_section(np.array([1.0, 1e200j])),
                      "the cross section |f|^2 overflows: largest |f| = 1.000e+200"),
    "partial sum": (lambda: eval_partial_sum(ComplexSeries([1e308, 1e308]), 0.0),
                    "the partial sum overflows at theta = 0.0"),
    "partial sum array": (lambda: eval_partial_sum(ComplexSeries([1e308, -1e308]), np.array([0.0, math.pi])),
                          "the partial sum overflows at theta = 3.141592653589793"),  # the least angle that overflows
    "extremal charge": (lambda: RNParams(10.0, -10.0, 1e-4),
                        "|Q| = 10.0 must be strictly below M = 10.0 (extremal configurations are rejected)"),
    "charge above mass": (lambda: RNParams(np.float64(2.0), 3.0, 1e-4),
                          "|Q| = 3.0 must be strictly below M = 2.0 (extremal configurations are rejected)"),
}


@pytest.mark.parametrize("name", sorted(GUARD_MESSAGES))
def test_guard_message_in_full(name):
    call, message = GUARD_MESSAGES[name]
    with pytest.raises(DomainError) as raised:
        call()
    assert str(raised.value) == message
