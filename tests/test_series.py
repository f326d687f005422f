import math

import numpy as np
import pytest

from legpade.errors import DomainError, QuadratureConvergenceError
from legpade.scattering import exact_half_csc
from legpade.series import ComplexSeries, eval_partial_sum, project_legendre_coefficient
from legpade.special import legendre_eval_all


class TestComplexSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            ComplexSeries(np.array([]))
        with pytest.raises(ValueError):
            ComplexSeries(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            ComplexSeries(np.array([1.0, np.inf * 1j]))
        # numpy would parse text as numbers: str, bytes, mixed, a text array and text in an object array;
        # it would convert other objects one by one, or fail with its own error
        for text in (["1", "0.5"], [b"1", b"2"], [1.0, "2"], np.array(["1", "2"]), "12",
                     np.array(["1", "0.5"], dtype=object), np.array([1.0, b"2"], dtype=object),
                     {"a": 1}, None, object(), np.array([0.5], dtype=object)):
            with pytest.raises(ValueError, match="numbers, not text"):
                ComplexSeries(text)

    def test_immutable(self):
        s = ComplexSeries(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            s.coefficients[0] = 5.0

    @pytest.mark.parametrize("n", [1, 3])
    def test_compares_and_hashes_by_identity(self, n):
        # an ndarray field has no usable value == or hash; values compare with np.array_equal
        a, b = ComplexSeries(np.ones(n)), ComplexSeries(np.ones(n))
        assert a == a and a != b
        assert a not in [b] and len({a, b}) == 2 and {a: 1}[a] == 1
        assert np.array_equal(a.coefficients, b.coefficients)

    def test_stores_one_complex_copy(self):
        c = np.array([1.0, 2.0])
        s = ComplexSeries(c)
        c[0] = 5.0
        assert s.coefficients.dtype == complex and s.coefficients[0] == 1.0
        z = np.array([1.0, 2.0], dtype=complex)
        assert not np.shares_memory(ComplexSeries(z).coefficients, z)

    def test_order_and_len(self):
        s = ComplexSeries(np.arange(5, dtype=complex))
        assert s.order == 4


class TestEvalPartialSum:
    def test_alternating_sum_at_pi(self):
        # P_l(-1) = (-1)^l, so seven unit coefficients sum to 1
        s = ComplexSeries(np.ones(7))
        assert eval_partial_sum(s, math.pi) == pytest.approx(1.0, abs=1e-14)

    def test_forward_direction_sums_coefficients(self):
        rng = np.random.default_rng(1)
        c = rng.normal(size=6) + 1j * rng.normal(size=6)
        s = ComplexSeries(c)
        assert eval_partial_sum(s, 0.0) == pytest.approx(complex(np.sum(c)), rel=1e-14)

    def test_constant_series(self):
        s = ComplexSeries(np.array([2 + 3j]))
        for theta in (0.0, 1.0, math.pi):
            assert eval_partial_sum(s, theta) == 2 + 3j

    def test_domain(self):
        s = ComplexSeries(np.ones(3))
        with pytest.raises(DomainError):
            eval_partial_sum(s, -0.1)
        with pytest.raises(DomainError):
            eval_partial_sum(s, math.pi + 0.1)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        c1 = rng.normal(size=5) + 1j * rng.normal(size=5)
        c2 = rng.normal(size=5) + 1j * rng.normal(size=5)
        alpha, beta = 1.3 - 0.2j, -0.7 + 2j
        s12 = ComplexSeries(alpha * c1 + beta * c2)
        for theta in rng.uniform(0, math.pi, 20):
            combined = alpha * eval_partial_sum(ComplexSeries(c1), theta) + beta * eval_partial_sum(
                ComplexSeries(c2), theta
            )
            assert eval_partial_sum(s12, theta) == pytest.approx(combined, rel=1e-13, abs=1e-13)


class TestProjection:
    def test_orthonormal_projection(self):
        f = lambda theta: legendre_eval_all(3, np.cos(theta))[3]
        assert project_legendre_coefficient(f, 3) == pytest.approx(1.0, abs=1e-12)
        assert project_legendre_coefficient(f, 2) == pytest.approx(0.0, abs=1e-12)

    def test_half_cosecant_coefficients_are_unity(self):
        f = lambda theta: 1.0 / (2.0 * np.sin(0.5 * theta))
        for n in range(7):
            assert project_legendre_coefficient(f, n) == pytest.approx(1.0, abs=1e-9)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            size = int(rng.integers(1, 11))
            c = rng.normal(size=size) + 1j * rng.normal(size=size)
            s = ComplexSeries(c)
            f = lambda theta: eval_partial_sum(s, theta)
            for n in range(size):
                assert project_legendre_coefficient(f, n) == pytest.approx(
                    complex(c[n]), abs=1e-10
                )

    def test_integrable_endpoint_singularity(self):
        # (5/2) int_0^pi theta^-1.5 P_2(cos theta) sin theta dtheta, from mpmath
        assert abs(project_legendre_coefficient(lambda t: t**-1.5, 2) - 3.29573866130422379) < 1e-10

    def test_vanishing_coefficient_of_large_function(self):
        # the absolute tolerance must clear quad's 50 eps * integral|integrand| floor
        assert project_legendre_coefficient(lambda t: 20.0, 1) == pytest.approx(0.0, abs=1e-11)
        assert project_legendre_coefficient(lambda t: 1e4 * np.cos(t) ** 2, 1) == pytest.approx(
            0.0, abs=1e-8
        )
        # a small imaginary part next to a large real one shares the real part's tolerance
        small_imag = project_legendre_coefficient(lambda t: 20.0 + 1e-6j * np.cos(t), 1)
        assert small_imag == pytest.approx(1e-6j, abs=1e-11)

    def test_divergent_projection_raises(self):
        # int 1/theta^2 d(cos theta) diverges at theta = 0; bisection toward it
        # runs into the subdivision limit
        with pytest.raises(QuadratureConvergenceError,
                           match=r"quadrature on \[0, 3\.14159\] did not converge: subdivision limit"):
            project_legendre_coefficient(lambda theta: 1.0 / theta**2, 0)

    def test_each_angle_evaluated_once(self):
        # real and imaginary parts share one panel sequence, and the first panel's
        # values, which set the absolute tolerance, are reused by the quadrature
        angles = []

        def f(theta):
            angles.extend(theta.tolist())
            return np.cos(theta) + 1j * np.sin(3.0 * theta)

        project_legendre_coefficient(f, 2)
        assert len(angles) - len(set(angles)) == 0

    def test_one_call_per_panel(self):
        # f gets each panel's 21 nodes at once, and each distinct panel only once
        panels = []

        def f(theta):
            panels.append(theta.copy())
            return exact_half_csc(theta)

        assert project_legendre_coefficient(f, 3) == pytest.approx(1.0, abs=1e-9)
        assert {theta.shape for theta in panels} == {(21,)}
        assert len(panels) == len({theta.tobytes() for theta in panels}) == 3

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            project_legendre_coefficient(lambda theta: 1.0, -1)
