import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from exact import threej_zero_sq
from numpy.polynomial.legendre import legroots

import legpade.pade as pade
from legpade.errors import (
    DomainError,
    InsufficientCoefficientsError,
    PoleError,
    ResidualTooLargeError,
    SingularSystemError,
)
from legpade.pade import (
    ConstructionReport,
    PadeApproximant,
    _product_matrix,
    _system,
    build_denominator_system,
    compute_numerator,
    construct,
    default_split,
    evaluate,
    solve_denominator,
)
from legpade.scattering import PotentialSpec, born_series, coulomb_series, unit_series
from legpade.series import ComplexSeries, eval_partial_sum, project_legendre_coefficient


def random_series(rng, size):
    return ComplexSeries(rng.normal(size=size) + 1j * rng.normal(size=size))


def check_matching_property(scale):
    # orders 0..L of c*Q match the numerator, orders L+1..L+M vanish
    rng = np.random.default_rng(21)
    for L, M in [(3, 3), (2, 1), (1, 4)]:
        series = ComplexSeries(random_series(rng, L + M + 1).coefficients * scale)
        approx, _ = construct(series, L, M)
        den = ComplexSeries(approx.denominator)

        def product(theta):
            return eval_partial_sum(series, theta) * eval_partial_sum(den, theta)

        for n in range(L + M + 1):
            coefficient = project_legendre_coefficient(product, n)
            target = approx.numerator[n] if n <= L else 0.0
            assert abs(coefficient - target) < 1e-9 * scale


class TestDenominatorSystem:
    def test_minimal_unit_system(self):
        # L=0, M=1 with c_0 = c_1 = 1: selection rules leave W(1,0,1) = 1/3
        a, rhs = _system(*_product_matrix(unit_series(1), 0, 1)[:2])
        assert a.shape == (1, 1) and rhs.shape == (1,)
        assert a[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert rhs[0] == pytest.approx(-1.0 / 3.0, rel=1e-15)

    def test_longer_series_extends_the_sums(self):
        # with c_2 supplied the same entry gains W(1,2,1) = 2/15
        a, rhs = _system(*_product_matrix(unit_series(2), 0, 1)[:2])
        assert a[0, 0] == pytest.approx(1.0 / 3.0 + 2.0 / 15.0, rel=1e-14)
        assert rhs[0] == pytest.approx(-1.0 / 3.0, rel=1e-15)

    def test_constant_function_needs_no_denominator(self):
        series = ComplexSeries(np.array([3.2 + 0.5j, 0.0]))
        b = construct(series, 0, 1)[0].denominator
        assert b[1] == pytest.approx(0.0, abs=1e-15)

    def test_m_zero_has_trivial_denominator(self):
        approx, report = construct(unit_series(4), 4, 0)
        assert np.array_equal(approx.denominator, np.array([1.0 + 0j]))
        assert report.condition_estimate == 1.0 and report.residual == 0.0

    def test_insufficient_coefficients(self):
        with pytest.raises(InsufficientCoefficientsError):
            construct(unit_series(3), 3, 3)

    def test_no_system_without_a_denominator(self):
        with pytest.raises(DomainError, match="needs M >= 1"):
            build_denominator_system(unit_series(4), 4, 0)

    def test_zero_series_is_singular(self):
        series = ComplexSeries(np.zeros(3))
        with pytest.raises(SingularSystemError):
            construct(series, 0, 2)


class TestSolve:
    def test_matches_numpy(self):
        rng = np.random.default_rng(9)
        for m in (1, 2, 4, 7):
            series = random_series(rng, 2 * m + 1)
            a, rhs = _system(*_product_matrix(series, m, m)[:2])
            approx, report = construct(series, m, m)
            b, cond = approx.denominator, report.condition_estimate
            assert np.allclose(a @ b[1:], rhs, rtol=1e-11, atol=1e-12)
            assert np.allclose(b[1:], np.linalg.solve(a, rhs), rtol=1e-11, atol=1e-12)
            assert cond == pytest.approx(np.linalg.cond(a, 1), rel=1e-12)

    def test_singular_raises_with_condition(self):
        with pytest.raises(SingularSystemError) as exc_info:
            construct(ComplexSeries(np.zeros(5)), 2, 2)
        assert exc_info.value.condition_estimate == math.inf


class TestExactOracle:
    """The float product kernel against sums of exact-Fraction 3j symbols."""

    @pytest.mark.parametrize("family", ["unit", "coulomb"])
    @pytest.mark.parametrize("degree", [20, 40])
    def test_kernel_matches_exact_threej(self, family, degree):
        L = M = degree
        series = unit_series(L + M + 2) if family == "unit" else coulomb_series(L + M + 2, 1.0)
        c = series.coefficients
        G, _, _ = _product_matrix(series, L, M)
        a, rhs = _system(G, L)
        b = np.concatenate([[1.0], np.random.default_rng(degree).normal(size=M)])
        numerator = G[: L + 1] @ b  # construct's numerator, at a denominator that is not construct's

        def threej_sums(k, n):
            orders = range(abs(n - k), min(c.size - 1, n + k) + 1)
            return sum(c[m] * float(threej_zero_sq(k, m, n)) for m in orders)

        exact_a = np.array([[threej_sums(k, n) for k in range(1, M + 1)] for n in range(L + 1, L + M + 1)])
        exact_rhs = -np.array([threej_sums(0, n) for n in range(L + 1, L + M + 1)])
        exact_numerator = np.array(
            [(2 * n + 1) * sum(b[k] * threej_sums(k, n) for k in range(M + 1)) for n in range(L + 1)]
        )
        scale = np.max(np.abs(exact_a))
        assert np.max(np.abs(a - exact_a)) <= 1e-14 * scale
        assert np.max(np.abs(rhs - exact_rhs)) <= 1e-14 * scale
        assert np.max(np.abs(numerator - exact_numerator)) <= 1e-14 * np.max(np.abs(exact_numerator))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), L=st.integers(0, 12), M=st.integers(0, 12))
    def test_every_entry_matches_exact_threej(self, data, L, M):
        # series cut inside the band (fewer than L+2M+1 terms) or carried past it
        size = data.draw(st.integers(L + M + 1, L + 2 * M + 3))
        decades = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=size, max_size=size))
        phases = data.draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=size, max_size=size))
        c = 10.0 ** np.array(decades) * np.exp(1j * np.array(phases))
        G, _, _ = _product_matrix(ComplexSeries(c), L, M)
        assert G.shape == (L + M + 1, M + 1)
        for n in range(L + M + 1):
            for k in range(M + 1):
                orders = range(abs(n - k), min(size - 1, n + k) + 1)
                w = [threej_zero_sq(k, m, n) for m in orders]
                re = sum(Fraction(c[m].real) * x for m, x in zip(orders, w))
                im = sum(Fraction(c[m].imag) * x for m, x in zip(orders, w))
                exact = (2 * n + 1) * complex(float(re), float(im))
                scale = (2 * n + 1) * sum(abs(c[m]) * float(x) for m, x in zip(orders, w))
                assert abs(G[n, k] - exact) <= 1e-14 * scale

    @pytest.mark.parametrize("n", range(1, 13))
    def test_unit_construct_within_condition_of_exact(self, n):
        # [n/n] of the unit series on N = 2n+2, solved exactly: S[j][k] = sum_m W(k, m, j) over m = 0..N
        L = M = n
        S = [[sum(threej_zero_sq(k, m, j) for m in range(2 * n + 3)) for k in range(M + 1)]
             for j in range(L + M + 1)]
        # Gauss-Jordan on rows L+1..L+M for b_1..b_M with b_0 = 1
        rows = [S[j][1:] + [-S[j][0]] for j in range(L + 1, L + M + 1)]
        for col in range(M):
            pivot = next(r for r in range(col, M) if rows[r][col] != 0)
            rows[col], rows[pivot] = rows[pivot], rows[col]
            for r in range(M):
                if r != col and rows[r][col] != 0:
                    f = rows[r][col] / rows[col][col]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
        b = [Fraction(1)] + [row[M] / row[i] for i, row in enumerate(rows)]
        a = [(2 * j + 1) * sum(bk * s for bk, s in zip(b, S[j])) for j in range(L + 1)]
        approx, report = construct(unit_series(2 * n + 2), L, M)
        bound = 4.0 * report.condition_estimate * np.finfo(float).eps
        for got, exact in [(approx.numerator, a), (approx.denominator, b)]:
            exact = np.array([float(x) for x in exact])
            assert np.max(np.abs(got - exact)) <= bound * np.max(np.abs(exact))


class TestProductMatrix:
    @pytest.mark.parametrize("series", [unit_series(122), coulomb_series(122, 0.7)], ids=["unit", "coulomb"])
    def test_every_split_is_a_bit_identical_slice(self, series):
        whole, _, _ = _product_matrix(series, 60, 60)
        for L, M in [(5, 5), (20, 20), (40, 40), (36, 3), (3, 36), (60, 0), (0, 60)]:
            G, _, _ = _product_matrix(series, L, M)
            assert G.tobytes() == whole[: L + M + 1, : M + 1].tobytes()

    def test_high_degree_construct_stays_small(self):
        # the band needs O((L+M) M) memory; the dense (M+1, L+2M+1, L+M+1) weight tensor peaked at 169 MB
        series = unit_series(202)
        tracemalloc.start()
        try:
            construct(series, 100, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6


class TestCramerCrossCheck:
    def test_solution_matches_cramer_for_small_m(self):
        # determinant-ratio route, retained as an independent check for M <= 3
        for series, L, M in [
            (unit_series(8), 3, 3),
            (coulomb_series(8, 1.0), 3, 3),
            (unit_series(4), 2, 2),
        ]:
            a, rhs = _system(*_product_matrix(series, L, M)[:2])
            b = construct(series, L, M)[0].denominator
            for k in range(M):
                bk = a.copy()
                bk[:, k] = rhs
                cramer = np.linalg.det(bk) / np.linalg.det(a)
                assert b[k + 1] == pytest.approx(cramer, rel=1e-9)


class TestNumerator:
    def test_degenerate_equals_coefficients(self):
        rng = np.random.default_rng(4)
        series = random_series(rng, 6)
        a = construct(series, 5, 0)[0].numerator
        assert np.allclose(a, series.coefficients, rtol=1e-13)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.5, math.nan), complex(-math.inf, 0.0)])
    def test_non_finite_denominator_raises(self, bad):
        # the denominator is checked as a ComplexSeries; unchecked, a NaN entry gave a NaN numerator silently
        with pytest.raises(ValueError, match="series coefficients must be finite"):
            compute_numerator(unit_series(6), np.array([1.0, bad, 0.25]), 3)


class TestConstruct:
    def test_matching_property_minimal_length(self):
        check_matching_property(scale=1.0)

    def test_matching_property_scaled_series(self):
        # a series 100 times larger: the vanishing orders must still converge
        check_matching_property(scale=100.0)

    def test_scaling_covariance(self):
        rng = np.random.default_rng(17)
        series = random_series(rng, 9)
        alpha = 2.5 - 1.25j
        base, _ = construct(series, 3, 3)
        scaled, _ = construct(ComplexSeries(series.coefficients * alpha), 3, 3)
        assert np.allclose(scaled.denominator, base.denominator, rtol=1e-10)
        assert np.allclose(scaled.numerator, alpha * base.numerator, rtol=1e-10)

    @pytest.mark.parametrize("L, M", [(-1, 0), (2, -1), (-2, 3)])
    def test_negative_degrees(self, L, M):
        with pytest.raises(DomainError):
            construct(unit_series(6), L, M)

    def test_report_types(self):
        _, report = construct(unit_series(8), 3, 3)
        assert isinstance(report, ConstructionReport)
        assert report.condition_estimate >= 1.0
        assert 0.0 <= report.residual < 1e-12

    def test_residual_above_floor_raises(self, monkeypatch):
        # a zero floor turns the rounding residual of a sound construction into a failure
        _, report = construct(unit_series(8), 3, 3)
        assert report.residual > 0.0
        monkeypatch.setattr(pade, "_RESIDUAL_FLOOR", 0.0)
        with pytest.raises(ResidualTooLargeError, match="enforced-zero orders leave residual") as exc_info:
            construct(unit_series(8), 3, 3)
        assert exc_info.value.residual == report.residual

    def test_inaccurate_solve_raises_residual_too_large(self, monkeypatch):
        # a well-conditioned system whose (faked) solution misses the right-hand side: the enforced-zero orders
        # are the one residual check of a construction
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) + 1e-3)
        with pytest.raises(ResidualTooLargeError, match="enforced-zero orders leave residual") as exc_info:
            construct(unit_series(8), 3, 3)
        assert exc_info.value.residual > 1e-8

    # finite coefficients at 1e308 whose products leave the float range, named by the product that does
    @pytest.mark.parametrize("signs, L, M", [
        ((1, 1, 1, -1, 1), 1, 1),  # the numerator
        ((1, 1, 1, -1, 1), 2, 2),
        ((1, 1, 1, -1, 1), 3, 1),
        ((1, 1, -1, -1), 0, 3),  # the enforced-zero residual
        ((1, 1, -1, 1, 1), 0, 2),  # the solve
    ])
    def test_products_past_the_float_maximum_are_domain_error(self, signs, L, M):
        with pytest.raises(DomainError, match=r"too large for the product kernel \(max\|c\| = 1\.000e\+308\)"):
            construct(ComplexSeries(1e308 * np.array(signs)), L, M)

    def test_assembly_past_the_float_maximum_is_domain_error(self):
        with pytest.raises(DomainError, match=r"product kernel \(max\|c\| = 1\.500e\+308\)"):
            construct(ComplexSeries(np.full(3, 1.5e308)), 0, 1)

    def test_stage_assembly_past_the_float_maximum_is_domain_error(self):
        # the standalone stages assemble G themselves, behind the same guard
        series = ComplexSeries(np.full(3, 1.5e308))
        for stage in (lambda: solve_denominator(series, 1, 1),
                      lambda: compute_numerator(series, np.array([1.0, 0.5]), 1)):
            with pytest.raises(DomainError, match=r"product kernel \(max\|c\| = 1\.500e\+308\)"):
                stage()

    def test_solve_past_the_float_maximum_is_domain_error(self):
        # solve_denominator checks no residual: its solve of a system at condition number 22 overflows
        with pytest.raises(DomainError, match=r"product kernel \(max\|c\| = 1\.000e\+308\)"):
            solve_denominator(ComplexSeries(1e308 * np.array([1, 1, -1, 1, 1])), 0, 2)

    def test_near_the_float_maximum_a_finite_construction_still_passes(self):
        # the same coefficients as the numerator case above, at [0/2], stay inside the float range
        approx, report = construct(ComplexSeries(1e308 * np.array([1, 1, 1, -1, 1])), 0, 2)
        assert approx.numerator[0] == pytest.approx(6.7286432160804022e307, rel=1e-15)
        assert report.residual == pytest.approx(9.9792015476735991e291, rel=1e-15)


class TestEvaluate:
    def test_pole_detection(self):
        # denominator 1 + P_1(cos theta) vanishes in the backward direction
        approx = PadeApproximant(np.array([1.0 + 0j]), np.array([1.0 + 0j, 1.0 + 0j]))
        with pytest.raises(PoleError):
            evaluate(approx, math.pi)
        assert evaluate(approx, math.pi / 2) == pytest.approx(1.0, rel=1e-12)

    def test_domain(self):
        approx = PadeApproximant(np.array([1.0 + 0j]), np.array([1.0 + 0j]))
        with pytest.raises(DomainError):
            evaluate(approx, 3.2)

    def test_overflow_is_domain_error(self):
        # 1e308 / (1 + 0.9 cos theta) leaves the float range near theta = pi, off any pole
        approx = PadeApproximant(np.array([1e308 + 0j]), np.array([1.0 + 0j, 0.9 + 0j]))
        for at in (math.pi, np.array([0.0, 3.0, math.pi])):
            with pytest.raises(DomainError, match="the approximant overflows at theta = 3.0"
                               if np.ndim(at) else "the approximant overflows at theta = 3.14"):
                evaluate(approx, at)
        assert abs(evaluate(approx, 0.0)) == pytest.approx(1e308 / 1.9, rel=1e-15)
        # the numerator's sum overflows at theta = 0: the same DomainError at a float angle and in an array,
        # from evaluate and from the numerator's partial sum
        approx = PadeApproximant(np.full(5, 1e308), np.array([1.0, 0.1]))
        for at in (0.0, np.array([0.0, 1.0])):
            with pytest.raises(DomainError, match=r"the approximant overflows at theta = 0\.0"):
                evaluate(approx, at)
            with pytest.raises(DomainError, match=r"the partial sum overflows at theta = 0\.0"):
                eval_partial_sum(ComplexSeries(approx.numerator), at)

    def test_float_angle_enters_no_errstate(self, monkeypatch):
        # one overflow rule for both evaluators: a float angle's Python result gets a cmath.isfinite test,
        # and only the other angle shapes enter np.errstate
        series = unit_series(8)
        approx, _ = construct(series, 4, 4)
        before = [eval_partial_sum(series, 1.0), evaluate(approx, 1.0)]
        pole = PadeApproximant(np.array([1.0 + 0j]), np.array([1.0 + 0j, 1.0 + 0j]))
        huge = PadeApproximant(np.full(5, 1e308), np.array([1.0, 0.1]))

        class Entered(Exception):
            pass

        def errstate(**kwargs):
            raise Entered

        monkeypatch.setattr(np, "errstate", errstate)
        for at in (1.0, np.float64(1.0)):
            assert [eval_partial_sum(series, at), evaluate(approx, at)] == before
        with pytest.raises(PoleError) as caught:
            evaluate(pole, math.pi)
        assert caught.value.theta == math.pi and type(caught.value.theta) is float
        with pytest.raises(DomainError, match=r"the approximant overflows at theta = 0\.0"):
            evaluate(huge, 0.0)
        with pytest.raises(DomainError, match=r"the partial sum overflows at theta = 0\.0"):
            eval_partial_sum(ComplexSeries(huge.numerator), 0.0)
        for at in (np.array([1.0]), np.array(1.0), 1):
            with pytest.raises(Entered):
                eval_partial_sum(series, at)
            with pytest.raises(Entered):
                evaluate(approx, at)

    def test_denominator_modulus_at_the_float_maximum(self):
        # sum|b| is finite, but Python's abs of 1 + b_1 at theta = 0 rounds past the float maximum and raises
        # OverflowError; the pole test takes numpy's, so the value is the quotient at a float angle too
        approx = PadeApproximant(np.array([1.0 + 0j]), np.array([1.0, 8.356858109788127e307 + 1.5916437517421367e308j]))
        for at in (0.0, 1.0, np.array([0.0, 1.0])):
            assert np.all(np.abs(evaluate(approx, at)) < 1e-307)

    @pytest.mark.parametrize("at", [0.0, np.array([0.0, 1.0])])
    def test_pole_floor_boundary(self, at):
        # Q = 1 + (d - 1) P_1 is d at theta = 0, against a floor of 1e-12 * sum|b| = 2.0e-12
        below = PadeApproximant([1.0], [1.0, 1.9e-12 - 1.0])
        with pytest.raises(PoleError, match=r"\(\|Q\| = 1\.900e-12\)") as caught:
            evaluate(below, at)
        assert np.array_equal(caught.value.theta, [0.0] if np.ndim(at) else 0.0)
        b = np.array([1.0, 2.1e-12 - 1.0])
        assert evaluate(PadeApproximant([1.0], b), at) == pytest.approx(1 / (b[0] + b[1] * np.cos(at)), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(["unit", "coulomb", "invr2"]), L=st.integers(0, 20), M=st.integers(0, 20),
           theta=st.floats(0.0, math.pi), angles=st.lists(st.floats(0.0, math.pi), min_size=1, max_size=30))
    def test_ratio_of_partial_sums(self, family, L, M, theta, angles):
        # evaluate is the quotient of the two sides' partial sums, bit for bit, and a
        # PoleError only names angles where the denominator sum is below its floor
        series = {"unit": unit_series, "coulomb": lambda n: coulomb_series(n, 0.7),
                  "invr2": lambda n: born_series(PotentialSpec("inverse_r2", 1.0), n, 1.0)}[family](L + M + 2)
        try:
            approx, _ = construct(series, L, M)
        except (SingularSystemError, ResidualTooLargeError):
            assume(False)
        numerator, denominator = ComplexSeries(approx.numerator), ComplexSeries(approx.denominator)
        floor = 1e-12 * np.sum(np.abs(approx.denominator))
        for at in (theta, np.array(angles)):
            try:
                value = evaluate(approx, at)
            except PoleError as exc:
                assert np.all(np.abs(eval_partial_sum(denominator, exc.theta)) < floor)
                continue
            expected = eval_partial_sum(numerator, at) / eval_partial_sum(denominator, at)
            assert type(value) is type(expected)
            assert np.asarray(value).tobytes() == np.asarray(expected).tobytes()


class TestPadeApproximant:
    def test_b0_must_be_one(self):
        with pytest.raises(ValueError):
            PadeApproximant(np.array([1.0 + 0j]), np.array([2.0 + 0j]))

    def test_finite_required(self):
        with pytest.raises(ValueError):
            PadeApproximant(np.array([np.inf + 0j]), np.array([1.0 + 0j]))

    @pytest.mark.parametrize("numerator, denominator, message", [
        (np.ones((2, 2)), [1.0], "one-dimensional"),
        ([1.0], np.ones((1, 2)), "one-dimensional"),
        ([], [1.0], "non-empty"),
        ([1.0], [], "non-empty"),
        ([np.nan], [1.0], "finite"),
        ([1.0], [1.0, np.nan], "finite"),
        ([1.0], [1.0, 1e308, 1e308], "too large"),  # sum|b|, which scales evaluate's pole floor, overflows
    ])
    def test_sides_checked_as_series(self, numerator, denominator, message):
        with pytest.raises(ValueError, match=message):
            PadeApproximant(np.array(numerator, dtype=complex), np.array(denominator, dtype=complex))

    @pytest.mark.parametrize("numerator, denominator", [
        (["1", "2"], ["1", "0.5"]),
        ([1.0], [b"1", b"0.5"]),
        (np.array(["1"]), [1.0]),
        (np.array(["1"], dtype=object), [1.0]),
        ([1.0], np.array([1.0, "0.5"], dtype=object)),
        ({"a": 1}, [1.0]),
        ([1.0], None),
        (object(), [1.0]),
        ([1.0], np.array([1.0, 0.5], dtype=object)),
    ])
    def test_sides_reject_text(self, numerator, denominator):
        # unconverted sides: each is checked as a ComplexSeries, which rejects text numpy would parse and other objects
        with pytest.raises(ValueError, match="numbers, not text"):
            PadeApproximant(numerator, denominator)

    def test_stores_read_only_copies(self):
        a, b = np.array([1.0, 0.5], dtype=complex), np.array([1.0, 0.25], dtype=complex)
        approx = PadeApproximant(a, b)
        before = evaluate(approx, 1.0)
        a[:], b[1] = 7.0, -1.0
        assert evaluate(approx, 1.0) == before
        assert not (approx.numerator.flags.writeable or approx.denominator.flags.writeable)

    @pytest.mark.parametrize("L, M", [(0, 0), (2, 1)])
    def test_compares_and_hashes_by_identity(self, L, M):
        sides = np.ones(L + 1, dtype=complex), np.ones(M + 1, dtype=complex)
        a, b = PadeApproximant(*sides), PadeApproximant(*sides)
        assert a == a and a != b
        assert a not in [b] and len({a, b}) == 2 and hash(a) == hash(a)

    def test_degrees(self):
        approx = PadeApproximant(np.zeros(4, dtype=complex), np.array([1.0, 0, 0], dtype=complex))
        assert approx.L == 3 and approx.M == 2


def test_default_split():
    assert default_split(6) == (3, 3)
    assert default_split(7) == (4, 3)
    assert default_split(0) == (0, 0)
    assert default_split(1) == (1, 0)
    with pytest.raises(DomainError):
        default_split(-1)


class TestRealDenominatorRoots:
    """The oracle for a Froissart-doublet detector: the default [n/n] on N = 2n + 2, and its
    denominator roots on the real segment [-1, 1] (|Im x| < 1e-8, |Re x| <= 1)."""

    SERIES = {"unit": unit_series, "coulomb k=1": lambda n: coulomb_series(n, 1.0)}

    def roots(self, kind, n):
        approx, _ = construct(self.SERIES[kind](2 * n + 2), n, n)
        roots = legroots(approx.denominator)
        inside = roots[np.abs(roots.real) <= 1.0]
        return approx, inside, inside[np.abs(inside.imag) < 1e-8]

    def test_unit_20_has_one_doublet(self):
        approx, _, real = self.roots("unit", 20)
        (x,) = real
        assert x.real == pytest.approx(0.824455, abs=1e-6)
        assert math.acos(x.real) == pytest.approx(0.6016, abs=1e-4)
        # its numerator partner, 1.28e-5 away, nearly cancels it
        assert 1e-5 < np.min(np.abs(legroots(approx.numerator) - x)) < 2e-5

    @pytest.mark.parametrize("kind, n", [("unit", n) for n in (10, 30, 40, 50, 100)]
                             + [("coulomb k=1", n) for n in (10, 20, 30, 40, 50, 100)])
    def test_controls_have_none(self, kind, n):
        _, inside, real = self.roots(kind, n)
        assert real.size == 0
        # no root with |Re x| <= 1 comes within 1e-5 of the axis: the smallest, 1.8e-5, is Coulomb n = 100
        assert np.min(np.abs(inside.imag)) > 1e-5
