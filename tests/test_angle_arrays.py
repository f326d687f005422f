"""An array of angles gives what the same angles give one at a time."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legpade.errors import DomainError, PoleError
from legpade.pade import construct, evaluate
from legpade.scattering import (
    PotentialSpec,
    born_exact_invr2,
    born_series,
    coulomb_exact,
    coulomb_series,
    exact_half_csc,
    unit_series,
)
from legpade.series import ComplexSeries, eval_partial_sum
from legpade.special import legendre_eval_all

FAMILIES = {
    "unit": unit_series,
    "coulomb": lambda n: coulomb_series(n, 1.0),
    "invr2": lambda n: born_series(PotentialSpec("inverse_r2", 1.0), n, 1.0),
}
# closed-form amplitude of (theta, k) and the type it returns at a float angle
ORACLES = {
    "unit": (lambda theta, k: exact_half_csc(theta), float),
    "coulomb": (coulomb_exact, complex),
    "invr2": (lambda theta, k: born_exact_invr2(theta, 3.0, k), float),
}
# a real root of the [20/20] unit denominator, the Froissart doublet
DOUBLET = 0.60155733029562397
# Python's complex division at a float angle and numpy's in an array may round
# differently, so the quotients agree to a few eps of the terms' magnitude
TOL = 1e-13

angle_arrays = st.lists(st.floats(0.0, math.pi), max_size=30).map(
    lambda thetas: np.array([0.0, *thetas, math.pi])
)


def _magnitude(coefficients, basis):
    """sum_l |c_l P_l| at each angle: the scale a sum's rounding error is relative to."""
    return np.abs(coefficients) @ np.abs(basis[: coefficients.size])


@settings(max_examples=80, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), L=st.integers(0, 20), M=st.integers(0, 20),
       thetas=angle_arrays)
def test_array_matches_per_angle(family, L, M, thetas):
    full = FAMILIES[family](L + M + 2)
    approx, _ = construct(full, L, M)
    partial = ComplexSeries(full.coefficients[: L + M + 1])
    basis = legendre_eval_all(L + M, np.cos(thetas))

    one_by_one = np.array([eval_partial_sum(partial, t) for t in thetas])
    assert np.all(np.abs(eval_partial_sum(partial, thetas) - one_by_one)
                  <= TOL * _magnitude(partial.coefficients, basis))

    values, poles = [], []
    for t in thetas:
        try:
            values.append(evaluate(approx, t))
        except PoleError:
            poles.append(t)
    if poles:
        with pytest.raises(PoleError) as info:
            evaluate(approx, thetas)
        assert list(info.value.theta) == poles
        return
    values = np.array(values)
    den = np.abs(approx.denominator @ basis[: M + 1])
    bound = TOL * (_magnitude(approx.numerator, basis)
                   + np.abs(values) * _magnitude(approx.denominator, basis)) / den
    assert np.all(np.abs(evaluate(approx, thetas) - values) <= bound)


@settings(max_examples=80, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), L=st.integers(0, 20), M=st.integers(0, 20),
       thetas=angle_arrays, cuts=st.lists(st.integers(0, 40), max_size=6))
def test_every_shape_sums_to_the_same_bits(family, L, M, thetas, cuts):
    # an angle alone, in an array and in any part of one has its orders added in the same order
    full = FAMILIES[family](L + M + 2)
    approx, _ = construct(full, L, M)
    partial = ComplexSeries(full.coefficients[: L + M + 1])

    def split(angles):
        return np.split(angles, sorted(c % (angles.size + 1) for c in cuts))

    def same(values, array):
        return np.asarray(values).tobytes() == np.asarray(array).tobytes()

    whole = eval_partial_sum(partial, thetas)
    assert same([eval_partial_sum(partial, t) for t in thetas], whole)
    assert same(np.concatenate([eval_partial_sum(partial, part) for part in split(thetas)]), whole)

    num, den = (eval_partial_sum(ComplexSeries(side), thetas) for side in (approx.numerator, approx.denominator))
    kept = np.abs(den) >= 1e-12 * np.sum(np.abs(approx.denominator))  # off the poles
    whole = evaluate(approx, thetas[kept])
    assert same(np.concatenate([evaluate(approx, part) for part in split(thetas[kept])]), whole)
    assert same(whole, num[kept] / den[kept])
    # a float angle divides the same sums by Python's complex division
    assert same([evaluate(approx, t) for t in thetas[kept]],
                [n / d for n, d in zip(num[kept].tolist(), den[kept].tolist())])


@settings(max_examples=50, deadline=None)
@given(l_max=st.integers(0, 40), thetas=angle_arrays,
       edge=st.sampled_from([1.0, -1.0, 1.0 + 2e-16, -1.0 - 2e-16]))
def test_legendre_array_is_bit_identical(l_max, thetas, edge):
    x = np.append(np.cos(thetas), edge)
    table = legendre_eval_all(l_max, x)
    assert table.shape == (l_max + 1, x.size)
    assert np.array_equal(table, np.array([legendre_eval_all(l_max, xi) for xi in x]).T)


@settings(max_examples=50, deadline=None)
@given(thetas=angle_arrays, at=st.integers(0, 40),
       bad=st.sampled_from([math.nan, math.inf, -1e-9, math.pi + 1e-9, 4.0]))
def test_one_bad_angle_rejects_the_array(thetas, at, bad):
    thetas = np.insert(thetas, at % (thetas.size + 1), bad)
    approx, _ = construct(unit_series(8), 3, 3)
    with pytest.raises(DomainError):
        evaluate(approx, thetas)
    with pytest.raises(DomainError):
        eval_partial_sum(unit_series(6), thetas)


@settings(max_examples=50, deadline=None)
@given(thetas=angle_arrays, at=st.integers(0, 40),
       bad=st.sampled_from([math.nan, -math.inf, 1.0 + 1e-9, -1.0 - 1e-9]))
def test_one_bad_argument_rejects_legendre(thetas, at, bad):
    x = np.insert(np.cos(thetas), at % (thetas.size + 1), bad)
    with pytest.raises(DomainError):
        legendre_eval_all(5, x)


@settings(max_examples=30, deadline=None)
@given(thetas=angle_arrays, at=st.integers(0, 40))
def test_doublet_in_array_raises_pole(thetas, at):
    approx, _ = construct(unit_series(42), 20, 20)
    thetas = np.insert(thetas, at % (thetas.size + 1), DOUBLET)
    with pytest.raises(PoleError) as info:
        evaluate(approx, thetas)
    assert DOUBLET in info.value.theta


@settings(max_examples=80, deadline=None)
@given(oracle=st.sampled_from(sorted(ORACLES)), k=st.floats(0.1, 10.0),
       thetas=st.lists(st.floats(0.0, math.pi, exclude_min=True), min_size=1, max_size=30),
       at=st.integers(0, 40),
       bad=st.sampled_from([0.0, 5e-324, math.nan, -math.inf, -1e-9, math.pi + 1e-9]))
def test_oracle_array_matches_per_angle(oracle, k, thetas, at, bad):
    f, kind = ORACLES[oracle]
    try:
        one_by_one = [f(t, k) for t in thetas]
    except DomainError:
        # an angle so small that the amplitude overflows fails the array as well
        with pytest.raises(DomainError, match="is not finite at theta"):
            f(np.array(thetas), k)
        return
    assert all(isinstance(value, kind) for value in one_by_one)
    one_by_one = np.array(one_by_one)
    values = f(np.array(thetas), k)
    assert values.shape == (len(thetas),)
    assert np.all(np.abs(values - one_by_one) <= 4 * np.finfo(float).eps * np.abs(one_by_one))
    assert np.array_equal(f(np.array(thetas).reshape(1, -1, 1), k).ravel(), values)
    # 0 and the smallest subnormal pass the angle guard, and the amplitude is infinite there
    message = f"is not finite at theta = {bad}" if bad in (0.0, 5e-324) else "outside"
    with pytest.raises(DomainError, match=message):
        f(np.insert(thetas, at % (len(thetas) + 1), bad), k)


def test_scalar_gives_complex_and_array_keeps_shape():
    approx, _ = construct(unit_series(8), 3, 3)
    assert type(evaluate(approx, 1.0)) is complex
    assert type(eval_partial_sum(unit_series(6), np.float64(1.0))) is complex
    grid = np.linspace(0.1, 3.0, 6).reshape(2, 3)
    values = evaluate(approx, grid)
    assert values.shape == (2, 3) and values.dtype == complex
    assert values[1, 2] == pytest.approx(evaluate(approx, grid[1, 2]), rel=1e-13)
    assert eval_partial_sum(unit_series(6), grid).shape == (2, 3)
