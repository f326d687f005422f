"""A test-side oracle for how far an approximant moves when its coefficients carry noise.

Each c_l becomes c_l * (1 + 1e-13 z_l), z = default_rng(seed).standard_normal(N + 1) for
seeds 0-4. The amplification A is the worst seed's max relative change of the approximant
on THETAS, over 1e-13. It is measured for the default [n/n] on N = 2n + 2 and for the rank
rule of tests/test_rank_rule.py, which re-chooses its split on each perturbed copy. On the
perturbed copies that rule's pick moves at N = 42 and 82 (unit N = 42 picks [24/9], [30/6],
[32/5] or [34/4] across the seeds, against [34/4] unperturbed); at N = 22 it stays [8/7].
"""

import functools
import math

import numpy as np
import pytest
from test_rank_rule import rank_rule

from legpade.pade import construct, default_split, evaluate
from legpade.scattering import RNParams, coulomb_series, rn_series, unit_series
from legpade.series import ComplexSeries

THETAS = np.linspace(0.3, math.pi, 600)
NOISE = 1e-13

FAMILIES = {
    "unit": unit_series,
    "coulomb k=1": lambda n: coulomb_series(n, 1.0),
    "rn Q/M=0.5": lambda n: rn_series(n, RNParams(mass=10.0, charge=5.0, eta=1e-4, mu=1e-6)),
}

SPLITS = {
    "default": lambda series: construct(series, *default_split(series.order - 2))[0],
    "rank rule": lambda series: rank_rule(series, series.order),
}

# A measured on this grid, as in ROADMAP item 8's table
MEASURED = {
    ("unit", 22): (1.0e3, 6.5e7), ("coulomb k=1", 22): (5.2e3, 1.5e9), ("rn Q/M=0.5", 22): (1.0e5, 1.5e8),
    ("unit", 42): (5.8e7, 5.3e5), ("coulomb k=1", 42): (6.8e3, 1.7e7), ("rn Q/M=0.5", 42): (3.8e5, 1.9e6),
    ("unit", 82): (4.0e3, 3.5e4), ("coulomb k=1", 82): (5.2e3, 3.7e5), ("rn Q/M=0.5", 82): (7.9e5, 1.2e5),
}


@functools.lru_cache(maxsize=None)
def series_of(family, n):
    return FAMILIES[family](n)


def amplification(series, build):
    f = evaluate(build(series), THETAS)
    worst = 0.0
    for seed in range(5):
        z = np.random.default_rng(seed).standard_normal(series.order + 1)
        moved = evaluate(build(ComplexSeries(series.coefficients * (1 + NOISE * z))), THETAS)
        worst = max(worst, np.max(np.abs(moved - f) / np.abs(f)))
    return worst / NOISE


@pytest.mark.parametrize("split", sorted(SPLITS))
@pytest.mark.parametrize("family, n", sorted(MEASURED))
def test_amplification_within_factor_two_of_measured(family, n, split):
    a = amplification(series_of(family, n), SPLITS[split])
    expected = MEASURED[family, n][split == "rank rule"]
    assert expected / 2 <= a <= 2 * expected


def test_condition_estimate_does_not_track_amplification():
    # RN at N = 82: the default split's condition estimate is 1.5e10 while A is 7.9e5
    series = series_of("rn Q/M=0.5", 82)
    _, report = construct(series, *default_split(80))
    assert report.condition_estimate > 1e4 * amplification(series, SPLITS["default"])
