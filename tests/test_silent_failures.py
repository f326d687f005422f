"""The census of silent wrong answers in default ``compare`` runs.

A cell of a run is silent and wrong when its Padé value errs by more than 10% against the closed form and its
``pole_flag`` is 0: nothing tells the user. Each run is what ``legpade compare --demo D --N N`` writes, the
default split over theta in [0.05, pi] at 400 steps. The counts below are ceilings. A change that tells more
cells or errs on fewer re-pins them lower; never re-pin a count higher. Run with ``-s`` to print the table.
"""

import numpy as np
import pytest

from legpade.cli import main

ORDERS = (6, 14, 22, 42)

# silent wrong cells of each run at N = 6, 14, 22, 42
SILENT_CEILINGS = {
    ("unit",): (6, 1, 0, 1),
    ("coulomb", "--k", "0.5"): (130, 62, 39, 20),
    ("coulomb", "--k", "1"): (69, 35, 22, 10),
    ("coulomb", "--k", "2"): (40, 19, 11, 4),
    ("invr2", "--k", "1"): (6, 1, 0, 1),
}

# silent cells where the Padé value errs by more than 1% and by more than the partial sum, over a family's runs
WORSE_CEILINGS = [
    ([("unit",), ("coulomb", "--k", "0.5"), ("coulomb", "--k", "1"), ("coulomb", "--k", "2")], 242),
    ([("invr2", "--k", "1")], 5),
]


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    """(silent, worse) cell counts for each run and order, printed as a table."""
    path = tmp_path_factory.mktemp("census") / "compare.csv"
    counts = {}
    for run in SILENT_CEILINGS:
        for N in ORDERS:
            assert main(["compare", "--demo", *run, "--N", str(N), "-o", str(path)]) == 0
            # the empty cells of a pole row read as nan, which no comparison counts
            _, re_partial, im_partial, re_pade, im_pade, re_exact, im_exact, _, pole_flag = np.genfromtxt(
                path, delimiter=",", skip_header=1, unpack=True)
            exact = re_exact + 1j * im_exact
            error = np.abs(re_pade + 1j * im_pade - exact)
            silent = pole_flag == 0
            counts[run, N] = (int(np.sum(silent & (error > 0.1 * np.abs(exact)))),
                              int(np.sum(silent & (error > 0.01 * np.abs(exact))
                                         & (error > np.abs(re_partial + 1j * im_partial - exact)))))
    print("\nsilent wrong cells (worse than the partial sum) of 400")
    print(f"{'run':<16}" + "".join(f"{f'N = {N}':>12}" for N in ORDERS))
    for run in SILENT_CEILINGS:
        print(f"{' '.join(run):<16}" + "".join(f"{'%d (%d)' % counts[run, N]:>12}" for N in ORDERS))
    return counts


@pytest.mark.parametrize("run", list(SILENT_CEILINGS), ids=" ".join)
def test_silent_wrong_cells_stay_at_or_below_their_ceiling(census, run):
    counts = tuple(census[run, N][0] for N in ORDERS)
    assert all(count <= ceiling for count, ceiling in zip(counts, SILENT_CEILINGS[run])), counts


@pytest.mark.parametrize("runs, ceiling", WORSE_CEILINGS, ids=["unit and coulomb", "invr2"])
def test_cells_worse_than_the_partial_sum_stay_at_or_below_their_ceiling(census, runs, ceiling):
    assert sum(census[run, N][1] for run in runs for N in ORDERS) <= ceiling
