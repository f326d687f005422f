"""Independent correctness oracles.

None of these calls legpade: coefficients are re-derived with numpy's
Gauss-Legendre nodes and Legendre series (no 3j symbols), special values
come from closed forms and scipy.special, and CLI output is compared with
reference CSVs recorded from the program at the commit that added the
benchmark. Each check returns None when the output passes, or a one-line
reason.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import legendre as npl

# the library's own acceptance floor for the enforced-zero orders
RESIDUAL_FLOOR = 1e-8
# criterion 8: first-order 1/r^2 phase shifts by quadrature vs closed form
BORN_SHIFT_TOL = 1e-8
# criterion 4 fallback: total variation of |f[3/3]| over [pi/2, pi] at most
# this share of the N = 6 partial sum's
RN_TV_RATIO = 0.25
# relative forward-error factor for evaluating N/Q and partial sums
EVAL_TOL = 1e-12
# CSV values: relative tolerance per value plus this share of the column's
# largest magnitude, so last-ulp changes are not failures
CSV_RTOL = 1e-9


def unpack(pair) -> np.ndarray:
    return np.asarray(pair[0], dtype=float) + 1j * np.asarray(pair[1], dtype=float)


def family_coefficients(fam: dict, n: int) -> np.ndarray:
    """c_0..c_n of a worked family from its closed form."""
    name = fam["name"]
    if name == "unit":
        return np.ones(n + 1, dtype=complex)
    if name == "invr2":
        return np.full(n + 1, -math.pi * fam["alpha"] / (2.0 * fam["k"]), dtype=complex)
    if name == "coulomb":
        from scipy.special import loggamma

        l = np.arange(n + 1)
        ik = 1j / fam["k"]
        return (2 * l + 1) / (2j * fam["k"]) * np.exp(loggamma(l + 1 + ik) - loggamma(l + 1 - ik))
    raise ValueError(f"unknown family {name!r}")


def closed_form(fam: dict, theta: np.ndarray) -> np.ndarray | None:
    """Exact amplitude for the families whose max_rel_err is reported."""
    if fam["name"] == "unit":
        return 0.5 / np.sin(0.5 * theta)
    if fam["name"] == "invr2":
        return -math.pi * fam["alpha"] / (4.0 * fam["k"] * np.sin(0.5 * theta))
    return None


def series_mismatch(c: np.ndarray, reference: np.ndarray, rtol: float = 1e-10) -> str | None:
    if c.shape != reference.shape:
        return f"series has {c.size} coefficients, expected {reference.size}"
    worst = float(np.max(np.abs(c - reference)))
    if worst > rtol * float(np.max(np.abs(reference))):
        return f"series coefficients off by {worst:.3e} (limit {rtol:g} * max|c|)"
    return None


def product_coefficients(c: np.ndarray, b: np.ndarray, n_max: int) -> np.ndarray:
    """Orders 0..n_max of (sum b_m P_m)(sum c_l P_l), by exact Gauss-Legendre."""
    degree = n_max + b.size + c.size
    x, w = npl.leggauss(degree // 2 + 2)
    v = npl.legvander(x, max(n_max, c.size, b.size))
    q = v[:, : b.size] @ b
    s = v[:, : c.size] @ c
    return (np.arange(n_max + 1) + 0.5) * ((w * q * s) @ v[:, : n_max + 1])


def construction_mismatch(c: np.ndarray, a: np.ndarray, b: np.ndarray, L: int, M: int) -> str | None:
    """[L/M] matching conditions re-derived without 3j symbols."""
    if a.size != L + 1 or b.size != M + 1:
        return f"approximant is [{a.size - 1}/{b.size - 1}], expected [{L}/{M}]"
    if b[0] != 1.0:
        return f"denominator not normalized, b_0 = {b[0]}"
    g = product_coefficients(c, b, L + M)
    floor = RESIDUAL_FLOOR * float(np.max(np.abs(c)))
    zeros = float(np.max(np.abs(g[L + 1:]), initial=0.0))
    if zeros > floor:
        return f"orders {L + 1}..{L + M} of Q*S reach {zeros:.3e} > floor {floor:.3e}"
    match = float(np.max(np.abs(g[: L + 1] - a)))
    if match > floor:
        return f"numerator differs from orders 0..{L} of Q*S by {match:.3e} > floor {floor:.3e}"
    return None


def rational(theta: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = np.cos(theta)
    return npl.legval(x, a) / npl.legval(x, b)


def evaluation_mismatch(theta, values, a, b) -> str | None:
    x = np.cos(theta)
    num, den = npl.legval(x, a), npl.legval(x, b)
    ref = num / den
    bound = EVAL_TOL * (np.sum(np.abs(a)) + np.abs(ref) * np.sum(np.abs(b))) / np.abs(den)
    bad = np.abs(values - ref) > bound
    if bad.any():
        i = int(np.argmax(bad))
        return f"evaluate at theta={theta[i]!r} gives {values[i]!r}, oracle {ref[i]!r}"
    return None


def partial_sum_mismatch(theta, values, c) -> str | None:
    ref = npl.legval(np.cos(theta), c)
    bad = np.abs(values - ref) > EVAL_TOL * np.sum(np.abs(c))
    if bad.any():
        i = int(np.argmax(bad))
        return f"eval_partial_sum at theta={theta[i]!r} gives {values[i]!r}, oracle {ref[i]!r}"
    return None


def born_mismatch(c: np.ndarray, alpha: float, k: float) -> str | None:
    l = np.arange(c.size)
    shifts = c.real * k / (2 * l + 1)
    worst = float(np.max(np.abs(shifts + math.pi * alpha / (2.0 * (2 * l + 1)))))
    if worst > BORN_SHIFT_TOL or np.any(c.imag != 0.0):
        return f"Born quadrature phase shifts off the closed form by {worst:.3e}"
    return None


def rn_tv_ratio(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    theta = np.linspace(math.pi / 2, math.pi, 400)
    pade = np.abs(rational(theta, a, b))
    partial = np.abs(npl.legval(np.cos(theta), c[:7]))
    return float(np.sum(np.abs(np.diff(pade))) / np.sum(np.abs(np.diff(partial))))


def rn_mismatch(c, a, b) -> str | None:
    ratio = rn_tv_ratio(c, a, b)
    if not ratio <= RN_TV_RATIO:
        return f"[3/3] total variation is {ratio:.3f} of the partial sum's (limit {RN_TV_RATIO})"
    return None


def _parse_csv(lines):
    cells = [line.split(",") for line in lines]
    values = np.array([[float(v) if v else math.nan for v in row] for row in cells])
    return cells, values


def csv_mismatch(text: str, reference: str) -> str | None:
    """compare CSV against the recorded one: exact layout, values within tolerance."""
    out, ref = text.split("\n"), reference.split("\n")
    if out[0] != ref[0]:
        return f"header {out[0]!r} differs from {ref[0]!r}"
    if len(out) != len(ref):
        return f"{len(out)} lines, reference has {len(ref)}"
    if out[-1] != "" or ref[-1] != "":
        return "output does not end with a newline"
    if any(len(o.split(",")) != len(r.split(",")) for o, r in zip(out[1:-1], ref[1:-1])):
        return "field count differs from the reference"
    try:
        out_cells, got = _parse_csv(out[1:-1])
    except ValueError as exc:
        return f"unparsable value: {exc}"
    ref_cells, want = _parse_csv(ref[1:-1])
    if [r[-1] for r in out_cells] != [r[-1] for r in ref_cells]:
        return "pole_flag column differs from the reference"
    if not np.array_equal(np.isnan(got), np.isnan(want)):
        return "empty-cell pattern differs from the reference"
    scale = np.max(np.abs(np.nan_to_num(want)), axis=0)
    bad = np.abs(got - want) > CSV_RTOL * (np.abs(want) + scale)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        return f"row {row + 1} column {col + 1}: {got[row, col]!r} vs reference {want[row, col]!r}"
    return None
