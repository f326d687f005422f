"""Command-line surface.

Two subcommands:

* ``construct`` builds an approximant from a built-in demo series or a
  coefficient CSV and writes the coefficients plus a construction report.
* ``compare`` sweeps angles and writes one CSV row per angle with the
  partial sum, the approximant, the exact oracle where one exists, and the
  cross section.

Exit codes: 0 success, 1 output file cannot be written, 2 construction failure, 3
quadrature failure, 4 bad arguments (also when their arrays exceed memory). All angles are
radians. A ``key = value`` config file can pre-load any long flag; explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .errors import (
    DomainError,
    InsufficientCoefficientsError,
    PoleError,
    QuadratureConvergenceError,
    ResidualTooLargeError,
    SingularSystemError,
)
from .pade import construct, default_split, evaluate
from .scattering import (
    PotentialSpec,
    RNParams,
    born_exact_invr2,
    born_series,
    coulomb_exact,
    coulomb_series,
    cross_section,
    exact_half_csc,
    rn_series,
    unit_series,
)
from .series import ComplexSeries, eval_partial_sum
from .special import _check_order

DEMOS = ("unit", "coulomb", "invr2", "rn")
CSV_HEADER = "theta,re_partial,im_partial,re_pade,im_pade,re_exact,im_exact,sigma_pade,pole_flag"

EXIT_OK = 0
EXIT_WRITE = 1
EXIT_CONSTRUCTION = 2
EXIT_QUADRATURE = 3
EXIT_BAD_ARGS = 4


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 4."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_ARGS)


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _cells(values: np.ndarray, keep=True) -> list:
    """The CSV cells of a float array, "" where ``keep`` is off."""
    return np.where(keep, [_fmt(x) for x in values.tolist()], "").tolist()


def _build_series(args) -> tuple[ComplexSeries, ComplexSeries, Optional[Callable[[np.ndarray], np.ndarray]]]:
    """(partial-sum series, construction series, exact oracle of an angle array or None).

    Demo series carry two orders beyond --N for the matching sums, the
    convention behind the reference worked examples; the partial-sum column
    stays truncated at N. A coefficient file is used as-is for both.
    """
    if getattr(args, "coeffs", None):
        series = _read_coefficients(args.coeffs)
        return series, series, None
    demo = args.demo
    n_build = _check_order(args.N, "--N") + 2
    if demo == "unit":
        full = unit_series(n_build)
        exact = exact_half_csc
    elif demo == "coulomb":
        full = coulomb_series(n_build, args.k)
        exact = lambda th: coulomb_exact(th, args.k)
    elif demo == "invr2":
        pot = PotentialSpec("inverse_r2", args.alpha)
        full = born_series(pot, n_build, args.k)
        exact = lambda th: born_exact_invr2(th, args.alpha, args.k)
    else:  # rn; argparse's choices admit no other demo
        params = RNParams(mass=args.mass, charge=args.QoverM * args.mass, eta=args.eta, mu=args.mu)
        full = rn_series(n_build, params, horizon_epsilon=args.rn_epsilon, r_max=args.rn_rmax)
        exact = None
    partial = ComplexSeries(full.coefficients[: args.N + 1])
    return partial, full, exact


def _read_coefficients(path: str) -> ComplexSeries:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CliError(f"cannot read coefficient file: {exc}", EXIT_BAD_ARGS)
    if not rows or [cell.strip() for cell in rows[0]] != ["l", "re", "im"]:
        raise CliError("coefficient file must start with the header 'l,re,im'", EXIT_BAD_ARGS)
    coeffs = {}
    for row in rows[1:]:
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            l, re, im = int(row[0]), float(row[1]), float(row[2])
        except (ValueError, IndexError):
            raise CliError(f"malformed coefficient row: {row}", EXIT_BAD_ARGS)
        if l in coeffs:
            raise CliError(f"duplicate coefficient row for l = {l}", EXIT_BAD_ARGS)
        coeffs[l] = complex(re, im)
    if not coeffs or sorted(coeffs) != list(range(len(coeffs))):
        raise CliError("coefficient rows must cover l = 0..N contiguously", EXIT_BAD_ARGS)
    return ComplexSeries(np.array([coeffs[l] for l in range(len(coeffs))]))


def _resolve_split(args, series_order: int) -> tuple[int, int]:
    L, M = args.L, args.M
    if L is None and M is None:
        return default_split(series_order)
    if L is None or M is None:
        raise CliError("give both --L and --M, or neither", EXIT_BAD_ARGS)
    return L, M  # construct checks the degrees


def _write_text(path: Optional[str], text: str):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write output: {exc}", EXIT_WRITE)


def cmd_construct(args) -> int:
    partial, full, _ = _build_series(args)
    L, M = _resolve_split(args, partial.order)
    approx, report = construct(full, L, M)
    lines = [
        "# legpade approximant",
        f"# L = {L}",
        f"# M = {M}",
        f"# condition_estimate = {_fmt(report.condition_estimate)}",
        f"# residual = {_fmt(report.residual)}",
        "kind,index,re,im",
    ]
    for n, a in enumerate(approx.numerator):
        lines.append(f"a,{n},{_fmt(a.real)},{_fmt(a.imag)}")
    for m, b in enumerate(approx.denominator):
        lines.append(f"b,{m},{_fmt(b.real)},{_fmt(b.imag)}")
    _write_text(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_compare(args) -> int:
    if args.steps < 2:
        raise CliError("--steps must be at least 2", EXIT_BAD_ARGS)
    if not (0.0 <= args.theta_min < args.theta_max <= math.pi):
        raise CliError("need 0 <= theta-min < theta-max <= pi (radians)", EXIT_BAD_ARGS)
    partial_series, full, exact = _build_series(args)
    L, M = _resolve_split(args, partial_series.order)
    approx, _ = construct(full, L, M)
    try:  # numpy wraps sizes within about 1e3 of 2^63 to an empty array, which linspace then indexes
        thetas = np.linspace(args.theta_min, args.theta_max, args.steps)
    except IndexError:
        raise DomainError(f"--steps {args.steps} is too large for an array") from None
    partials = eval_partial_sum(partial_series, thetas)
    try:
        pades = evaluate(approx, thetas)
        poles = np.zeros(thetas.shape, dtype=bool)
    except PoleError as exc:
        poles = np.isin(thetas, exc.theta)
        pades = np.zeros(thetas.shape, dtype=complex)
        pades[~poles] = evaluate(approx, thetas[~poles])
    # the oracles diverge at theta = 0, whose exact cells stay empty
    has_exact = (thetas > 0.0) & (exact is not None)
    exacts = np.zeros(thetas.shape, dtype=complex)
    exacts[has_exact] = exact(thetas[has_exact]) if exact else 0.0
    columns = [
        _cells(thetas), _cells(partials.real), _cells(partials.imag),
        _cells(pades.real, ~poles), _cells(pades.imag, ~poles),
        _cells(exacts.real, has_exact), _cells(exacts.imag, has_exact),
        _cells(cross_section(pades), ~poles), np.where(poles, "1", "0").tolist(),
    ]
    lines = [CSV_HEADER, *map(",".join, zip(*columns))]
    _write_text(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


def _add_series_options(sub):
    sub.add_argument("--demo", choices=DEMOS, help="built-in series family")
    sub.add_argument("--N", type=int, default=6,
                     help="highest partial-sum order; demo construction uses two orders beyond (default 6)")
    sub.add_argument("--L", type=int, default=None, help="numerator degree")
    sub.add_argument("--M", type=int, default=None, help="denominator degree")
    sub.add_argument("--alpha", type=float, default=1.0, help="potential coupling (invr2 demo)")
    sub.add_argument("--k", type=float, default=1.0, help="wavenumber (coulomb/invr2 demos)")
    sub.add_argument("--mass", type=float, default=10.0, help="black-hole mass M (rn demo)")
    sub.add_argument("--QoverM", type=float, default=0.5, help="charge-to-mass ratio (rn demo)")
    sub.add_argument("--eta", type=float, default=1e-4, help="wavenumber eta (rn demo)")
    sub.add_argument("--mu", type=float, default=1e-6, help="particle mass mu (rn demo)")
    sub.add_argument(
        "--rn-epsilon", type=float, default=1e-8, dest="rn_epsilon",
        help="lower quadrature cutoff r_+(1+eps) (rn demo)",
    )
    sub.add_argument(
        "--rn-rmax", type=float, default=None, dest="rn_rmax",
        help="upper quadrature cutoff (rn demo; default 50/eta)",
    )
    sub.add_argument("--config", default=None, help="key = value file of flag defaults")
    sub.add_argument("-o", "--output", default=None, help="output path (default stdout)")


def build_parser() -> _Parser:
    """The CLI parser."""
    parser = _Parser(prog="legpade", description="Legendre-basis rational resummation of partial-wave series")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_construct = subs.add_parser(
        "construct", help="build an approximant and write its coefficients"
    )
    p_construct.add_argument("--coeffs", default=None, help="CSV of series coefficients (header l,re,im)")
    _add_series_options(p_construct)
    p_construct.set_defaults(func=cmd_construct)

    p_compare = subs.add_parser(
        "compare", help="sweep angles, writing partial sum / approximant / exact CSV rows"
    )
    _add_series_options(p_compare)
    p_compare.add_argument("--theta-min", type=float, default=0.05, dest="theta_min",
                           help="first angle in radians (default 0.05)")
    p_compare.add_argument("--theta-max", type=float, default=math.pi, dest="theta_max",
                           help="last angle in radians (default pi)")
    p_compare.add_argument("--steps", type=int, default=400, help="number of angles (default 400)")
    p_compare.set_defaults(func=cmd_compare)
    return parser


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """Parse ``argv``, reading each ``key = value`` line of a ``--config`` file as the flag
    ``--key=value`` right after the subcommand name: argparse types and checks it, and a
    flag given in ``argv`` comes later and wins."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    known = set(vars(parser.parse_args(["construct"]))) | set(vars(parser.parse_args(["compare"])))
    known -= {"command", "func", "config"}  # not flags, and a config file names no other one
    try:
        with open(args.config, encoding="utf-8") as fh:
            lines = [raw.strip() for raw in fh]
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}", EXIT_BAD_ARGS)
    flags = []
    for line in lines:
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"config line is not 'key = value': {line!r}", EXIT_BAD_ARGS)
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in known:
            raise CliError(f"unknown config key {key!r}", EXIT_BAD_ARGS)
        if hasattr(args, key):  # keys that only the other subcommand takes are ignored
            flags.append(f"--{key.replace('_', '-')}={value.strip()}")
    at = list(argv).index(args.command) + 1
    return parser.parse_args([*argv[:at], *flags, *argv[at:]])


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if getattr(args, "coeffs", None) is None and getattr(args, "demo", None) is None:
            raise CliError("choose a --demo or supply --coeffs", EXIT_BAD_ARGS)
        return args.func(args)
    except SystemExit as exc:  # argparse: --help, --version and usage errors
        return int(exc.code or 0)
    except CliError as exc:
        print(f"legpade: {exc}", file=sys.stderr)
        return exc.code
    except (SingularSystemError, ResidualTooLargeError, InsufficientCoefficientsError) as exc:
        print(f"legpade: construction failed: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except QuadratureConvergenceError as exc:
        print(f"legpade: quadrature failed: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    except (DomainError, ValueError, MemoryError) as exc:  # MemoryError: an array too large for the arguments
        print(f"legpade: bad arguments: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except OverflowError as exc:
        print(f"legpade: bad arguments: a value overflows the float range: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
