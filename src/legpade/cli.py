"""Command-line surface.

Two subcommands:

* ``construct`` builds an approximant from a built-in demo series or a
  coefficient CSV and writes the coefficients plus a construction report.
* ``compare`` sweeps angles and writes one CSV row per angle with the
  partial sum, the approximant, the exact oracle where one exists, and the
  cross section.

Exit codes: 0 success, 1 output file cannot be written, 2 construction failure, 3
quadrature failure, 4 bad arguments (also when their arrays exceed memory). All angles are
radians. A ``key = value`` config file can pre-load any long flag; explicit flags win, and
``construct`` takes its series from one source, ``--demo`` or ``--coeffs`` (see ``parse_args``).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

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
    """argparse that reports usage problems with exit code 4 and reads -1e-3 as a value; on Python
    3.10 and 3.11 argparse reads it as an unknown flag, and only -1 and -.5 as negative numbers."""

    def __init__(self, *args, **kwargs):
        import re  # argparse has loaded it
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_ARGS)


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _approximant(args) -> tuple:
    """(partial-sum series, approximant, construction report, exact oracle of an angle array or None).

    Demo series carry two orders beyond --N (default 6) for the matching sums,
    the convention behind the reference worked examples; the partial-sum column
    stays truncated at N. A coefficient file is used whole for both, without
    --N. The split is --L and --M, or ``default_split`` of the partial sum's order.
    """
    exact = None
    if args.source == "coeffs":
        if args.N is not None:
            raise CliError("--N does not apply to --coeffs: a coefficient file is used whole", EXIT_BAD_ARGS)
        partial = full = _read_coefficients(args.coeffs)
    else:
        N = 6 if args.N is None else _check_order(args.N, "--N")
        if args.demo == "unit":
            full, exact = unit_series(N + 2), exact_half_csc
        elif args.demo == "coulomb":
            full, exact = coulomb_series(N + 2, args.k), lambda th: coulomb_exact(th, args.k)
        elif args.demo == "invr2":
            full = born_series(PotentialSpec("inverse_r2", args.alpha), N + 2, args.k)
            exact = lambda th: born_exact_invr2(th, args.alpha, args.k)
        else:  # rn; argparse's choices admit no other demo
            params = RNParams(mass=args.mass, charge=args.QoverM * args.mass, eta=args.eta, mu=args.mu)
            full = rn_series(N + 2, params, horizon_epsilon=args.rn_epsilon, r_max=args.rn_rmax)
        partial = ComplexSeries(full.coefficients[: N + 1])
    if (args.L is None) != (args.M is None):
        raise CliError("give both --L and --M, or neither", EXIT_BAD_ARGS)
    L, M = default_split(partial.order) if args.L is None else (args.L, args.M)  # construct checks the degrees
    approx, report = construct(full, L, M)
    return partial, approx, report, exact


def _read_lines(path: str, what: str) -> list[str]:
    """The lines of a user's UTF-8 file, ends kept for csv, a leading byte-order mark skipped; exit 4 if unreadable."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return list(fh)
    except OSError as exc:
        raise CliError(f"cannot read {what} file: {exc}", EXIT_BAD_ARGS)


def _read_coefficients(path: str) -> ComplexSeries:
    import csv  # only a coefficient file needs it, so start-up does not load it
    rows = list(csv.reader(_read_lines(path, "coefficient")))
    if not rows or [cell.strip() for cell in rows[0]] != ["l", "re", "im"]:
        raise CliError("coefficient file must start with the header 'l,re,im'", EXIT_BAD_ARGS)
    coeffs = {}
    for row in rows[1:]:
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            l, re, im = int(row[0]), float(row[1]), float(row[2])
            if any(cell.strip() for cell in row[3:]):  # trailing empty cells pass
                raise ValueError
        except (ValueError, IndexError):
            raise CliError(f"malformed coefficient row: {row}", EXIT_BAD_ARGS)
        if l in coeffs:
            raise CliError(f"duplicate coefficient row for l = {l}", EXIT_BAD_ARGS)
        coeffs[l] = complex(re, im)
    if not coeffs or sorted(coeffs) != list(range(len(coeffs))):
        raise CliError("coefficient rows must cover l = 0..N contiguously", EXIT_BAD_ARGS)
    return ComplexSeries(np.array([coeffs[l] for l in range(len(coeffs))]))


def _write_text(path: Optional[str], text: str):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write output: {exc}", EXIT_WRITE)


def cmd_construct(args) -> list[str]:
    _, approx, report, _ = _approximant(args)
    lines = [
        "# legpade approximant",
        f"# L = {approx.L}",
        f"# M = {approx.M}",
        "# condition_estimate = %.17g" % report.condition_estimate,
        "# residual = %.17g" % report.residual,
        "kind,index,re,im",
    ]
    lines += ["a,%d,%.17g,%.17g" % (n, a.real, a.imag) for n, a in enumerate(approx.numerator)]
    lines += ["b,%d,%.17g,%.17g" % (m, b.real, b.imag) for m, b in enumerate(approx.denominator)]
    return lines


def cmd_compare(args) -> list[str]:
    if args.steps < 2:
        raise CliError("--steps must be at least 2", EXIT_BAD_ARGS)
    if not (0.0 <= args.theta_min < args.theta_max <= math.pi):
        raise CliError("need 0 <= theta-min < theta-max <= pi (radians)", EXIT_BAD_ARGS)
    partial_series, approx, _, exact = _approximant(args)
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
    table = np.column_stack([thetas, partials.real, partials.imag, pades.real, pades.imag,
                             exacts.real, exacts.imag, cross_section(pades), poles])
    # a blank cell is NaN, whose text "nan" is cut out below; no other cell is NaN, since every
    # evaluator above raises DomainError where its value is not finite
    table[np.ix_(poles, [3, 4, 7])] = np.nan
    table[np.ix_(~has_exact, [5, 6])] = np.nan
    row = ",".join(["%.17g"] * 8) + ",%d"
    return [CSV_HEADER, "\n".join([row % cells for cells in map(tuple, table.tolist())]).replace("nan", "")]


def _add_series_options(sub):
    sub.add_argument("--demo", choices=DEMOS, help="built-in series family")
    sub.add_argument("--N", type=int, default=None, help="highest partial-sum order of a demo series; its "
                     "construction uses two orders beyond (default 6; not with --coeffs, whose file is used whole)")
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


def _one_source(args, where: str) -> Optional[str]:
    """The series source ``args`` names, "demo", "coeffs" or None; CliError (exit 4) where it names both."""
    named = [key for key in ("demo", "coeffs") if getattr(args, key, None) is not None]
    if len(named) == 2:
        raise CliError(f"give --demo or --coeffs, not both ({where} names both)", EXIT_BAD_ARGS)
    return named[0] if named else None


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """Parse ``argv``, reading each ``key = value`` line of a ``--config`` file as the flag ``--key=value``
    right after the subcommand name: argparse types and checks it, and a flag given in ``argv`` comes later
    and wins. The config file's ``demo`` and ``coeffs`` are read only where ``argv`` names neither; both in
    ``argv``, or both in the file, exit 4. ``args.source`` keeps the source found for ``_approximant``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    args.source = _one_source(args, "the command line")
    if args.config is None:
        return args
    known = set(vars(parser.parse_args(["construct"]))) | set(vars(parser.parse_args(["compare"])))
    known -= {"command", "func", "config"}  # not flags, and a config file names no other one
    flags = []
    for line in map(str.strip, _read_lines(args.config, "config")):
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"config line is not 'key = value': {line!r}", EXIT_BAD_ARGS)
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in known:
            raise CliError(f"unknown config key {key!r}", EXIT_BAD_ARGS)
        # keys that only the other subcommand takes are ignored, as is a source the command line overrides
        if hasattr(args, key) and not (args.source is not None and key in ("demo", "coeffs")):
            flags.append(f"--{key.replace('_', '-')}={value.strip()}")
    at = list(argv).index(args.command) + 1
    args = parser.parse_args([*argv[:at], *flags, *argv[at:]])
    args.source = _one_source(args, f"the config file {args.config}")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args.source is None:
            raise CliError("choose a --demo" + (" or supply --coeffs" if hasattr(args, "coeffs") else ""), EXIT_BAD_ARGS)
        _write_text(args.output, "\n".join(args.func(args)) + "\n")
        return EXIT_OK
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
    except (ValueError, MemoryError, OverflowError) as exc:  # MemoryError: an array too large for the arguments
        print(f"legpade: bad arguments: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
