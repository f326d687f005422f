"""Command-line surface.

Two subcommands:

* ``construct`` builds an approximant from a built-in demo series or a
  coefficient CSV and writes the coefficients plus a construction report.
* ``compare`` sweeps angles and writes one CSV row per angle with the
  partial sum, the approximant, the exact oracle where one exists, and the
  cross section.

Exit codes: 0 success, 1 output file cannot be written, 2 construction
failure, 3 quadrature failure, 4 bad arguments. All angles are radians. A
``key = value`` config file can pre-load any long flag; explicit flags win.
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
    exact_half_csc,
    rn_series,
    unit_series,
)
from .series import ComplexSeries, eval_partial_sum

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


def _build_series(args) -> tuple[ComplexSeries, ComplexSeries, Optional[Callable[[float], complex]]]:
    """(partial-sum series, construction series, exact oracle or None).

    Demo series carry two orders beyond --N for the matching sums, the
    convention behind the reference worked examples; the partial-sum column
    stays truncated at N. A coefficient file is used as-is for both.
    """
    if getattr(args, "coeffs", None):
        series = _read_coefficients(args.coeffs)
        return series, series, None
    demo = args.demo
    if args.N < 0:
        raise CliError("--N must be non-negative", EXIT_BAD_ARGS)
    n_build = args.N + 2
    if demo == "unit":
        full = unit_series(n_build)
        exact = lambda th: complex(exact_half_csc(th))
    elif demo == "coulomb":
        full = coulomb_series(n_build, args.k)
        exact = lambda th: coulomb_exact(th, args.k)
    elif demo == "invr2":
        pot = PotentialSpec("inverse_r2", args.alpha)
        full = born_series(pot, n_build, args.k)
        exact = lambda th: complex(born_exact_invr2(th, args.alpha, args.k))
    elif demo == "rn":
        params = RNParams(mass=args.mass, charge=args.QoverM * args.mass, eta=args.eta, mu=args.mu)
        full = rn_series(n_build, params, horizon_epsilon=args.rn_epsilon, r_max=args.rn_rmax)
        exact = None
    else:
        raise CliError(f"unknown demo {demo!r}; choose from {DEMOS}", EXIT_BAD_ARGS)
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
    if L < 0 or M < 0:
        raise CliError("--L and --M must be non-negative", EXIT_BAD_ARGS)
    return L, M


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
    thetas = np.linspace(args.theta_min, args.theta_max, args.steps)
    lines = [CSV_HEADER]
    for theta in thetas:
        theta = float(theta)
        partial = eval_partial_sum(partial_series, theta)
        try:
            pade_value = evaluate(approx, theta)
            pole = False
        except PoleError:
            pade_value = None
            pole = True
        if exact is not None and theta > 0.0:
            exact_value = exact(theta)
            re_exact, im_exact = _fmt(exact_value.real), _fmt(exact_value.imag)
        else:
            re_exact = im_exact = ""
        if pole:
            re_pade = im_pade = sigma = ""
        else:
            re_pade, im_pade = _fmt(pade_value.real), _fmt(pade_value.imag)
            sigma = _fmt(abs(pade_value) ** 2)
        lines.append(
            ",".join(
                [
                    _fmt(theta),
                    _fmt(partial.real),
                    _fmt(partial.imag),
                    re_pade,
                    im_pade,
                    re_exact,
                    im_exact,
                    sigma,
                    "1" if pole else "0",
                ]
            )
        )
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


def build_parser(config_defaults: Optional[dict] = None) -> _Parser:
    """The CLI parser; ``config_defaults`` replace the subcommands' defaults."""
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
    for sub in (p_construct, p_compare):
        sub.set_defaults(**(config_defaults or {}))
    return parser


def _load_config(path: str) -> dict[str, str]:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliError(f"config line is not 'key = value': {line!r}", EXIT_BAD_ARGS)
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}", EXIT_BAD_ARGS)
    return values


_CONFIG_TYPES = {
    "demo": str, "coeffs": str, "N": int, "L": int, "M": int,
    "alpha": float, "k": float, "mass": float, "QoverM": float,
    "eta": float, "mu": float, "rn_epsilon": float, "rn_rmax": float,
    "theta_min": float, "theta_max": float, "steps": int, "output": str,
}


def _config_defaults(args) -> dict:
    """Typed values of ``args.config`` for the options of the chosen subcommand."""
    defaults = {}
    for key, raw in _load_config(args.config).items():
        if key not in _CONFIG_TYPES:
            raise CliError(f"unknown config key {key!r}", EXIT_BAD_ARGS)
        if not hasattr(args, key):
            continue
        try:
            defaults[key] = _CONFIG_TYPES[key](raw)
        except ValueError:
            raise CliError(f"config value for {key!r} is not a valid {_CONFIG_TYPES[key].__name__}: {raw!r}",
                           EXIT_BAD_ARGS)
    return defaults


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.config is not None:
            # config values become defaults, so argparse lets any given flag win
            args = build_parser(_config_defaults(args)).parse_args(argv)
        if getattr(args, "coeffs", None) is None and getattr(args, "demo", None) is None:
            raise CliError("choose a --demo or supply --coeffs", EXIT_BAD_ARGS)
        return args.func(args)
    except CliError as exc:
        print(f"legpade: {exc}", file=sys.stderr)
        return exc.code
    except (SingularSystemError, ResidualTooLargeError, InsufficientCoefficientsError) as exc:
        detail = ""
        if isinstance(exc, SingularSystemError) and exc.condition_estimate is not None:
            detail = f" (condition estimate {exc.condition_estimate:.3e})"
        print(f"legpade: construction failed: {exc}{detail}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except QuadratureConvergenceError as exc:
        print(f"legpade: quadrature failed: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    except (DomainError, ValueError) as exc:
        print(f"legpade: bad arguments: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
