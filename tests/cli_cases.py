"""Every pinned ``legpade`` call with its exit code and stderr. ``tests/test_cli.py::test_cli_case`` runs each
row through ``legpade.cli.main`` in process; ``python tests/cli_cases.py`` runs each through the ``legpade``
console script on ``PATH``, with the standard library only, and exits 1 if any row fails.

A row is ``(id, code, argv, stderr, files)``. ``argv`` is split as a shell splits it, and ``files`` maps a
file name to its text, written into a fresh directory before the call; ``{dir}`` in the argv, the stderr or
a file's text names that directory. The stderr must match whole when it ends in a newline, else in part."""

import os
import shlex
import subprocess
import sys
import tempfile

BAD = "legpade: bad arguments: "
CHOOSE = "legpade: choose a --demo"
K = BAD + "wavenumber must be positive and finite, got {} (1/k must be finite too)\n"
OVERFLOW = BAD + "wavenumber k = {} is too small{}: the partial-wave coefficients overflow\n"
NO_FILE = "legpade: cannot read {} file: [Errno 2] No such file or directory: '{}'\n"
SINGULAR = "legpade: construction failed: condition number inf is not below 1/1e-14; system is numerically singular\n"
TOO_LARGE = "--steps {} is too large for an array\n"
EPSILON = BAD + "horizon_epsilon = {} must put the lower cutoff r_+(1 + horizon_epsilon) at a finite r beyond r_+\n"
# the r_max message at the rn demo's default mass, charge and horizon_epsilon
R_MAX = (" must be finite, with a finite square, and lie beyond the lower quadrature cutoff r_+(1 + horizon_epsilon)"
         " = 18.660254224446927, horizon_epsilon = 1e-08\n")
DEFAULT_R_MAX = BAD + "the default r_max = 50/eta at eta = {} is out of range, give r_max (--rn-rmax): r_max = {}"
UNKNOWN_KEY = "legpade: unknown config key '{}'\n"
COEFFS = {"coeffs.csv": "l,re,im\n0,1.0,0.0\n1,0.5,0.0\n2,0.25,0.0\n3,0.125,0.0\n4,0.0625,0.0\n"}
ZEROS = "l,re,im\n0,0,0\n1,0,0\n2,0,0\n3,0,0\n"
CSV = "{dir}/coeffs.csv"
SOURCE = "construct --config {dir}/s.cfg --L 1 --M 1 -o {dir}/out.txt"
RN = "compare --demo rn --steps 3"
NEAR_EXTREMAL = f"{RN} --QoverM 0.999999999999"

CASES = [
    # construct: one series source, --demo or --coeffs
    ("construct-no-source", 4, "construct --L 3 --M 3", f"{CHOOSE} or supply --coeffs\n", {}),
    ("construct-config-without-source", 4, SOURCE, f"{CHOOSE} or supply --coeffs\n", {"s.cfg": "N = 4\n"}),
    ("compare-config-without-source", 4, "compare --config {dir}/s.cfg --steps 3", f"{CHOOSE}\n", {"s.cfg": "N = 4\n"}),
    ("construct-demo-and-coeffs", 4, f"construct --demo unit --coeffs {CSV} --L 1 --M 1",
     "legpade: give --demo or --coeffs, not both (the command line names both)\n", COEFFS),
    ("construct-demo-and-coeffs-in-config", 4, SOURCE,
     "legpade: give --demo or --coeffs, not both (the config file {dir}/s.cfg names both)\n",
     {**COEFFS, "s.cfg": f"demo = unit\ncoeffs = {CSV}\n"}),
    # an empty path still names the coefficient source; it must not fall through to a demo
    ("construct-empty-path", 4, "construct --coeffs '' --L 1 --M 1 -o {dir}/out.txt",
     NO_FILE.format("coefficient", ""), {}),
    ("construct-empty-path-in-config", 4, SOURCE, NO_FILE.format("coefficient", ""), {"s.cfg": "coeffs =\n"}),
    # a coefficient file is used whole: an --N beside it is a bad argument, not silently ignored
    *[(f"construct-N-with-coeffs-{name}", 4, SOURCE.replace("--L", f"{flags} --L"),
       "legpade: --N does not apply to --coeffs: a coefficient file is used whole\n", {**COEFFS, "s.cfg": config})
      for name, config, flags in [
          ("flag-2", "", f"--coeffs {CSV} --N 2"), ("flag-negative", "", f"--coeffs {CSV} --N -5"),
          ("flag-demo-default", "", f"--coeffs {CSV} --N 6"), ("config-order", "N = 2\n", f"--coeffs {CSV}"),
          ("config-coeffs", f"coeffs = {CSV}\n", "--N 2"), ("config-both", f"coeffs = {CSV}\nN = 2\n", "")]],
    *[(f"construct-{degree}-alone", 4, f"construct --demo unit --{degree} 3",
       "legpade: give both --L and --M, or neither\n", {}) for degree in "LM"],
    # construct: the coefficient file
    ("construct-missing-file", 4, "construct --coeffs {dir}/missing.csv",
     NO_FILE.format("coefficient", "{dir}/missing.csv"), {}),
    ("construct-no-header", 4, "construct --coeffs {dir}/c.csv --L 0 --M 0",
     "legpade: coefficient file must start with the header 'l,re,im'\n", {"c.csv": "0,1.0,0.0\n"}),
    ("construct-order-gap", 4, "construct --coeffs {dir}/c.csv --L 1 --M 0",
     "legpade: coefficient rows must cover l = 0..N contiguously\n", {"c.csv": "l,re,im\n0,1.0,0.0\n2,1.0,0.0\n"}),
    ("construct-duplicate-order", 4, "construct --coeffs {dir}/c.csv --L 2 --M 2",
     "legpade: duplicate coefficient row for l = 1\n",
     {"c.csv": "l,re,im\n0,1.0,0.0\n1,1.0,0.0\n1,1.0,0.0\n2,1.0,0.0\n3,1.0,0.0\n4,1.0,0.0\n"}),
    *[(f"construct-malformed-row-{name}", 4, "construct --coeffs {dir}/c.csv --L 1 --M 0",
       f"legpade: malformed coefficient row: {row.split(',')}\n", {"c.csv": f"l,re,im\n0,1.0,0.0\n{row}\n"})
      for name, row in [("short", "1,2.0"), ("text-order", "one,2.0,0.0"), ("text-value", "1,2.0,x"),
                        ("fourth-cell", "1,2.0,0.0,9")]],
    # a UTF-8 byte-order mark, as Excel's "CSV UTF-8" export writes, is read past
    ("construct-byte-order-mark", 0, "construct --coeffs {dir}/c.csv --L 1 --M 1", "",
     {"c.csv": "\ufeffl,re,im\n0,1,0\n1,0.5,0\n2,0.25,0\n"}),
    *[(f"construct-singular-L{L}-M2", 2, f"construct --coeffs {{dir}}/c.csv --L {L} --M 2", SINGULAR,
       {"c.csv": ZEROS + more}) for L, more in [(1, ""), (2, "4,0,0\n")]],
    # compare: the demo, the grid and the output
    ("version", 0, "--version", "", {}),
    ("compare-unit", 0, "compare --demo unit --steps 5", "", {}),
    ("compare-no-demo", 4, "compare", f"{CHOOSE}\n", {}),
    ("compare-no-demo-with-steps", 4, "compare --steps 3", f"{CHOOSE}\n", {}),
    ("compare-unknown-demo", 4, "compare --demo nonsense", "argument --demo: invalid choice: 'nonsense'", {}),
    *[(f"compare-theta-{name}", 4, f"compare --demo unit {flags}",
       "legpade: need 0 <= theta-min < theta-max <= pi (radians)\n", {})
      for name, flags in [("min-above-max", "--theta-min 2.0 --theta-max 1.0"), ("max-above-pi", "--theta-max 4.0")]],
    ("compare-one-step", 4, "compare --demo unit --steps 1", "legpade: --steps must be at least 2\n", {}),
    # numpy rejects 2^62 and 2^64 - 1 by size; within about 1e3 of 2^63 it wraps the size to an empty array
    *[(f"compare-steps-{name}", 4, f"compare --demo unit --steps {steps}", BAD + message.format(steps), {})
      for name, steps, message in [("2^62", 2**62, ""), ("2^63-1", 2**63 - 1, TOO_LARGE), ("2^63", 2**63, TOO_LARGE),
                                   ("2^64-1", 2**64 - 1, "")]],
    *[(f"compare-negative-{name}", 4, f"compare --demo unit {flags} --steps 3",
       BAD + f"{what} must be a non-negative integer, got {flags.split()[1]}\n", {})
      for name, flags, what in [
          ("N-1", "--N -1", "--N"), ("N-2", "--N -2", "--N"), ("L", "--L -1 --M 2", "numerator degree L"),
          ("M", "--M -1 --L 2", "denominator degree M")]],
    # a negative value in scientific notation is a value, not an unknown flag, also on Python 3.10 and 3.11
    ("compare-negative-alpha", 0, "compare --demo invr2 --alpha -1e-3 --steps 3", "", {}),
    ("compare-negative-QoverM", 0, f"{RN} --QoverM -1e-4", "", {}),
    ("compare-unwritable-output", 1, "compare --demo unit --steps 3 -o {dir}/missing/out.csv",
     "legpade: cannot write output: [Errno 2] No such file or directory: '{dir}/missing/out.csv'\n", {}),
    # compare: the wavenumber and the coupling; 1/k overflows at k = 5e-324, and a guard must reject k first
    *[(f"compare-{demo}-k-{k}", 4, f"compare --demo {demo} --k {k}", K.format(k), {})
      for demo in ("coulomb", "invr2") for k in ("nan", "inf", "5e-324")],
    # the coefficients overflow; for Coulomb at 1e-308 in log-gamma at 1 + i/k
    *[(f"compare-{demo}-{'-'.join(flags.replace('--', '').split())}", 4, f"compare --demo {demo} {flags}",
       OVERFLOW.format(k, alpha and f" or the coupling alpha = {alpha} too large"), {})
      for demo, flags, k, alpha in [
          ("coulomb", "--k 5.56268464626801e-309", "5.56268464626801e-309", ""),
          ("coulomb", "--k 1e-308", "1e-308", ""),
          ("invr2", "--k 1e-307 --N 20", "1e-307", "1.0")]],
    # the coefficients -alpha pi/2 are finite, and their products in the construction are not
    ("compare-invr2-alpha-1e308", 4, "compare --demo invr2 --alpha 1e308",
     BAD + "series coefficients are too large for the product kernel (max|c| = 1.571e+308)\n", {}),
    # at --N 6 the coefficients stay finite, and the approximant overflows
    ("compare-invr2-k-1e-307", 4, "compare --demo invr2 --k 1e-307",
     BAD + "the approximant overflows at theta = 0.05\n", {}),
    ("compare-invr2-alpha-1e300", 4, "compare --demo invr2 --alpha 1e300 --steps 3",
     BAD + "the cross section |f|^2 overflows: largest |f| = 1.845e+301\n", {}),
    # the partial-sum column overflows: a bad argument, not a leaked RuntimeWarning
    ("compare-invr2-alpha-3e307", 4, "compare --demo invr2 --alpha 3e307 --steps 3",
     BAD + "the partial sum overflows at theta = 0.05\n", {}),
    *[(f"compare-{demo}-theta-min-{theta}", 4, f"compare --demo {demo} --theta-min {theta} --steps 3",
       BAD + f"{amplitude} is not finite at theta = {theta}\n", {})
      for demo, theta, amplitude in [("unit", "5e-324", "1/(2 sin(theta/2))"),
                                     ("coulomb", "1e-160", "the Coulomb amplitude"),
                                     ("invr2", "1e-310", "the 1/r^2 Born amplitude")]],
    # compare: the rn demo's parameters and quadrature cutoffs
    *[(f"compare-rn-{flag}-{value}", 4, f"{RN} --{flag} {value}",
       BAD + f"{name} = {float(value)} is too large: its square overflows\n", {})
      for flag, name in [("mass", "mass"), ("mu", "particle mass mu")] for value in ("1e200", "1e300")],
    *[(f"compare-rn-{'-'.join(flags.replace('--', '').split())}", 4, f"{RN} {flags}",
       BAD + f"mass = {mass} and particle mass mu = {mu} make the first-order weights overflow\n", {})
      for flags, mass, mu in [("--mu 1e151", "10.0", "1e+151"), ("--mass 1e-120", "1e-120", "1e-06")]],
    *[(f"compare-rn-rmax-{r_max}", 4, f"{RN} {flags} --rn-rmax {r_max}", BAD + f"r_max = {float(r_max)}" + R_MAX, {})
      for flags, r_max in [("", "inf"), ("", "nan"), ("--eta 3", "1")]],
    ("compare-rn-rmax-100", 0, f"{RN} --eta 3 --rn-rmax 100", "", {}),
    # 50/eta names the default r_max; at eta = 1e-300 it is finite, but its square in the radial weights is not
    *[(f"compare-rn-eta-{eta}", 4, f"{RN} --eta {eta}", DEFAULT_R_MAX.format(float(eta), r_max) + R_MAX, {})
      for eta, r_max in [("1e-300", 50 / 1e-300), ("3", "16.666666666666668"), ("1e300", "5e-299"), ("1e-320", "inf")]],
    *[(f"compare-rn-epsilon-{eps}", 4, f"{RN} --rn-epsilon {eps}", EPSILON.format(float(eps)), {})
      for eps in ("inf", "0")],
    # an absurd upper cutoff forces the oscillatory quadrature past its subdivision budget
    ("compare-rn-rmax-1e12", 3, "compare --demo rn --N 0 --L 0 --M 0 --steps 2 --rn-rmax 1e12",
     "legpade: quadrature failed: quadrature on [", {}),
    # near extremality the default horizon cutoff meets quadrature roundoff; a larger one passes
    ("compare-rn-near-extremal", 3, NEAR_EXTREMAL, "did not converge: roundoff prevents the tolerance", {}),
    ("compare-rn-near-extremal-epsilon-1e-6", 0, f"{NEAR_EXTREMAL} --rn-epsilon 1e-6", "", {}),
    # config files
    ("config-unit", 0, "compare --config {dir}/c.cfg", "", {"c.cfg": "demo = unit\nsteps = 3\n"}),
    ("config-missing", 4, "compare --demo unit --config {dir}/missing.cfg",
     NO_FILE.format("config", "{dir}/missing.cfg"), {}),
    *[(f"config-{name}", 4, "compare --config {dir}/c.cfg", stderr, {"c.cfg": text}) for name, text, stderr in [
        ("badly-typed", "demo = unit\nsteps = many\n", "argument --steps: invalid int value: 'many'"),
        ("demo-choice", "demo = nonsense\n", "argument --demo: invalid choice: 'nonsense'"),
        ("unknown-key", "demo = unit\nbogus = 1\n", UNKNOWN_KEY.format("bogus"))]],
    *[(f"config-{name}", code, f"{command} --config {{dir}}/c.cfg -o {{dir}}/out", stderr, {"c.cfg": text})
      for name, command, text, code, stderr in [
          ("compare-only-key-ignored", "construct", "demo = unit\nsteps = 5\n", 0, ""),
          ("key-config", "compare", "demo = unit\nconfig = other.cfg\n", 4, UNKNOWN_KEY.format("config")),
          ("key-help", "compare", "demo = unit\nhelp = 1\n", 4, UNKNOWN_KEY.format("help")),
          ("no-equals", "compare", "demo = unit\nsteps 5\n", 4,
           "legpade: config line is not 'key = value': 'steps 5'\n"),
          ("negative-k", "compare", "demo = coulomb\nk = -2\n", 4, K.format(-2.0)),
          ("negative-k-construct", "construct", "demo = coulomb\nk = -2\n", 4, K.format(-2.0))]],
]


def check(case, run, directory):
    """None if ``run(argv) -> (code, stdout, stderr)`` keeps to the row ``case``, else what differs. A failure prints
    no stdout, writes no ``-o`` file and prints usage or one ``legpade:`` line; a success prints no stderr."""
    _, code, argv, stderr, files = case
    directory = str(directory)
    for name, text in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text.replace("{dir}", directory))
    argv = [arg.replace("{dir}", directory) for arg in shlex.split(argv)]
    stderr, whole = stderr.replace("{dir}", directory), stderr.endswith("\n")
    got, out, err = run(argv)
    problems = []
    if got != code:
        problems.append(f"exit {got}, want {code}")
    if err != stderr if whole else stderr not in err:
        problems.append(f"stderr {err!r}, want {'' if whole else 'a part '}{stderr!r}")
    if code and out:
        problems.append(f"stdout {out[:200]!r} on a failure")
    one_line = err.startswith("legpade: ") and err.endswith("\n") and err.count("\n") == 1
    if (code and not (err.startswith("usage: ") or one_line)) or (not code and err):
        problems.append(f"stderr {err!r} is not " + ("argparse's usage or one legpade: line" if code else "empty"))
    if "-o" in argv and os.path.exists(argv[argv.index("-o") + 1]) != (code == 0):
        problems.append("the -o file was " + ("not written" if code == 0 else "written on a failure"))
    return "; ".join(problems) or None


def _console_script(argv):
    done = subprocess.run(["legpade", *argv], capture_output=True, encoding="utf-8", errors="replace")
    return done.returncode, done.stdout, done.stderr


if __name__ == "__main__":
    failures = 0
    for case in CASES:
        with tempfile.TemporaryDirectory() as directory:
            problem = check(case, _console_script, directory)
        if problem:
            failures += 1
            print(f"{case[0]}: legpade {case[2]}: {problem}")
    print(f"{len(CASES) - failures} of {len(CASES)} rows pass through the legpade console script")
    sys.exit(failures > 0)
