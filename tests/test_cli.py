import argparse
import codecs
import gzip
import importlib.util
import logging
import math
from pathlib import Path

import numpy as np
import pytest
from cli_cases import CASES, check

import legpade.cli as cli
from legpade.cli import CSV_HEADER, build_parser, main, parse_args
from legpade.pade import construct, evaluate
from legpade.scattering import (
    PotentialSpec, born_exact_invr2, born_series, coulomb_exact, coulomb_series, cross_section, exact_half_csc,
    unit_series,
)
from legpade.series import ComplexSeries, eval_partial_sum


def run_cli(args):
    return main(list(args))


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


def fmt(value):
    return format(value, ".17g")


def compare_cells(partial, approx, oracle, thetas, poles):
    """The cells of each compare row: fmt of the library's own arrays, "" where a row has no value."""
    partials = eval_partial_sum(partial, thetas)
    values = evaluate(approx, thetas[~poles])
    pades = iter(zip(values, cross_section(values)))
    exacts = iter(np.asarray(oracle(thetas[thetas > 0.0]), dtype=complex))
    rows = []
    for theta, value, pole in zip(thetas, partials, poles):
        pade, sigma = (None, None) if pole else next(pades)
        exact = next(exacts) if theta > 0.0 else None
        rows.append([fmt(theta), fmt(value.real), fmt(value.imag),
                     *(["", ""] if pade is None else [fmt(pade.real), fmt(pade.imag)]),
                     *(["", ""] if exact is None else [fmt(exact.real), fmt(exact.imag)]),
                     "" if pade is None else fmt(sigma), "1" if pole else "0"])
    return rows


def write_coeffs(path, coefficients):
    lines = ["l,re,im"]
    for l, c in enumerate(coefficients):
        lines.append(f"{l},{float(c.real)!r},{float(c.imag)!r}")
    path.write_text("\n".join(lines) + "\n")


class TestConstructCommand:
    def test_degenerate_echoes_input(self, tmp_path):
        coeffs = np.array([1.5 + 0.5j, -0.25 + 0j, 2.0 - 1.0j])
        infile = tmp_path / "coeffs.csv"
        outfile = tmp_path / "out.txt"
        write_coeffs(infile, coeffs)
        rc = run_cli(["construct", "--coeffs", str(infile), "--L", "2", "--M", "0",
                      "-o", str(outfile)])
        assert rc == 0
        rows = [line.split(",") for line in outfile.read_text().splitlines()
                if line and not line.startswith("#") and not line.startswith("kind")]
        a_rows = [r for r in rows if r[0] == "a"]
        b_rows = [r for r in rows if r[0] == "b"]
        assert len(a_rows) == 3 and len(b_rows) == 1
        for l, row in enumerate(a_rows):
            assert complex(float(row[2]), float(row[3])) == pytest.approx(coeffs[l], rel=1e-12)
        assert float(b_rows[0][2]) == 1.0 and float(b_rows[0][3]) == 0.0

    def test_every_cell_is_the_coefficient_text(self, tmp_path):
        # the invr2 [3/3] denominator has b_1 = -1.358... - 0j, whose imaginary part must print "-0"
        outfile = tmp_path / "invr2.txt"
        assert run_cli(["construct", "--demo", "invr2", "-o", str(outfile)]) == 0
        approx, report = construct(born_series(PotentialSpec("inverse_r2", 1.0), 8, 1.0), 3, 3)
        lines = outfile.read_text().splitlines()
        assert "b,1,-1.3581903641983002,-0" in lines
        assert lines == [
            "# legpade approximant", "# L = 3", "# M = 3",
            f"# condition_estimate = {fmt(report.condition_estimate)}", f"# residual = {fmt(report.residual)}",
            "kind,index,re,im",
            *(f"a,{n},{fmt(a.real)},{fmt(a.imag)}" for n, a in enumerate(approx.numerator)),
            *(f"b,{m},{fmt(b.real)},{fmt(b.imag)}" for m, b in enumerate(approx.denominator)),
        ]

    def test_demo_unit_writes_report(self, tmp_path):
        outfile = tmp_path / "unit.txt"
        rc = run_cli(["construct", "--demo", "unit", "--N", "6", "--L", "3", "--M", "3",
                      "-o", str(outfile)])
        assert rc == 0
        text = outfile.read_text()
        assert "# condition_estimate = " in text
        assert "# residual = " in text
        assert text.count("\na,") == 4 and text.count("\nb,") == 4

    def test_invr2_demo_reproduces_reference_denominator(self, tmp_path):
        outfile = tmp_path / "invr2.txt"
        rc = run_cli(["construct", "--demo", "invr2", "--alpha", "1", "--k", "1",
                      "--N", "6", "--L", "3", "--M", "3", "-o", str(outfile)])
        assert rc == 0
        reference = [1.0, -16158513 / 11897090, 854777 / 2379418, 11424 / 5948545]
        rows = [line.split(",") for line in outfile.read_text().splitlines()
                if line.startswith("b,")]
        for m, row in enumerate(rows):
            assert float(row[2]) == pytest.approx(reference[m], rel=1e-9)
            assert float(row[3]) == pytest.approx(0.0, abs=1e-15)

    def test_inaccurate_solve_is_construction_failure(self, monkeypatch, capsys):
        # a (faked) solution that misses the right-hand side leaves a residual in the enforced-zero orders
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) + 1e-3)
        assert run_cli(["construct", "--demo", "unit", "--N", "6", "--L", "3", "--M", "3"]) == 2
        assert capsys.readouterr().err.startswith("legpade: construction failed: enforced-zero orders leave residual")

    def test_byte_order_mark_read(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with a UTF-8 byte-order mark
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_coeffs(plain, np.array([1.0, 0.5, 0.25]))
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        outputs = [tmp_path / "plain.txt", tmp_path / "marked.txt"]
        for infile, outfile in zip([plain, marked], outputs):
            assert run_cli(["construct", "--coeffs", str(infile), "--L", "1", "--M", "1", "-o", str(outfile)]) == 0
        assert outputs[0].read_text() == outputs[1].read_text()

    def test_blank_coefficient_rows_skipped(self, tmp_path):
        infile = tmp_path / "blank.csv"
        outfile = tmp_path / "out.txt"
        infile.write_text("l,re,im\n0,1.0,0.0\n\n , ,\n1,2.0,0.0\n")
        assert run_cli(["construct", "--coeffs", str(infile), "--L", "1", "--M", "0", "-o", str(outfile)]) == 0
        assert [line for line in outfile.read_text().splitlines() if line.startswith("a,")] == ["a,0,1,0", "a,1,2,0"]

    def test_trailing_empty_cells_accepted(self, tmp_path):
        infile = tmp_path / "trailing.csv"
        outfile = tmp_path / "out.txt"
        infile.write_text("l,re,im\n0,1.0,0.0,\n1,2.0,0.0, ,\n")
        assert run_cli(["construct", "--coeffs", str(infile), "--L", "1", "--M", "0", "-o", str(outfile)]) == 0
        assert [line for line in outfile.read_text().splitlines() if line.startswith("a,")] == ["a,0,1,0", "a,1,2,0"]

    def test_coefficients_too_large_for_the_products_are_bad_args(self, tmp_path, capsys):
        # finite rows at 1e308: the [1/1] numerator leaves the float range, [0/2] stays inside it
        infile, outfile = tmp_path / "big.csv", tmp_path / "out.txt"
        write_coeffs(infile, 1e308 * np.array([1, 1, 1, -1, 1]))
        assert run_cli(["construct", "--coeffs", str(infile), "--L", "1", "--M", "1"]) == 4
        assert ("legpade: bad arguments: series coefficients are too large for the product kernel "
                "(max|c| = 1.000e+308)") in capsys.readouterr().err
        assert run_cli(["construct", "--coeffs", str(infile), "--L", "0", "--M", "2", "-o", str(outfile)]) == 0
        assert outfile.read_text() == (
            "# legpade approximant\n# L = 0\n# M = 2\n# condition_estimate = 1.8316582914572856\n"
            "# residual = 9.9792015476735991e+291\nkind,index,re,im\na,0,6.7286432160804022e+307,0\n"
            "b,0,1,0\nb,1,-0.65954773869346739,0\nb,2,-0.53643216080402001,0\n")


class TestCompareCommand:
    def test_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["compare", "--demo", "coulomb", "--N", "6", "--steps", "64"]
        assert run_cli(args + ["-o", str(out1)]) == 0
        assert run_cli(args + ["-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_a_row_does_not_depend_on_the_steps(self, tmp_path):
        # theta = 1.5 is a grid angle at 3 steps and at 401; its row is summed alike in both
        rows = []
        for steps in ("3", "401"):
            outfile = tmp_path / f"{steps}.csv"
            assert run_cli(["compare", "--demo", "coulomb", "--theta-min", "0.5", "--theta-max", "2.5",
                            "--steps", steps, "-o", str(outfile)]) == 0
            rows.append([line for line in outfile.read_text().splitlines() if line.startswith("1.5,")])
        assert len(rows[0]) == 1 and rows[0] == rows[1]

    def test_degenerate_pade_equals_partial(self, tmp_path):
        outfile = tmp_path / "cmp.csv"
        rc = run_cli(["compare", "--demo", "unit", "--N", "6", "--L", "6", "--M", "0",
                      "--steps", "20", "-o", str(outfile)])
        assert rc == 0
        for row in read_rows(outfile):
            assert float(row[3]) == pytest.approx(float(row[1]), rel=1e-13)
            assert float(row[4]) == pytest.approx(float(row[2]), abs=1e-13)

    def test_pole_row_kept(self, tmp_path):
        # 0.60155733029562397 is a real root of the [20/20] unit denominator (a
        # Froissart doublet): its row keeps theta, partial sum and exact value and
        # leaves the approximant columns empty; the other rows are evaluated
        outfile = tmp_path / "pole.csv"
        rc = run_cli(["compare", "--demo", "unit", "--N", "40", "--theta-min", "0.60155733029562397",
                      "--theta-max", "3", "--steps", "3", "-o", str(outfile)])
        assert rc == 0
        rows = read_rows(outfile)
        assert rows[0][0] == "0.60155733029562397"
        assert rows[0][2:] == ["0", "", "", "1.6876839334841833", "0", "", "1"]
        assert float(rows[0][1]) == pytest.approx(1.4203570049219405, rel=1e-13)
        full = unit_series(42)
        thetas = np.linspace(0.60155733029562397, 3.0, 3)
        assert rows == compare_cells(ComplexSeries(full.coefficients[:41]), construct(full, 20, 20)[0],
                                     exact_half_csc, thetas, np.array([True, False, False]))

    @pytest.mark.parametrize("demo, oracle", [
        ("unit", exact_half_csc),
        ("coulomb", lambda theta: coulomb_exact(theta, 1.0)),
        ("invr2", lambda theta: born_exact_invr2(theta, 1.0, 1.0)),
    ])
    def test_exact_columns_from_theta_zero(self, tmp_path, demo, oracle):
        outfile = tmp_path / f"{demo}.csv"
        assert run_cli(["compare", "--demo", demo, "--theta-min", "0", "--steps", "5",
                        "-o", str(outfile)]) == 0
        rows = read_rows(outfile)
        assert rows[0][0] == "0" and rows[0][5:7] == ["", ""]
        # the demo series at the default --N 6, with the two orders beyond that the construction uses
        full = {"unit": lambda: unit_series(8), "coulomb": lambda: coulomb_series(8, 1.0),
                "invr2": lambda: born_series(PotentialSpec("inverse_r2", 1.0), 8, 1.0)}[demo]()
        thetas = np.linspace(0.0, math.pi, 5)
        assert rows == compare_cells(ComplexSeries(full.coefficients[:7]), construct(full, 3, 3)[0],
                                     oracle, thetas, np.zeros(5, dtype=bool))

    @pytest.mark.parametrize("steps", ["2", "5", "400"])
    @pytest.mark.parametrize("demo, name", [
        ("unit", "exact_half_csc"), ("coulomb", "coulomb_exact"), ("invr2", "born_exact_invr2"),
    ])
    def test_one_oracle_call_per_run(self, tmp_path, monkeypatch, demo, name, steps):
        calls = []
        oracle = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args: calls.append(args) or oracle(*args))
        assert run_cli(["compare", "--demo", demo, "--theta-min", "0", "--steps", steps,
                        "-o", str(tmp_path / "out.csv")]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("args, value", [
        ("compare --demo invr2 --steps 3 --alpha", "-1e-3"),
        ("compare --demo rn --steps 3 --QoverM", "-1e-4"),
        ("construct --demo invr2 --alpha", "-2E+0"),
    ])
    def test_negative_value_in_scientific_notation(self, capsys, args, value):
        # argparse on Python 3.10 and 3.11 took "-1e-3" for an unknown flag, so the option lacked its value
        *head, option = args.split()
        assert run_cli([*head, option, value]) == 0
        spaced = capsys.readouterr().out
        assert run_cli([*head, f"{option}={value}"]) == 0
        assert capsys.readouterr().out == spaced

    def test_out_of_memory_is_bad_args(self, monkeypatch, capsys):
        # numpy raises MemoryError for an array too large for the arguments (--N 1000000 asks
        # for a 7.28 TiB matrix); a stub raises it here, as a real allocation that large may
        # succeed under overcommit and then exhaust the machine
        message = "Unable to allocate 7.28 TiB for an array with shape (1000001, 500001) and data type complex128"

        def no_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "construct", no_memory)
        assert run_cli(["compare", "--demo", "unit", "--steps", "3"]) == 4
        assert capsys.readouterr().err == f"legpade: bad arguments: {message}\n"


class TestSeriesSource:
    """construct reads one series source: --demo or --coeffs, and a config file's only where the
    command line names neither."""

    @pytest.fixture
    def coeffs(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        write_coeffs(path, np.array([1.0, 0.5, 0.25, 0.125, 0.0625]))
        return path

    def construct(self, tmp_path, config_text, *flags):
        config = tmp_path / "source.cfg"
        config.write_text(config_text)
        outfile = tmp_path / "out.txt"
        rc = run_cli(["construct", "--config", str(config), *flags, "--L", "1", "--M", "1", "-o", str(outfile)])
        return rc, outfile.read_text() if rc == 0 else None

    def test_config_demo_yields_to_command_line_coeffs(self, tmp_path, coeffs):
        flags = ["--coeffs", str(coeffs)]
        want = self.construct(tmp_path, "", *flags)
        assert self.construct(tmp_path, "demo = unit\n", *flags) == want
        assert parse_args(["construct", "--config", str(tmp_path / "source.cfg"), *flags]).demo is None

    def test_config_coeffs_yield_to_command_line_demo(self, tmp_path, coeffs):
        rc, text = self.construct(tmp_path, f"coeffs = {coeffs}\n", "--demo", "unit")
        assert rc == 0 and (rc, text) == self.construct(tmp_path, "", "--demo", "unit")
        assert text != self.construct(tmp_path, "", "--coeffs", str(coeffs))[1]

    def test_coefficient_file_used_whole(self, tmp_path, coeffs):
        outfile = tmp_path / "out.txt"
        assert run_cli(["construct", "--coeffs", str(coeffs), "-o", str(outfile)]) == 0
        assert outfile.read_text().splitlines()[1:3] == ["# L = 2", "# M = 2"]  # default_split of order 4
        assert parse_args(["construct", "--coeffs", str(coeffs)]).N is None


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        config = tmp_path / "sweep.cfg"
        outfile = tmp_path / "out.csv"
        config.write_text("demo = unit\nsteps = 7\ntheta-min = 0.5\n")
        rc = run_cli(["compare", "--config", str(config), "-o", str(outfile)])
        assert rc == 0
        rows = read_rows(outfile)
        assert len(rows) == 7
        assert float(rows[0][0]) == pytest.approx(0.5)

    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "sweep.cfg"
        outfile = tmp_path / "out.csv"
        config.write_text("demo = unit\nsteps = 7\n")
        rc = run_cli(["compare", "--config", str(config), "--steps", "9", "-o", str(outfile)])
        assert rc == 0
        assert len(read_rows(outfile)) == 9

    def test_short_flag_overrides_config(self, tmp_path):
        config = tmp_path / "sweep.cfg"
        explicit = tmp_path / "explicit.csv"
        from_config = tmp_path / "from_config.csv"
        config.write_text(f"demo = unit\nsteps = 7\noutput = {from_config}\n")
        rc = run_cli(["compare", "--demo", "unit", "--config", str(config), "-o", str(explicit)])
        assert rc == 0
        assert len(read_rows(explicit)) == 7
        assert not from_config.exists()

    def test_abbreviated_flag_overrides_config(self, tmp_path):
        config = tmp_path / "sweep.cfg"
        outfile = tmp_path / "out.csv"
        config.write_text("demo = unit\nsteps = 3\n")
        rc = run_cli(["compare", "--config", str(config), "--ste", "5", "-o", str(outfile)])
        assert rc == 0
        assert len(read_rows(outfile)) == 5

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        config = tmp_path / "sweep.cfg"
        outfile = tmp_path / "out.csv"
        config.write_text("# a sweep\n\ndemo = unit\n   \n  # steps = 9\nsteps = 4\n")
        assert run_cli(["compare", "--config", str(config), "-o", str(outfile)]) == 0
        assert len(read_rows(outfile)) == 4

    def test_byte_order_mark_read(self, tmp_path):
        # the mark sits on the first key, which is then read as 'steps'
        config = tmp_path / "marked.cfg"
        outfile = tmp_path / "out.csv"
        config.write_bytes(codecs.BOM_UTF8 + b"steps = 3\ndemo = unit\n")
        assert run_cli(["compare", "--config", str(config), "-o", str(outfile)]) == 0
        assert len(read_rows(outfile)) == 3

    @pytest.mark.parametrize("command", ["construct", "compare"])
    def test_every_typed_option_accepted(self, tmp_path, command):
        parser = build_parser()
        subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        typed = {a.dest: a.type for a in subcommands.choices[command]._actions if a.type is not None}
        assert {"N", "L", "M", "k", "rn_rmax"} <= set(typed)
        config = tmp_path / "all.cfg"
        config.write_text("".join(f"{dest.replace('_', '-')} = 3\n" for dest in typed))
        args = parse_args([command, "--config", str(config)])
        values = {dest: getattr(args, dest) for dest in typed}
        assert values == {dest: kind("3") for dest, kind in typed.items()}
        assert all(type(values[dest]) is kind for dest, kind in typed.items())


def test_rn_csv_unchanged_by_debug_logging(tmp_path, caplog):
    quiet, verbose = tmp_path / "quiet.csv", tmp_path / "verbose.csv"
    assert run_cli(["compare", "--demo", "rn", "-o", str(quiet)]) == 0
    caplog.set_level(logging.DEBUG, logger="legpade.quadrature")
    assert run_cli(["compare", "--demo", "rn", "-o", str(verbose)]) == 0
    assert any(record.name == "legpade.quadrature" for record in caplog.records)
    assert verbose.read_bytes() == quiet.read_bytes()


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the compare calls whose CSVs perfbench/reference records: unit, and coulomb, invr2 and rn on a parameter grid
RECORDED = [("unit", [])] + [(demo, ["--k", k]) for demo in ("coulomb", "invr2") for k in ("0.5", "1.0", "2.0")] \
    + [("rn", ["--QoverM", q]) for q in ("0.0001", "0.5", "0.99")]


def _recorded_name(demo, extra):
    return demo + (f"_{extra[0].lstrip('-')}{extra[1]}" if extra else "")


@pytest.fixture(scope="module")
def harness_oracles():
    # the benchmark checks its CLI calls with perfbench/oracles.py, loaded here by path and only read
    spec = importlib.util.spec_from_file_location("perfbench_oracles", PERFBENCH / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles


def test_every_recorded_output_is_checked():
    recorded = sorted(path.name for path in (PERFBENCH / "reference").glob("*.csv.gz"))
    assert recorded == sorted(f"{_recorded_name(demo, extra)}.csv.gz" for demo, extra in RECORDED)


@pytest.mark.parametrize("demo, extra", RECORDED, ids=[_recorded_name(demo, extra) for demo, extra in RECORDED])
def test_recorded_output_reproduced(tmp_path, harness_oracles, demo, extra):
    # within the harness's CSV tolerance, not bit for bit: the recordings predate the one Legendre-sum path
    reference = gzip.decompress((PERFBENCH / "reference" / f"{_recorded_name(demo, extra)}.csv.gz").read_bytes())
    outfile = tmp_path / "out.csv"
    assert run_cli(["compare", "--demo", demo, *extra, "-o", str(outfile)]) == 0
    assert harness_oracles.csv_mismatch(outfile.read_bytes().decode(), reference.decode()) is None


def test_help_exits_cleanly(capsys):
    assert run_cli(["--help"]) == 0
    assert "construct" in capsys.readouterr().out


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_cli_case(case, tmp_path, capsys):
    # each row of tests/cli_cases.py in process; CI runs the same rows through the installed console script
    assert check(case, lambda argv: (main(argv), *capsys.readouterr()), tmp_path) is None


def test_cli_case_ids_are_unique():
    # pytest would suffix a duplicate id, and a copied row could shadow the case it meant to add
    assert len({case[0] for case in CASES}) == len(CASES)
