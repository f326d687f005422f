import argparse
import logging
import math

import numpy as np
import pytest

import legpade.cli as cli
from legpade.cli import CSV_HEADER, build_parser, main, parse_args
from legpade.pade import construct, evaluate
from legpade.scattering import born_exact_invr2, coulomb_exact, exact_half_csc, unit_series


def run_cli(args):
    return main(list(args))


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


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

    def test_missing_source_is_bad_args(self):
        assert run_cli(["construct", "--L", "3", "--M", "3"]) == 4

    def test_singular_input_is_construction_failure(self, tmp_path, capsys):
        infile = tmp_path / "zeros.csv"
        write_coeffs(infile, np.zeros(4, dtype=complex))
        assert run_cli(["construct", "--coeffs", str(infile), "--L", "1", "--M", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("legpade: construction failed: condition number inf is not below")
        assert err.count("condition") == 1

    def test_header_required(self, tmp_path):
        infile = tmp_path / "bad.csv"
        infile.write_text("0,1.0,0.0\n")
        assert run_cli(["construct", "--coeffs", str(infile), "--L", "0", "--M", "0"]) == 4

    def test_non_contiguous_orders_rejected(self, tmp_path):
        infile = tmp_path / "gap.csv"
        infile.write_text("l,re,im\n0,1.0,0.0\n2,1.0,0.0\n")
        assert run_cli(["construct", "--coeffs", str(infile), "--L", "1", "--M", "0"]) == 4

    def test_unreadable_coefficient_file_is_bad_args(self, tmp_path, capsys):
        assert run_cli(["construct", "--coeffs", str(tmp_path / "missing.csv")]) == 4
        assert "cannot read coefficient file" in capsys.readouterr().err

    def test_blank_coefficient_rows_skipped(self, tmp_path):
        infile = tmp_path / "blank.csv"
        outfile = tmp_path / "out.txt"
        infile.write_text("l,re,im\n0,1.0,0.0\n\n , ,\n1,2.0,0.0\n")
        assert run_cli(["construct", "--coeffs", str(infile), "--L", "1", "--M", "0", "-o", str(outfile)]) == 0
        assert [line for line in outfile.read_text().splitlines() if line.startswith("a,")] == ["a,0,1,0", "a,1,2,0"]

    @pytest.mark.parametrize("row", ["1,2.0", "one,2.0,0.0", "1,2.0,x"])
    def test_malformed_coefficient_row_rejected(self, tmp_path, capsys, row):
        infile = tmp_path / "bad.csv"
        infile.write_text(f"l,re,im\n0,1.0,0.0\n{row}\n")
        assert run_cli(["construct", "--coeffs", str(infile), "--L", "1", "--M", "0"]) == 4
        assert "malformed coefficient row" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--L", "3"], ["--M", "3"]])
    def test_one_degree_alone_is_bad_args(self, capsys, flags):
        assert run_cli(["construct", "--demo", "unit", *flags]) == 4
        assert "give both --L and --M, or neither" in capsys.readouterr().err

    def test_duplicate_orders_rejected(self, tmp_path, capsys):
        infile = tmp_path / "dup.csv"
        infile.write_text("l,re,im\n" + "".join(f"{l},1.0,0.0\n" for l in (0, 1, 1, 2, 3, 4)))
        assert run_cli(["construct", "--coeffs", str(infile), "--L", "2", "--M", "2"]) == 4
        assert "duplicate coefficient row for l = 1" in capsys.readouterr().err


class TestCompareCommand:
    def test_csv_shape_and_monotonicity(self, tmp_path):
        outfile = tmp_path / "unit.csv"
        rc = run_cli(["compare", "--demo", "unit", "--N", "6", "--L", "3", "--M", "3",
                      "--steps", "50", "-o", str(outfile)])
        assert rc == 0
        rows = read_rows(outfile)
        assert len(rows) == 50
        thetas = [float(r[0]) for r in rows]
        assert all(b > a for a, b in zip(thetas, thetas[1:]))
        for row in rows:
            assert row[8] == "0"
            sigma = float(row[3]) ** 2 + float(row[4]) ** 2
            assert sigma == pytest.approx(float(row[7]), rel=1e-12)
            # exact column present for the unit demo
            assert row[5] != ""

    def test_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["compare", "--demo", "coulomb", "--N", "6", "--steps", "64"]
        assert run_cli(args + ["-o", str(out1)]) == 0
        assert run_cli(args + ["-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_degenerate_pade_equals_partial(self, tmp_path):
        outfile = tmp_path / "cmp.csv"
        rc = run_cli(["compare", "--demo", "unit", "--N", "6", "--L", "6", "--M", "0",
                      "--steps", "20", "-o", str(outfile)])
        assert rc == 0
        for row in read_rows(outfile):
            assert float(row[3]) == pytest.approx(float(row[1]), rel=1e-13)
            assert float(row[4]) == pytest.approx(float(row[2]), abs=1e-13)

    def test_rn_demo_exact_columns_empty(self, tmp_path):
        outfile = tmp_path / "rn.csv"
        rc = run_cli(["compare", "--demo", "rn", "--N", "4", "--steps", "5",
                      "--QoverM", "0.5", "--eta", "1e-4", "--mu", "1e-6", "--mass", "10",
                      "-o", str(outfile)])
        assert rc == 0
        for row in read_rows(outfile):
            assert row[5] == "" and row[6] == ""

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
        approx, _ = construct(unit_series(42), 20, 20)
        for row in rows[1:]:
            assert row[8] == "0"
            expected = evaluate(approx, float(row[0]))
            assert complex(float(row[3]), float(row[4])) == pytest.approx(expected, rel=1e-13)

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
        expected = oracle(np.array([float(row[0]) for row in rows[1:]])).astype(complex)
        for row, value in zip(rows[1:], expected):
            assert row[5:7] == [format(value.real, ".17g"), format(value.imag, ".17g")]

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

    # with k = 5e-324, 1/k overflows; pytest turns numpy's RuntimeWarning into an error, so
    # the guard must reject k before anything divides by it
    @pytest.mark.parametrize("demo, k", [("coulomb", "nan"), ("coulomb", "inf"), ("invr2", "inf"),
                                         ("coulomb", "5e-324"), ("invr2", "5e-324")])
    def test_non_finite_wavenumber_is_bad_args(self, capsys, demo, k):
        assert run_cli(["compare", "--demo", demo, "--k", k]) == 4
        assert f"wavenumber must be positive and finite, got {k}" in capsys.readouterr().err

    # pytest turns numpy's RuntimeWarning into an error, so each overflow must stay quiet
    @pytest.mark.parametrize("demo, k, message", [
        ("coulomb", "5.56268464626801e-309", "wavenumber k = 5.56268464626801e-309 is too small"),
        ("coulomb", "1e-308", "wavenumber k = 1e-308 is too small"),  # log-gamma at 1 + i/k
        ("invr2", "1e-307", "the approximant overflows at theta = 0.05"),  # finite coefficients
        ("invr2", "1e-307 --N 20", "wavenumber k = 1e-307 is too small"),
    ])
    def test_tiny_wavenumber_is_bad_args(self, capsys, demo, k, message):
        assert run_cli(["compare", "--demo", demo, "--k", *k.split()]) == 4
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("r_max", ["inf", "nan"])
    def test_non_finite_rn_rmax_is_bad_args(self, capsys, r_max):
        assert run_cli(["compare", "--demo", "rn", "--rn-rmax", r_max, "--steps", "3"]) == 4
        assert f"r_max = {r_max} must be finite" in capsys.readouterr().err

    def test_rn_cutoff_with_overflowing_square_is_bad_args(self, capsys):
        # the default r_max = 50/eta = 5e301 is finite, but r_max^2 in the radial weights is not;
        # pytest turns the overflow warning into an error, so the guard must come first
        assert run_cli(["compare", "--demo", "rn", "--eta", "1e-300", "--steps", "3"]) == 4
        assert f"r_max = {50.0 / 1e-300} must be finite, with a finite square" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--N", "-1"], ["--N", "-2"], ["--L", "-1", "--M", "2"], ["--L", "2", "--M", "-1"]])
    def test_negative_order_is_bad_args(self, capsys, flags):
        assert run_cli(["compare", "--demo", "unit", *flags, "--steps", "3"]) == 4
        assert "must be a non-negative integer, got -" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--demo", "invr2", "--alpha", "1e300"],  # |f|^2 of the approximant
        ["--demo", "rn", "--mass", "1e300"],  # the mass squared in RNParams
        ["--demo", "rn", "--mu", "1e300"],  # mu squared in the radial weights
        ["--demo", "rn", "--mu", "1e151"],  # mu^2 over the horizon factor in the first-order weights
        ["--demo", "rn", "--mass", "1e-120"],  # 1/r^3 near a tiny horizon in the first-order weights
    ])
    def test_overflowing_value_is_bad_args(self, capsys, flags):
        # a finite flag that overflows a value is a bad argument, not an OverflowError
        # traceback (exit 1) or a quadrature failure on non-finite weights (exit 3)
        assert run_cli(["compare", *flags, "--steps", "3"]) == 4
        assert "overflow" in capsys.readouterr().err

    @pytest.mark.parametrize("demo, theta_min", [
        ("unit", "5e-324"), ("coulomb", "1e-160"), ("invr2", "1e-310"),
    ])
    def test_overflowing_exact_amplitude_is_bad_args(self, capsys, demo, theta_min):
        # an exact amplitude beyond the float range is a bad argument, not inf/nan cells
        assert run_cli(["compare", "--demo", demo, "--theta-min", theta_min, "--steps", "3"]) == 4
        assert f"is not finite at theta = {theta_min}" in capsys.readouterr().err

    def test_bad_theta_range(self):
        assert run_cli(["compare", "--demo", "unit", "--theta-min", "2.0",
                        "--theta-max", "1.0"]) == 4
        assert run_cli(["compare", "--demo", "unit", "--theta-max", "4.0"]) == 4

    def test_bad_steps(self):
        assert run_cli(["compare", "--demo", "unit", "--steps", "1"]) == 4

    @pytest.mark.parametrize("steps", [2**62, 2**63 - 1, 2**63, 2**64 - 1])
    def test_steps_beyond_any_array_is_bad_args(self, capsys, steps):
        # numpy rejects 2^62 and 2^64 - 1 by size; within about 1e3 of 2^63 it wraps the size to an
        # empty array, and linspace's IndexError was a traceback with exit 1
        assert run_cli(["compare", "--demo", "unit", "--steps", str(steps)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("legpade: bad arguments: ") and err.count("\n") == 1
        if steps in (2**63 - 1, 2**63):
            assert err == f"legpade: bad arguments: --steps {steps} is too large for an array\n"

    def test_unknown_demo_is_bad_args(self):
        assert run_cli(["compare", "--demo", "nonsense"]) == 4

    def test_overflowing_born_coefficients_name_the_coupling(self, capsys):
        assert run_cli(["compare", "--demo", "invr2", "--alpha", "1e308"]) == 4
        assert "wavenumber k = 1.0 is too small or the coupling alpha = 1e+308 too large" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, name", [
        (["--mass", "1e200"], "mass = 1e+200"),
        (["--mu", "1e200"], "particle mass mu = 1e+200"),
    ])
    def test_rn_value_whose_square_overflows_names_it(self, capsys, flags, name):
        assert run_cli(["compare", "--demo", "rn", *flags, "--steps", "3"]) == 4
        assert f"legpade: bad arguments: {name} is too large: its square overflows" in capsys.readouterr().err

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

    def test_quadrature_failure_exit_code(self):
        # an absurd upper cutoff forces the oscillatory quadrature past its
        # subdivision budget
        rc = run_cli(["compare", "--demo", "rn", "--N", "0", "--L", "0", "--M", "0",
                      "--steps", "2", "--rn-rmax", "1e12"])
        assert rc == 3


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

    def test_unreadable_config_is_bad_args(self, tmp_path, capsys):
        assert run_cli(["compare", "--demo", "unit", "--config", str(tmp_path / "missing.cfg")]) == 4
        assert "cannot read config file" in capsys.readouterr().err

    def test_badly_typed_value_rejected(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("demo = unit\nsteps = many\n")
        assert run_cli(["compare", "--config", str(config)]) == 4

    def test_unknown_key_rejected(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("demo = unit\nbogus = 1\n")
        assert run_cli(["compare", "--config", str(config)]) == 4

    def test_demo_outside_choices_rejected(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("demo = nonsense\n")
        assert run_cli(["compare", "--config", str(config)]) == 4

    @pytest.mark.parametrize(
        "command, text, code, message",
        [
            ("construct", "demo = unit\nsteps = 5\n", 0, ""),
            ("compare", "demo = unit\nconfig = other.cfg\n", 4, "unknown config key 'config'"),
            ("compare", "demo = unit\nhelp = 1\n", 4, "unknown config key 'help'"),
            ("compare", "demo = unit\nsteps 5\n", 4, "config line is not 'key = value'"),
            ("compare", "demo = coulomb\nk = -2\n", 4, "wavenumber must be positive"),
            ("construct", "demo = coulomb\nk = -2\n", 4, "wavenumber must be positive"),
        ],
        ids=["compare-only-key-ignored", "key-config", "key-help", "no-equals", "negative-k", "negative-k-construct"],
    )
    def test_edge_cases(self, tmp_path, capsys, command, text, code, message):
        config = tmp_path / "edge.cfg"
        outfile = tmp_path / "out"
        config.write_text(text)
        assert run_cli([command, "--config", str(config), "-o", str(outfile)]) == code
        assert message in capsys.readouterr().err
        assert outfile.exists() == (code == 0)

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


def test_unwritable_output_exit_code(tmp_path, capsys):
    target = tmp_path / "missing" / "out.csv"
    assert run_cli(["compare", "--demo", "unit", "--steps", "3", "-o", str(target)]) == 1
    assert "legpade: cannot write output:" in capsys.readouterr().err


class TestFormatting:
    def test_seventeen_significant_digits_round_trip(self, tmp_path):
        outfile = tmp_path / "unit.csv"
        run_cli(["compare", "--demo", "unit", "--steps", "10", "-o", str(outfile)])
        for row in read_rows(outfile):
            for cell in row[:8]:
                if cell == "":
                    continue
                value = float(cell)
                assert format(value, ".17g") == cell

    def test_theta_endpoints(self, tmp_path):
        outfile = tmp_path / "unit.csv"
        run_cli(["compare", "--demo", "unit", "--steps", "3", "-o", str(outfile)])
        rows = read_rows(outfile)
        assert float(rows[0][0]) == pytest.approx(0.05)
        assert float(rows[-1][0]) == pytest.approx(math.pi)


def test_help_exits_cleanly(capsys):
    assert run_cli(["--help"]) == 0
    assert "construct" in capsys.readouterr().out
