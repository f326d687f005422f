import math

import numpy as np
import pytest

from legpade.cli import CSV_HEADER, main


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

    def test_singular_input_is_construction_failure(self, tmp_path):
        infile = tmp_path / "zeros.csv"
        write_coeffs(infile, np.zeros(4, dtype=complex))
        assert run_cli(["construct", "--coeffs", str(infile), "--L", "1", "--M", "2"]) == 2

    def test_header_required(self, tmp_path):
        infile = tmp_path / "bad.csv"
        infile.write_text("0,1.0,0.0\n")
        assert run_cli(["construct", "--coeffs", str(infile), "--L", "0", "--M", "0"]) == 4

    def test_non_contiguous_orders_rejected(self, tmp_path):
        infile = tmp_path / "gap.csv"
        infile.write_text("l,re,im\n0,1.0,0.0\n2,1.0,0.0\n")
        assert run_cli(["construct", "--coeffs", str(infile), "--L", "1", "--M", "0"]) == 4


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

    def test_bad_theta_range(self):
        assert run_cli(["compare", "--demo", "unit", "--theta-min", "2.0",
                        "--theta-max", "1.0"]) == 4
        assert run_cli(["compare", "--demo", "unit", "--theta-max", "4.0"]) == 4

    def test_bad_steps(self):
        assert run_cli(["compare", "--demo", "unit", "--steps", "1"]) == 4

    def test_unknown_demo_is_bad_args(self):
        assert run_cli(["compare", "--demo", "nonsense"]) == 4

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

    def test_badly_typed_value_rejected(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("demo = unit\nsteps = many\n")
        assert run_cli(["compare", "--config", str(config)]) == 4

    def test_unknown_key_rejected(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("demo = unit\nbogus = 1\n")
        assert run_cli(["compare", "--config", str(config)]) == 4


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
