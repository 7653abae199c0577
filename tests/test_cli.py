import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benfordsev.benford import benford_probs
from benfordsev.cli import Report, build_report, main
from benfordsev.digits import FIRST_DIGIT, DigitCounts


def write_benford_like_file(path, n=2000):
    """A file whose first-digit counts are round(n * b): near-exact law."""
    b = benford_probs(FIRST_DIGIT)
    tokens = []
    for digit, prob in zip(range(1, 10), b):
        tokens += [str(digit)] * round(n * prob)
    path.write_text("\n".join(tokens) + "\n")
    return path


def write_skewed_file(path, n=3000):
    """Heavy excess of leading 1s and 2s: decisively non-Benford."""
    tokens = ["1"] * (n // 2) + ["2"] * (n // 4) + ["9"] * (n // 4)
    path.write_text("\n".join(tokens) + "\n")
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sig6(x: float) -> float:
    return float(f"{float(x):.6g}")


class TestAnalyze:
    def test_benford_like_data_accepts(self, tmp_path, capsys):
        f = write_benford_like_file(tmp_path / "data.txt")
        code, out, err = run_cli(capsys, "analyze", str(f), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 2000
        assert report["tilde_delta"] < 0
        assert report["severity_at_most"] > 0.99
        assert report["delta_star"] == 0.00321  # shipped default is echoed

    def test_rejection_still_exits_zero(self, tmp_path, capsys):
        f = write_skewed_file(tmp_path / "skew.txt")
        code, out, err = run_cli(capsys, "analyze", str(f), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["p_value"] < 1e-6
        assert report["severity_exceeds"] > 0.99

    def test_large_sample_tails_match_mpmath(self):
        # n = 10^6 with digit 1 up and digit 2 down by 0.004: tilde delta ~ 9.98,
        # so both p-values lie far out in the upper tail.
        mpmath = pytest.importorskip("mpmath")
        n = 10**6
        counts = [round(n * b) for b in benford_probs(FIRST_DIGIT)]
        counts[0] += 4000
        counts[1] -= 4000
        counts[8] += n - sum(counts)
        args = argparse.Namespace(delta_star=None, psi_star=None, label=None, file="sample")
        report = build_report(args, DigitCounts(FIRST_DIGIT, tuple(counts))).fields
        assert report["n"] == n and report["tilde_delta"] == pytest.approx(9.98, abs=0.01)
        normal_p = mpmath.ncdf(-mpmath.mpf(report["tilde_delta"]))
        chi_square_p = mpmath.gammainc(4, report["chi_square"] / 2, mpmath.inf, regularized=True)
        # 8.9e-24 and 3.4e-27
        assert report["p_value"] == pytest.approx(float(normal_p), rel=1e-12, abs=0.0)
        assert report["chi_square_p"] == pytest.approx(float(chi_square_p), rel=1e-12, abs=0.0)
        # At delta* = 0, "excess MAD is at most 0" is graded by the p-value itself.
        args.delta_star = 0.0
        at_zero = build_report(args, DigitCounts(FIRST_DIGIT, tuple(counts))).fields
        assert at_zero["severity_at_most"] == report["p_value"]

    def test_json_round_trips_bit_exactly(self, tmp_path, capsys):
        f = write_benford_like_file(tmp_path / "data.txt")
        code, out, _ = run_cli(capsys, "analyze", str(f), "--format", "json")
        assert json.dumps(json.loads(out), indent=2) + "\n" == out

    def test_formats_numerically_consistent(self, tmp_path, capsys):
        f = write_benford_like_file(tmp_path / "data.txt")
        _, json_out, _ = run_cli(capsys, "analyze", str(f), "--format", "json")
        _, text_out, _ = run_cli(capsys, "analyze", str(f), "--format", "text")
        _, csv_out, _ = run_cli(capsys, "analyze", str(f), "--format", "csv")
        report = json.loads(json_out)

        csv_fields = {}
        for line in csv_out.splitlines():
            parts = line.split(",")
            if len(parts) == 2:
                csv_fields[parts[0]] = parts[1]

        text_values = {
            "mad": re.search(r"MAD\s+:\s+(\S+)", text_out).group(1),
            "tilde_delta": re.search(r"tilde delta\s+:\s+(\S+)", text_out).group(1),
            "p_value": re.search(r"p-value\s+:\s+(\S+)", text_out).group(1),
            "severity_exceeds": re.search(
                r"severity\[δ > δ\*\]\s+:\s+(\S+)", text_out
            ).group(1),
            "chi_square": re.search(r"chi-square \(df=8\)\s+:\s+(\S+)", text_out).group(1),
        }
        for key, text_val in text_values.items():
            assert sig6(text_val) == sig6(report[key])
            assert sig6(csv_fields[key]) == sig6(report[key])

    def test_claim_directions_spelled_out(self, tmp_path, capsys):
        f = write_benford_like_file(tmp_path / "data.txt")
        _, out, _ = run_cli(capsys, "analyze", str(f))
        assert "δ > δ*" in out
        assert "δ ≤ δ*" in out

    def test_small_sample_warning_for_first_two_digits(self, tmp_path, capsys):
        f = write_benford_like_file(tmp_path / "small.txt", n=200)
        code, out, _ = run_cli(capsys, "analyze", str(f), "--digits", "2")
        assert code == 0
        assert "WARNING" in out and "1146" in out

    def test_named_column_selection(self, tmp_path, capsys):
        f = tmp_path / "table.csv"
        f.write_text("id,amt\n1,19.5\n2,0.034\n3,abc\n4,0\n")
        code, out, _ = run_cli(
            capsys, "analyze", str(f), "--column", "amt", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 2
        assert report["skip_reasons"] == {"non-numeric": 1, "zero-value": 1}

    def test_missing_column_is_config_error(self, tmp_path, capsys):
        f = tmp_path / "table.csv"
        f.write_text("id,amt\n1,19.5\n")
        code, out, err = run_cli(capsys, "analyze", str(f), "--column", "amount")
        assert code != 0
        assert "amount" in err

    def test_negative_column_index_is_config_error(self, tmp_path, capsys):
        f = write_benford_like_file(tmp_path / "data.txt")
        code, out, err = run_cli(capsys, "analyze", str(f), "--column", "-1")
        assert code == 2
        assert out == ""
        assert "column index must be nonnegative, got -1" in err

    def test_missing_file_is_io_error(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "/nonexistent/input.csv")
        assert code != 0
        assert err.strip()

    def test_malformed_csv_is_config_error(self, tmp_path, capsys):
        # csv.reader refuses a field longer than csv.field_size_limit(), 131072 by default.
        f = tmp_path / "long_cell.csv"
        f.write_text('id,amount\n1,"' + "9" * 200_000 + '"\n2,3.5\n')
        code, out, err = run_cli(capsys, "analyze", str(f), "--column", "amount")
        assert code == 2
        assert out == ""
        assert err.startswith("benfordsev: error:") and str(f) in err
        assert "Traceback" not in err

    def test_line_ends_and_byte_order_mark_leave_the_report_unchanged(self, tmp_path, monkeypatch,
                                                                      capsys):
        values = ["1.5", "27", " 3e2", "", " \t", "n/a", "0.00456", "-19451", "7 x"] * 40
        reports = set()
        for name, end, bom in [("lf", "\n", ""), ("crlf", "\r\n", ""), ("cr", "\r", ""),
                               ("bom", "\n", "\ufeff")]:
            # The same file name in each directory: the report names its input.
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            Path("values.txt").write_text(bom + "".join(v + end for v in values), encoding="utf-8",
                                          newline="")
            code, out, err = run_cli(capsys, "analyze", "values.txt", "--format", "json")
            assert code == 0, err
            reports.add(out)
        assert len(reports) == 1
        report = json.loads(reports.pop())
        assert report["n"] == 6 * 40 and report["skip_reasons"] == {"non-numeric": 40}
        # Line ends mixed in one file: "\r", "\r\n" and "\n".
        Path("mixed.txt").write_text("1\r2\r\n3\n", newline="")
        code, out, err = run_cli(capsys, "analyze", "mixed.txt", "--format", "json")
        assert code == 0 and json.loads(out)["n"] == 3

    def test_delta_star_override(self, tmp_path, capsys):
        f = write_benford_like_file(tmp_path / "data.txt")
        _, out, _ = run_cli(
            capsys, "analyze", str(f), "--delta-star", "0.01", "--format", "json"
        )
        assert json.loads(out)["delta_star"] == 0.01

    def test_psi_star_adds_chi_square_severity(self, tmp_path, capsys):
        f = write_skewed_file(tmp_path / "skew.txt")
        _, out, _ = run_cli(
            capsys, "analyze", str(f), "--psi-star", "10", "--format", "json"
        )
        report = json.loads(out)
        assert report["psi_star"] == 10.0
        assert 0.0 <= report["chi_square_severity"] <= 1.0

    @pytest.mark.parametrize("psi_star", ["1e13", "1e308"])
    def test_psi_star_above_the_bound_is_config_error(self, tmp_path, psi_star):
        f = write_skewed_file(tmp_path / "skew.txt")
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-m", "benfordsev.cli", "analyze", str(f), "--psi-star", psi_star],
            capture_output=True, text=True, timeout=30, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert "noncentrality" in result.stderr and "Traceback" not in result.stderr

    def test_decimal_comma_input(self, tmp_path, capsys):
        f = tmp_path / "comma.txt"
        f.write_text("0,05\n1,5\n2,5\n")
        code, out, _ = run_cli(
            capsys, "analyze", str(f), "--digits", "2", "--decimal-mark", ",", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 3 and report["skipped"] == 0
        assert [row[0] for row in report["digit_table"] if row[1]] == [15, 25, 50]

    def test_delimiter_equal_to_decimal_mark_is_config_error(self, tmp_path, capsys):
        f = tmp_path / "comma.txt"
        f.write_text("0,05\n1,5\n2,5\n")
        code, out, err = run_cli(capsys, "analyze", str(f), "--digits", "2",
                                 "--delimiter", ",", "--decimal-mark", ",")
        assert code == 2
        assert out == ""
        assert "decimal mark" in err

    def test_huge_column_index_on_text_input_is_config_error(self, tmp_path, capsys):
        f = write_benford_like_file(tmp_path / "data.txt")
        code, out, err = run_cli(capsys, "analyze", str(f), "--column", "9" * 20)
        assert code == 2
        assert out == ""
        assert "no usable numeric records" in err

    @pytest.mark.parametrize("option, value", [
        ("--delimiter", ""), ("--delimiter", ";;"),
        ("--decimal-mark", ""), ("--decimal-mark", ",,"),
    ])
    def test_mark_that_is_not_one_character_is_config_error(self, tmp_path, capsys, option, value):
        f = write_benford_like_file(tmp_path / "data.txt")
        code, out, err = run_cli(capsys, "analyze", str(f), option, value)
        assert code == 2
        assert out == ""
        assert "must be one character" in err

    @pytest.mark.parametrize("option", ["--delimiter", "--decimal-mark"])
    def test_mark_that_a_number_can_hold_is_config_error(self, tmp_path, capsys, option):
        f = tmp_path / "three.txt"
        f.write_text("105\n205\n305\n")
        plot = tmp_path / "plot.csv"
        code, out, err = run_cli(capsys, "plotdata", str(f), "--digits", "2", option, "0",
                                 "--out", str(plot))
        assert code == 2
        assert out == "" and not plot.exists()
        assert err.startswith("benfordsev: error:") and "'0'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("mark", [" ", "\t"])
    def test_whitespace_decimal_mark_is_config_error(self, tmp_path, capsys, mark):
        # Read with a space as the decimal mark, "1 5" would be 1.5 or the field "1".
        f = tmp_path / "ws.txt"
        f.write_text(f"1{mark}5\n2{mark}5\n3{mark}5\n")
        code, out, err = run_cli(capsys, "analyze", str(f), "--decimal-mark", mark, "--digits", "2")
        assert code == 2
        assert out == ""
        assert "whitespace" in err

    @pytest.mark.parametrize("name, label", [("a,b.txt", None), ("data.txt", 'x "y", z')])
    def test_csv_report_quotes_cells(self, tmp_path, capsys, name, label):
        f = write_benford_like_file(tmp_path / name)
        options = ["--label", label] if label else []
        code, out, _ = run_cli(capsys, "analyze", str(f), "--format", "csv", *options)
        assert code == 0
        rows = {row[0]: row[1:] for row in csv.reader(io.StringIO(out))}
        assert rows["label"] == [label or str(f)]

    def test_byte_order_mark_is_not_a_header(self, tmp_path, capsys):
        f = tmp_path / "bom.txt"
        f.write_text("123\n456\n789\n", encoding="utf-8-sig")
        code, out, _ = run_cli(capsys, "analyze", str(f), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 3 and report["skipped"] == 0

    def test_byte_order_mark_before_header_name(self, tmp_path, capsys):
        f = tmp_path / "bom.csv"
        f.write_text("amount,id\n19.5,1\n0.034,2\n", encoding="utf-8-sig")
        code, out, _ = run_cli(capsys, "analyze", str(f), "--column", "amount", "--format", "json")
        assert code == 0
        assert json.loads(out)["n"] == 2

    def test_output_file_option(self, tmp_path, capsys):
        f = write_benford_like_file(tmp_path / "data.txt")
        dest = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "analyze", str(f), "--format", "json", "--output", str(dest)
        )
        assert code == 0 and out == ""
        assert json.loads(dest.read_text())["n"] == 2000


class TestCalibrate:
    def test_first_digit_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "calibrate", "--digits", "1", "--threshold", "0.006",
            "--nmin", "110", "--nmax", "25000",
        )
        assert code == 0
        value = float(re.search(r"delta\*\s+:\s+(\S+)", out).group(1))
        assert value == pytest.approx(0.00321, abs=5e-5)

    def test_first_two_defaults_nmin(self, capsys):
        code, out, _ = run_cli(
            capsys, "calibrate", "--digits", "2", "--threshold", "0.0012",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["n_min"] == 1146
        assert data["delta_star"] == pytest.approx(0.00037, abs=2e-5)

    def test_sample_size_below_one_is_config_error(self, capsys):
        code, out, err = run_cli(
            capsys, "calibrate", "--threshold", "0.006", "--nmin", "0", "--nmax", "100"
        )
        assert code == 2 and out == ""
        assert err.strip()

    def test_inputs_echoed(self, capsys):
        _, out, _ = run_cli(
            capsys, "calibrate", "--digits", "1", "--threshold", "0.006",
            "--nmin", "110", "--nmax", "25000",
        )
        assert "0.006" in out and "110" in out and "25000" in out

    def test_huge_nmax_returns_at_once(self):
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-m", "benfordsev.cli", "calibrate", "--threshold", "0.006",
             "--nmax", str(10**20), "--format", "json"],
            capture_output=True, text=True, timeout=30, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 0, result.stderr
        data = json.loads(result.stdout)
        assert data["n_max"] == 10**20
        assert math.isfinite(data["delta_star"]) and 0.0 < data["delta_star"] < 0.006

    def test_nmax_beyond_the_float_range_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "calibrate", "--threshold", "0.006", "--nmax", str(10**400))
        assert code == 2 and out == ""
        assert "largest float" in err


class TestSimulate:
    def test_json_fields_and_determinism(self, capsys):
        args = (
            "simulate", "--digits", "1", "--n", "2000", "--reps", "60",
            "--seed", "9", "--format", "json",
        )
        code, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert code == 0
        assert out1 == out2
        data = json.loads(out1)
        assert data["reps"] == 60 and data["seed"] == 9
        assert len(data["digit_folded_means"]) == 9
        assert data["theoretical_mad_mean"] > 0

    def test_text_format_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--digits", "1", "--n", "1000", "--reps", "30",
            "--seed", "2",
        )
        assert code == 0
        assert "MAD mean" in out

    def test_single_replication_is_config_error(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--digits", "1", "--n", "1000", "--reps", "1", "--format", "json",
        )
        assert code == 2
        assert out == ""
        assert "reps must be at least 2" in err

    def test_n_beyond_the_multinomial_range_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--n", str(10**20), "--reps", "2")
        assert code == 2
        assert out == ""
        assert "below 2**63" in err and "Traceback" not in err

    def test_negative_seed_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--n", "100", "--reps", "2", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "seed" in err and "Traceback" not in err

    def test_reps_beyond_any_memory_is_config_error(self, capsys):
        # 10^13 replications of 90 cells need 818 TiB even at 1 byte a count,
        # more than a 47-bit address space holds, and the counts are allocated
        # before the first draw, so the run fails at once.
        code, out, err = run_cli(
            capsys, "simulate", "--digits", "2", "--n", "10", "--reps", str(10**13)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("benfordsev: error:") and "allocate" in err


class TestSeverityCurve:
    def test_curve_monotone_and_anchored(self, capsys):
        code, out, _ = run_cli(
            capsys, "severity-curve", "--digits", "1", "--n", "19451",
            "--tilde-delta", "6.621", "--grid", "0,0.00321,0.006,0.01",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        sev = [point["severity"] for point in data["points"]]
        assert all(a >= b for a, b in zip(sev, sev[1:]))
        # At delta* = 0 the severity equals 1 - p-value = Phi(tilde delta).
        from benfordsev.specialfn import std_normal_cdf

        assert sev[0] == std_normal_cdf(6.621)
        assert sev[1] == pytest.approx(0.41628, abs=2e-3)

    def test_linspace_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "severity-curve", "--digits", "1", "--n", "1000",
            "--tilde-delta", "2.0", "--grid", "0:0.01:11", "--format", "csv",
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "delta_star,severity"
        assert len(rows) == 12
        assert float(rows[1].split(",")[0]) == 0.0
        assert float(rows[-1].split(",")[0]) == pytest.approx(0.01)

    def test_bad_grid_is_config_error(self, capsys):
        code, _, err = run_cli(
            capsys, "severity-curve", "--digits", "1", "--n", "1000",
            "--tilde-delta", "2.0", "--grid", "0:0.01",
        )
        assert code != 0 and err.strip()

    @pytest.mark.parametrize("grid", [",", " , ", "0:1:1000000000000", "0:1:100001"])
    def test_empty_or_oversized_grid_is_config_error(self, capsys, grid):
        code, out, err = run_cli(
            capsys, "severity-curve", "--n", "1000", "--tilde-delta", "2.0", "--grid", grid,
        )
        assert code == 2
        assert out == ""
        assert "grid" in err

    def test_n_beyond_the_float_range_is_config_error(self, capsys):
        code, out, err = run_cli(
            capsys, "severity-curve", "--n", str(10**400), "--tilde-delta", "2", "--grid", "0.001",
        )
        assert code == 2 and out == ""
        assert "largest float" in err


class TestPlotdata:
    def test_writes_digit_table(self, tmp_path, capsys):
        f = write_benford_like_file(tmp_path / "data.txt")
        dest = tmp_path / "plot.csv"
        code, _, _ = run_cli(capsys, "plotdata", str(f), "--out", str(dest))
        assert code == 0
        rows = dest.read_text().strip().splitlines()
        assert rows[0] == "digit,observed,benford"
        assert len(rows) == 10
        observed = [float(r.split(",")[1]) for r in rows[1:]]
        assert math.fsum(observed) == pytest.approx(1.0, abs=1e-12)

    def test_no_usable_data_writes_nothing(self, tmp_path, capsys):
        f = tmp_path / "zeros.txt"
        f.write_text("0\n0\nabc\n")
        dest = tmp_path / "plot.csv"
        code, _, err = run_cli(capsys, "plotdata", str(f), "--out", str(dest))
        assert code != 0
        assert not dest.exists()
        assert err.strip()


@pytest.mark.parametrize("argv", [
    ["analyze", "FILE", "--delta-star", "nan"],
    ["analyze", "FILE", "--delta-star", "inf"],
    ["analyze", "FILE", "--psi-star", "nan"],
    ["calibrate", "--threshold", "nan"],
    ["calibrate", "--threshold", "inf"],
    ["severity-curve", "--n", "1000", "--tilde-delta", "nan", "--grid", "0,0.01"],
    ["severity-curve", "--n", "1000", "--tilde-delta", "2", "--grid", "nan,inf"],
    ["severity-curve", "--n", "1000", "--tilde-delta", "2", "--grid", "0:inf:3"],
    ["severity-curve", "--n", "1000", "--tilde-delta", "2", "--grid=-1e308:1e308:3"],
    ["analyze", "FILE", "--delta-star", "abc"],
    ["calibrate", "--threshold", "0.006x"],
])
def test_non_finite_number_is_config_error(tmp_path, capsys, argv):
    f = write_benford_like_file(tmp_path / "data.txt")
    argv = [str(f) if arg == "FILE" else arg for arg in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses the value itself
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "finite" in captured.err


IMPORT_GUARD_SCRIPT = """
import json, sys
from benfordsev.cli import main

commands, before_simulate, never = map(json.loads, sys.argv[1:])
for argv in commands:
    try:
        code = main(argv)
    except SystemExit as exc:  # --version
        code = exc.code
    assert code == 0, argv
for name in before_simulate + never:
    assert name not in sys.modules, f"{name} was imported"
assert main(["simulate", "--n", "100", "--reps", "3", "--format", "json"]) == 0
for name in never:
    assert name not in sys.modules, f"{name} was imported"
"""


def check_imports(tmp_path, before_simulate, never):
    """Run every command in one fresh interpreter, simulate last, and check what it imported.

    No module in `before_simulate` may be imported before simulate runs, and
    no module in `never` at all.
    """
    golden = Path(__file__).parent / "golden"
    values, ledger = str(golden / "values.txt"), str(golden / "ledger.csv")
    commands = [
        ["analyze", values],
        ["analyze", values, "--digits", "2", "--format", "json"],
        ["analyze", values, "--psi-star", "10", "--format", "csv"],
        ["analyze", ledger, "--column", "amount", "--digits", "2"],
        ["analyze", ledger, "--column", "amount", "--psi-star", "10", "--format", "json"],
        ["plotdata", values, "--digits", "2", "--out", str(tmp_path / "plot.csv")],
        ["calibrate", "--threshold", "0.006"],
        ["calibrate", "--digits", "2", "--threshold", "0.0012", "--format", "json"],
        ["severity-curve", "--n", "19451", "--tilde-delta", "6.621", "--grid", "0:0.008:5"],
        ["--version"],
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    arguments = map(json.dumps, (commands, before_simulate, never))
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD_SCRIPT, *arguments],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert '"empirical_mad_mean"' in result.stdout


@pytest.mark.parametrize("argv", [
    ["--n", "0", "--reps", "10"],
    ["--n", "10", "--reps", "1"],
    ["--n", "10", "--reps", "10", "--seed", "-1"],
])
def test_invalid_simulate_arguments_fail_before_numpy_loads(argv):
    script = (
        "import json, sys\n"
        "from benfordsev.cli import main\n"
        "assert main(['simulate', *json.loads(sys.argv[1])]) == 2\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argv)],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr.startswith("benfordsev: error:")


def test_only_simulate_imports_numpy(tmp_path):
    check_imports(tmp_path, before_simulate=["numpy"], never=[])


def test_no_command_imports_dataclasses(tmp_path):
    # dataclasses pulls in inspect, ast, dis and tokenize: ~20 ms of start-up.
    # numpy imports inspect itself, so inspect is checked before simulate only.
    check_imports(tmp_path, before_simulate=["inspect"], never=["dataclasses"])


@pytest.mark.parametrize("argv, method", [
    (["analyze", "FILE", "--format", "json"], "to_json"),
    (["analyze", "FILE"], "to_text"),
    (["calibrate", "--threshold", "0.006", "--format", "json"], "to_json"),
    (["calibrate", "--threshold", "0.006"], "to_text"),
    (["simulate", "--n", "100", "--reps", "3", "--format", "json"], "to_json"),
    (["simulate", "--n", "100", "--reps", "3"], "to_text"),
    (["severity-curve", "--n", "1000", "--tilde-delta", "2", "--grid", "0,0.01"], "to_text"),
])
def test_every_report_renders_through_report_methods(tmp_path, capsys, monkeypatch, argv, method):
    # The benchmark times these two methods as its render span; output that
    # bypassed them would leave that span reading 0.
    calls = []

    def recording(name):
        original = getattr(Report, name)

        def render(self):
            calls.append(name)
            return original(self)

        return render

    for name in ("to_json", "to_text"):
        monkeypatch.setattr(Report, name, recording(name))
    f = write_benford_like_file(tmp_path / "data.txt")
    code, out, _ = run_cli(capsys, *[str(f) if arg == "FILE" else arg for arg in argv])
    assert code == 0 and out
    assert calls == [method]
