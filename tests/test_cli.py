import json
import math
import re

import pytest

from benfordsev.benford import benford_probs
from benfordsev.cli import main
from benfordsev.digits import FIRST_DIGIT


def write_benford_like_file(path, n=2000):
    """A file whose first-digit counts are round(n * b): near-exact law."""
    b = benford_probs(FIRST_DIGIT).b
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

    def test_missing_file_is_io_error(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "/nonexistent/input.csv")
        assert code != 0
        assert err.strip()

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
