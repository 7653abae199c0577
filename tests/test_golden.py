"""Byte-for-byte regression gate on every command and report format.

The files under tests/golden/ are the reference output of each case below,
and every case must reproduce its file exactly.  The one tolerated
difference is the calibrated delta* value in JSON and CSV, whose last bits
depend on the summation order: it is masked out of the byte comparison and
checked against a math.fsum reference instead.
"""

import math
import re
from pathlib import Path

import pytest

from benfordsev.cli import main

GOLDEN = Path(__file__).parent / "golden"

LEDGER = ["ledger.csv", "--column", "amount", "--digits", "2"]
VALUES = ["values.txt", "--digits", "1", "--psi-star", "10"]
CALIBRATE = ["--digits", "1", "--threshold", "0.006", "--nmin", "110", "--nmax", "25000"]
SIMULATE = ["--n", "500", "--reps", "40", "--seed", "3"]
CURVE = ["--n", "19451", "--tilde-delta", "6.621", "--grid", "0:0.008:5"]
EXTENSIONS = {"text": "txt", "json": "json", "csv": "csv"}

CASES = {
    f"{name}_{fmt}.{EXTENSIONS[fmt]}": [command, *args, "--format", fmt]
    for name, command, args in (
        ("analyze_ledger", "analyze", LEDGER),
        ("analyze_values", "analyze", VALUES),
        ("calibrate", "calibrate", CALIBRATE),
        ("simulate", "simulate", SIMULATE),
        ("severity_curve", "severity-curve", CURVE),
    )
    for fmt in EXTENSIONS
}

# The delta* value in each calibrate format: JSON, CSV and text.
DELTA_STAR = re.compile(r'(?:"delta_star": |delta_star,|delta\*       : )(\S+)')


def fsum_delta_star(threshold: float, n_min: int, n_max: int) -> float:
    """Mean of threshold - E(MAD_n) over integer n in [n_min, n_max], first-digit law."""
    b = [math.log10(1.0 + 1.0 / d) for d in range(1, 10)]
    scale = math.sqrt(2.0 / math.pi) * math.fsum(math.sqrt(x * (1.0 - x)) for x in b) / 9
    total = math.fsum(threshold - scale / math.sqrt(n) for n in range(n_min, n_max + 1))
    return total / (n_max - n_min + 1)


def run_in_golden_dir(monkeypatch, capsys, argv):
    monkeypatch.chdir(GOLDEN)  # input paths, and so report labels, stay relative
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, monkeypatch, capsys):
    out = run_in_golden_dir(monkeypatch, capsys, CASES[name])
    want = (GOLDEN / name).read_text(encoding="utf-8")
    # The text report prints delta* with %.8g, so it is compared byte for byte.
    if name in ("calibrate_json.json", "calibrate_csv.csv"):
        got_value = float(DELTA_STAR.search(out).group(1))
        reference = fsum_delta_star(0.006, 110, 25000)
        assert got_value == pytest.approx(reference, rel=1e-12, abs=0)
        out, want = DELTA_STAR.sub("<delta*>", out), DELTA_STAR.sub("<delta*>", want)
    assert out == want


def test_plotdata_matches_golden(monkeypatch, capsys, tmp_path):
    dest = tmp_path / "plot.csv"
    out = run_in_golden_dir(monkeypatch, capsys, ["plotdata", *LEDGER, "--out", str(dest)])
    assert out == ""
    assert dest.read_text(encoding="utf-8") == (GOLDEN / "plotdata.csv").read_text(encoding="utf-8")
