"""Tests of the benchmark's own generator, checks, tracer and metric names.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
ROWS = 3000


def cli_output(argv: list[str]) -> str:
    from benfordsev import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(argv) == 0
    return buffer.getvalue()


@pytest.mark.parametrize("writer", [inputs.write_csv, inputs.write_text])
def test_generator_is_deterministic(tmp_path, writer):
    first = writer(tmp_path / "a", 11, rows=ROWS)
    again = writer(tmp_path / "b", 11, rows=ROWS)
    other = writer(tmp_path / "c", 12, rows=ROWS)
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
    assert first == again
    assert (tmp_path / "a").read_bytes() != (tmp_path / "c").read_bytes()
    assert first["rows"] == ROWS


def test_expected_label_grammar():
    assert inputs.expected_label("7.603e+04", 2) == 76
    assert inputs.expected_label("0.00", 2) == "zero-value"
    assert inputs.expected_label("n/a", 1) == "non-numeric"
    assert inputs.expected_label(" ", 1) == "empty"
    assert inputs.expected_label("0.05", 2) == 50
    assert inputs.expected_label("1e+06", 1) == 1


def test_csv_has_every_skip_reason(tmp_path):
    expected = inputs.write_csv(tmp_path / "a.csv", 3, rows=20_000)
    assert set(expected["skip_reasons"]) == {"empty", "non-numeric", "zero-value"}


def _off_by_one_json(text: str) -> str:
    report = json.loads(text)
    digit, observed, benford = report["digit_table"][3]
    report["digit_table"][3] = [digit, observed + 1.0 / report["n"], benford]
    return json.dumps(report)


def _off_by_one_text(text: str, n: int, count: int) -> str:
    lines = text.splitlines()
    start = lines.index("  digit  observed      benford") + 1
    digit, observed, benford = lines[start + 3].split()
    lines[start + 3] = f"  {digit:<6s} {(count + 1) / n:<13.8g} {benford}"
    return "\n".join(lines) + "\n"


def test_json_check_passes_real_report_and_fails_off_by_one(tmp_path):
    path = tmp_path / "a.csv"
    expected = inputs.write_csv(path, 5, rows=ROWS)
    text = cli_output(["analyze", str(path), "--column", "amount", "--digits", "2", "--format", "json"])
    assert checks.check_analyze_json(text, expected) == []
    assert checks.check_analyze_json(_off_by_one_json(text), expected)


def test_text_check_passes_real_report_and_fails_off_by_one(tmp_path):
    path = tmp_path / "a.txt"
    expected = inputs.write_text(path, 5, rows=ROWS)
    text = cli_output(["analyze", str(path), "--digits", "1"])
    assert checks.check_analyze_text(text, expected) == []
    broken = _off_by_one_text(text, expected["n"], expected["counts"][3])
    assert broken != text
    assert checks.check_analyze_text(broken, expected)


def test_statistic_checks_catch_a_wrong_tilde_delta(tmp_path):
    path = tmp_path / "a.csv"
    expected = inputs.write_csv(path, 6, rows=ROWS)
    report = json.loads(cli_output(["analyze", str(path), "--column", "amount", "--digits", "2",
                                    "--format", "json"]))
    report["tilde_delta"] *= 1.0 + 1e-8
    assert checks.check_analyze_json(json.dumps(report), expected)


def test_calibrate_and_simulate_checks():
    text = cli_output(["calibrate", "--threshold", "0.006", "--nmin", "110", "--nmax", "5000",
                       "--format", "json"])
    want = checks.reference_delta_star(1, 0.006, 110, 5000)
    assert checks.check_calibrate(text, want) == []
    assert checks.check_calibrate(text, want * (1 + 1e-8))
    sim = cli_output(["simulate", "--n", "500", "--reps", "300", "--seed", "4", "--format", "json"])
    assert checks.check_simulate(sim, sim) == []
    assert checks.check_simulate(sim, sim.replace("4", "5", 1))


@pytest.fixture
def restore_package():
    """Undo the tracer's wrappers so later tests in this process see the plain package."""
    import benfordsev.cli
    import benfordsev.mc

    modules = {k: dict(vars(m)) for k, m in sys.modules.items() if k.startswith("benfordsev")}
    classes = [benfordsev.cli.AnalysisReport, benfordsev.mc.SimulationReport]
    methods = [(cls, dict(vars(cls))) for cls in classes]
    yield
    for key, namespace in modules.items():
        vars(sys.modules[key]).update(namespace)
    for cls, namespace in methods:
        for name in ("to_json", "to_text"):
            if name in namespace:
                setattr(cls, name, namespace[name])


def test_tracer_wraps_every_binding_and_reconciles(tmp_path, restore_package):
    import benfordsev.cli
    import benfordsev.digits

    path = tmp_path / "a.csv"
    expected = inputs.write_csv(path, 7, rows=ROWS)
    argv = ["analyze", str(path), "--column", "amount", "--digits", "2", "--format", "json"]
    original = benfordsev.digits.ingest
    result = spans.run([argv], traced=True)
    assert benfordsev.cli.ingest is benfordsev.digits.ingest is not original
    assert checks.check_analyze_json(result["outputs"][0], expected) == []
    metrics = run.layer_metrics(result)
    skips = expected["skip_reasons"]
    assert metrics["digits.rows"][0] == ROWS
    assert metrics["digits.tokens"][0] == ROWS - skips["empty"] - skips["non-numeric"]
    assert metrics["digits.skipped.zero-value"][0] == skips["zero-value"]
    rec = run.reconcile(result)
    assert abs(rec["error_s"]) < 1e-9
    assert rec["unspanned_s"] > 0


def test_names_match_the_benchmark_file():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    fake = {"functions": {}, "counts": {}, "observed": {},
            "layer_self_s": dict.fromkeys(spans.LAYERS, 0.0)}
    layer = run.layer_metrics({"summary": fake, "spans": []})
    layer_units = {k: unit for k, (_, unit) in layer.items()}
    layer_units.update({"trace.untraced_main_s": "s", "trace.overhead_s": "s"})
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layer_units
