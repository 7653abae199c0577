"""Command-line front end: analyze files, calibrate benchmarks, simulate.

Exit status is 0 whenever the requested computation completes; statistical
rejection is a result, not a failure.  I/O and configuration problems exit
nonzero with a diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
import warnings
from typing import Callable, NamedTuple

from . import __version__
from .asymptotics import mad_moments
from .benford import benford_probs, chi_square_stat, proportions
from .digits import DigitCounts, DigitSystem, ingest
from .mc import simulate
from .severity import (
    DEFAULT_N_MAX,
    chi_square_severity,
    default_delta_star,
    delta_star,
    n_min_for,
    run_test_from_proportions,
    severity_of_acceptance,
    severity_of_rejection,
)
from .specialfn import central_chi2_sf

# The most delta* values a severity-curve grid may hold.
MAX_GRID_POINTS = 100_000


DIGIT_TABLE_HEADER = ("digit", "observed", "benford")


class Report(NamedTuple):
    """What one command prints, in any `--format`.

    `fields` is the JSON object, in key order; `csv_rows` are the CSV rows,
    header rows included; and `text` renders `fields` in the text layout.
    """

    fields: dict
    csv_rows: list[tuple]
    text: Callable[[dict], str]

    def to_json(self) -> str:
        return json.dumps(self.fields, indent=2)

    def to_text(self) -> str:
        return self.text(self.fields)


# perfbench/spans.py TARGETS name the render methods through this alias, and
# tests/test_perfbench_targets.py resolves them; it goes when TARGETS name Report.
AnalysisReport = Report


def _emit(report: Report, args) -> None:
    """Render `report` in `args.format` to `args.output`, or to stdout."""
    if args.format == "json":
        payload = report.to_json() + "\n"
    elif args.format == "csv":
        payload = _render_csv(report.csv_rows)
    else:
        payload = report.to_text()
    _write(payload, args.output)


def _write(payload: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _render_csv(rows: list[tuple]) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _field_rows(fields: dict) -> list[tuple]:
    """The CSV `field,value` block: a row for each field that is not a list or a mapping."""
    scalars = [(k, v) for k, v in fields.items() if not isinstance(v, (list, tuple, dict))]
    return [("field", "value"), *scalars]


def _parse_column(value: str | None) -> int | str | None:
    if value is None:
        return None
    try:
        return int(value)
    except ValueError:
        return value


def _finite_float(text: str) -> float:
    """A float argument; NaN and infinities are refused, as JSON cannot hold them."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _parse_grid(spec: str) -> list[float]:
    """Grid spec: either comma-separated values or start:stop:count.

    An empty grid, or one of more than MAX_GRID_POINTS values, is refused.
    """
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be start:stop:count, got {spec!r}")
        start, stop = _finite_float(parts[0]), _finite_float(parts[1])
        try:
            count = int(parts[2])
        except ValueError:
            raise ValueError(f"grid count must be an integer, got {parts[2]!r}") from None
        if not 2 <= count <= MAX_GRID_POINTS:
            raise ValueError(f"grid count must be from 2 to {MAX_GRID_POINTS}, got {count}")
        step = (stop - start) / (count - 1)
        if not math.isfinite(step):
            raise ValueError(f"grid step is not a finite number: {spec!r}")
        return [start + i * step for i in range(count)]
    values = [v for v in spec.split(",") if v.strip()]
    if not 1 <= len(values) <= MAX_GRID_POINTS:
        raise ValueError(f"grid must hold from 1 to {MAX_GRID_POINTS} values, got {len(values)}")
    return [_finite_float(v) for v in values]


def _ingest_file(args) -> DigitCounts:
    """Digit counts of `args.file`; a file with no usable record is an error."""
    # utf-8-sig drops the byte-order mark that spreadsheet exports often start with.
    # Text that is not UTF-8, or a CSV that csv.reader refuses, is a ValueError naming the file.
    try:
        with open(args.file, "r", encoding="utf-8-sig", newline="") as fh:
            counts = ingest(
                fh,
                DigitSystem(args.digits),
                column=_parse_column(args.column),
                delimiter=args.delimiter,
                decimal_mark=args.decimal_mark,
            )
    except UnicodeDecodeError as exc:
        raise ValueError(f"{args.file!r} is not UTF-8 text: {exc}") from exc
    if counts.n == 0:
        raise ValueError(f"no usable numeric records in {args.file!r}")
    return counts


def _digit_table(counts: DigitCounts) -> list[tuple[int, float, float]]:
    """(digit, observed proportion, Benford probability) for every digit cell."""
    return list(zip(counts.system.digit_labels, proportions(counts), benford_probs(counts.system)))


def build_report(args, counts) -> Report:
    """The `analyze` report of `counts`: the test, its severities and the chi-square route."""
    system = counts.system
    outcome = run_test_from_proportions(proportions(counts), counts.n, system)
    ds = args.delta_star if args.delta_star is not None else default_delta_star(system)
    chi2 = chi_square_stat(counts, benford_probs(system))
    chi2_sev = None
    if args.psi_star is not None:
        chi2_sev = chi_square_severity(chi2, args.psi_star, system)
    moments = mad_moments(system, counts.n)
    floor = n_min_for(system)
    fields = {
        "label": args.label or args.file,
        "digits": system.digits,
        "k": system.k,
        "n": counts.n,
        "skipped": counts.skipped,
        "skip_reasons": dict(counts.skip_reasons),
        "small_sample": counts.n < floor,
        "n_min": floor,
        "mad": outcome.mad,
        "expected_mad": moments.mean,
        "sd_mad": moments.sd,
        "excess_delta": outcome.excess_delta,
        "tilde_delta": outcome.tilde_delta,
        "p_value": outcome.p_value,
        "delta_star": ds,
        "severity_exceeds": severity_of_rejection(outcome.tilde_delta, ds, counts.n, system),
        "severity_at_most": severity_of_acceptance(outcome.tilde_delta, ds, counts.n, system),
        "chi_square": chi2,
        "chi_square_p": central_chi2_sf(chi2, system.k - 1),
        "psi_star": args.psi_star,
        "chi_square_severity": chi2_sev,
        "digit_table": _digit_table(counts),
    }
    skips = [(f"skip:{reason}", count) for reason, count in counts.skip_reasons.items()]
    csv_rows = [*_field_rows(fields), *skips, DIGIT_TABLE_HEADER, *fields["digit_table"]]
    return Report(fields, csv_rows, _analysis_text)


def _row(label: str, value, width: int = 19, indent: str = "  ") -> str:
    """One `label: value` line of a text report; a float prints at 8 significant digits."""
    text = f"{value:.8g}" if isinstance(value, float) else str(value)
    return f"{indent}{label:<{width}s}: {text}"


def _analysis_text(fields: dict) -> str:
    scheme = "first digit" if fields["digits"] == 1 else "first-two digits"
    skips = ", ".join(f"{r}: {c}" for r, c in sorted(fields["skip_reasons"].items()))
    lines = [
        f"Benford conformity analysis: {fields['label']}",
        _row("digit scheme", f"{scheme} (k={fields['k']})"),
        _row("records counted", fields["n"]),
        _row("records skipped", f"{fields['skipped']}  ({skips})" if fields["skipped"] else 0),
    ]
    if fields["small_sample"]:
        lines.append(
            f"  WARNING: n below recommended minimum {fields['n_min']}; "
            f"the normal approximation is rough"
        )
    lines += [
        "",
        _row("MAD", fields["mad"]),
        _row("E(MAD) under law", fields["expected_mad"]),
        _row("SD(MAD) under law", fields["sd_mad"]),
        _row("excess delta", fields["excess_delta"]),
        _row("tilde delta", fields["tilde_delta"]),
        _row("p-value", fields["p_value"]),
        "",
        _row("delta* benchmark", fields["delta_star"]),
        _row("severity[δ > δ*]", fields["severity_exceeds"]),
        _row("severity[δ ≤ δ*]", fields["severity_at_most"]),
        "",
        _row(f"chi-square (df={fields['k'] - 1})", fields["chi_square"]),
        _row("chi-square p-value", fields["chi_square_p"]),
    ]
    if fields["psi_star"] is not None:
        lines += [
            _row("psi* benchmark", fields["psi_star"]),
            _row("severity[ψ > ψ*]", fields["chi_square_severity"]),
        ]
    lines += ["", "  digit  observed      benford"]
    for digit, observed, expected in fields["digit_table"]:
        lines.append(f"  {digit:<6d} {observed:<13.8g} {expected:.8g}")
    return "\n".join(lines) + "\n"


def cmd_analyze(args) -> None:
    _emit(build_report(args, _ingest_file(args)), args)


def cmd_calibrate(args) -> None:
    system = DigitSystem(args.digits)
    n_min = args.nmin if args.nmin is not None else n_min_for(system)
    fields = {
        "digits": system.digits,
        "k": system.k,
        "threshold": args.threshold,
        "n_min": n_min,
        "n_max": args.nmax,
        "delta_star": delta_star(system, args.threshold, n_min, args.nmax),
    }
    _emit(Report(fields, _field_rows(fields), _calibration_text), args)


def _calibration_text(fields: dict) -> str:
    lines = [
        _row("digit scheme", f"{fields['digits']} (k={fields['k']})", 13, ""),
        _row("threshold t", fields["threshold"], 13, ""),
        _row("n range", f"[{fields['n_min']}, {fields['n_max']}]", 13, ""),
        _row("delta*", fields["delta_star"], 13, ""),
    ]
    return "\n".join(lines) + "\n"


def cmd_simulate(args) -> None:
    system = DigitSystem(args.digits)
    report = simulate(system, args.n, args.reps, args.seed)
    fields = report._asdict()
    folded = zip(system.digit_labels, report.digit_folded_means, report.folded_mean_se)
    csv_rows = [*_field_rows(fields), ("digit", "folded_mean", "folded_mean_se"), *folded]
    _emit(Report(fields, csv_rows, _simulation_text), args)


def _simulation_text(fields: dict) -> str:
    lines = [
        f"simulation: digits={fields['digits']} (k={fields['k']}), "
        f"n={fields['n']}, reps={fields['reps']}, seed={fields['seed']}",
        f"  MAD mean   empirical {fields['empirical_mad_mean']:.8g}"
        f"  theoretical {fields['theoretical_mad_mean']:.8g}"
        f"  (mc se {fields['mad_mean_se']:.3g})",
        f"  MAD sd     empirical {fields['empirical_mad_sd']:.8g}"
        f"  theoretical {fields['theoretical_mad_sd']:.8g}",
        f"  tilde delta  mean {fields['tilde_delta_mean']:.6g}"
        f"  sd {fields['tilde_delta_sd']:.6g}"
        f"  (mc se of mean {fields['tilde_delta_mean_se']:.3g})",
        f"  folded deviation means (expected {fields['expected_folded_mean']:.8g}):",
    ]
    labels = DigitSystem(fields["digits"]).digit_labels
    for label, mean in zip(labels, fields["digit_folded_means"]):
        lines.append(f"    digit {label:<3d} {mean:.6g}")
    return "\n".join(lines) + "\n"


def cmd_severity_curve(args) -> None:
    system = DigitSystem(args.digits)
    points = [
        (ds, severity_of_rejection(args.tilde_delta, ds, args.n, system))
        for ds in _parse_grid(args.grid)
    ]
    fields = {
        "digits": system.digits,
        "k": system.k,
        "n": args.n,
        "tilde_delta": args.tilde_delta,
        "claim": "δ > δ*",
        "points": [{"delta_star": ds, "severity": sev} for ds, sev in points],
    }
    csv_rows = [("delta_star", "severity"), *points]
    _emit(Report(fields, csv_rows, _curve_text), args)


def _curve_text(fields: dict) -> str:
    lines = [
        f"severity of claim {fields['claim']} at tilde delta {fields['tilde_delta']:.8g}"
        f" (digits={fields['digits']}, n={fields['n']})",
        f"  {'delta*':<14s} severity",
    ]
    lines += [f"  {p['delta_star']:<14.8g} {p['severity']:.8g}" for p in fields["points"]]
    return "\n".join(lines) + "\n"


def cmd_plotdata(args) -> None:
    _write(_render_csv([DIGIT_TABLE_HEADER, *_digit_table(_ingest_file(args))]), args.out)


def _add_input_options(parser) -> None:
    parser.add_argument("file", help="CSV or whitespace-delimited text file")
    parser.add_argument("--column", default=None,
                        help="column to analyze: 0-based index or header name (default: first)")
    parser.add_argument("--delimiter", default=None,
                        help="field delimiter (default: sniff comma, else whitespace)")
    parser.add_argument("--decimal-mark", default=".",
                        help="decimal mark used in the input (default '.')")


def _add_command(sub, name: str, func, help: str, report: bool = True):
    """A subcommand with the options every command takes; `report` adds --format/--output."""
    p = sub.add_parser(name, help=help)
    # No option name starts with "-" and a digit or a point, so every such argument is a value:
    # argparse's own pattern, on Python 3.11, takes "-2" for one but "-1e-05" for an option.
    p._negative_number_matcher = re.compile(r"-[\d.].*", re.DOTALL)
    p.set_defaults(func=func)
    p.add_argument("--digits", type=int, choices=(1, 2), default=1)
    if report:
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--output", default=None, help="write the report here instead of stdout")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benfordsev",
        description="Benford conformity testing with severity analysis",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "analyze", cmd_analyze,
                     "test one file for conformity and grade severity")
    _add_input_options(p)
    p.add_argument("--delta-star", type=_finite_float, default=None,
                   help="substantive discrepancy benchmark (default: shipped value per scheme)")
    p.add_argument("--psi-star", type=_finite_float, default=None,
                   help="chi-square noncentrality benchmark (no default)")
    p.add_argument("--label", default=None, help="dataset label for the report")

    p = _add_command(sub, "calibrate", cmd_calibrate, "calibrate delta* from a MAD threshold")
    p.add_argument("--threshold", type=_finite_float, required=True,
                   help="close-conformity MAD bound t")
    p.add_argument("--nmin", type=int, default=None,
                   help="smallest sample size (default: expected count of 5 per digit)")
    p.add_argument("--nmax", type=int, default=DEFAULT_N_MAX)

    p = _add_command(sub, "simulate", cmd_simulate, "Monte Carlo check of the null distribution")
    p.add_argument("--n", type=int, required=True, help="sample size per replication")
    p.add_argument("--reps", type=int, required=True, help="number of replications")
    p.add_argument("--seed", type=int, default=0)

    p = _add_command(sub, "severity-curve", cmd_severity_curve,
                     "severity as a function of delta*")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tilde-delta", type=_finite_float, required=True,
                   help="observed standardized excess MAD")
    p.add_argument("--grid", required=True,
                   help="delta* grid: comma-separated values or start:stop:count")

    p = _add_command(sub, "plotdata", cmd_plotdata,
                     "per-digit observed vs Benford frequencies as CSV", report=False)
    _add_input_options(p)
    p.add_argument("--out", required=True, help="path of the CSV file to write")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Warning filters still choose what shows; what shows is one stderr line, as an error
        # is, and a warning that a filter turns into an error is reported as one.
        with warnings.catch_warnings():
            warnings.showwarning = lambda msg, *_: print(
                f"benfordsev: warning: {msg}", file=sys.stderr)
            args.func(args)
    except (OSError, ValueError, MemoryError, argparse.ArgumentTypeError, Warning) as exc:
        print(f"benfordsev: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
