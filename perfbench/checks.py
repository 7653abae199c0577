"""Output checks for every benchmark command, independent of the package under test.

Each check returns a list of failure messages; an empty list means the output
is correct.  Reference values come from the generator's tallies and its numpy
recomputation of the statistics (`inputs.reference_statistics`), and from a
`math.fsum` recomputation of delta* here.  This module imports no numpy, so the
benchmark's parent process stays small: a child's ru_maxrss starts from its
parent's resident size at fork.

Not checked: p-values and severities against exact tails.  The known
collapse of `1 - Phi(x)` to 0.0 far out in the tail is a separate correctness
item with its own tests, so these checks do not pin those fields.
"""

from __future__ import annotations

import json
import math

TOLERANCE = 1e-9
CALIBRATE_RTOL = 1e-10
MC_SIGMAS = 4.0


def _close(got: float, want: float, slack: float = 0.0) -> bool:
    return abs(got - want) <= TOLERANCE * max(1.0, abs(want)) + slack


def check_analyze_json(text: str, expected: dict) -> list[str]:
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"analyze output is not JSON: {exc}"]
    failures = []
    n = expected["n"]
    if report.get("n") != n:
        failures.append(f"n {report.get('n')} != expected {n}")
    if report.get("skip_reasons") != expected["skip_reasons"]:
        failures.append(f"skip_reasons {report.get('skip_reasons')} != {expected['skip_reasons']}")
    if report.get("skipped") != sum(expected["skip_reasons"].values()):
        failures.append(f"skipped {report.get('skipped')} is not the sum of the expected skips")
    table = report.get("digit_table", [])
    first = 10 ** (expected["digits"] - 1)
    want_table = [[first + i, count / n] for i, count in enumerate(expected["counts"])]
    if [row[:2] for row in table] != want_table:
        failures.append("digit_table observed proportions differ from the generator's counts")
    ref = expected["reference"]
    for key in ("mad", "tilde_delta"):
        if not isinstance(report.get(key), float) or not _close(report[key], ref[key]):
            failures.append(f"{key} {report.get(key)!r} != reference {ref[key]!r}")
    return failures


def _parse_text_report(text: str) -> tuple[dict[str, str], list[list[str]]]:
    fields, table = {}, []
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.split() == ["digit", "observed", "benford"]:
            table = [row.split() for row in lines[i + 1:] if row.strip()]
            break
        label, sep, value = line.partition(": ")
        if sep:
            fields[label.strip()] = value.strip()
    return fields, table


def _half_unit_8g(value: float) -> float:
    """Half a unit in the last place of a value printed with %.8g."""
    if value == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 7)


def check_analyze_text(text: str, expected: dict) -> list[str]:
    """Check the default text report; values there are printed with %.8g."""
    fields, table = _parse_text_report(text)
    failures = []
    n = expected["n"]
    if fields.get("records counted") != str(n):
        failures.append(f"records counted {fields.get('records counted')!r} != {n}")
    skipped, _, reasons = fields.get("records skipped", "").partition("  ")
    want_reasons = ", ".join(f"{r}: {c}" for r, c in sorted(expected["skip_reasons"].items()))
    if skipped != str(sum(expected["skip_reasons"].values())) or reasons.strip("()") != want_reasons:
        failures.append(f"records skipped {fields.get('records skipped')!r} != {expected['skip_reasons']}")
    first = 10 ** (expected["digits"] - 1)
    want_table = [[str(first + i), f"{count / n:.8g}"] for i, count in enumerate(expected["counts"])]
    if [row[:2] for row in table] != want_table:
        failures.append("digit table observed proportions differ from the generator's counts")
    ref = expected["reference"]
    for key, label in (("mad", "MAD"), ("tilde_delta", "tilde delta")):
        try:
            got = float(fields[label])
        except (KeyError, ValueError):
            failures.append(f"text report has no numeric {label!r} line")
            continue
        if not _close(got, ref[key], _half_unit_8g(ref[key])):
            failures.append(f"{label} {got!r} != reference {ref[key]!r}")
    return failures


def check_simulate(text: str, first_text: str) -> list[str]:
    """Monte Carlo output: identical to the first run of its seed and centred on the theory."""
    failures = []
    if text != first_text:
        failures.append("simulate JSON differs from an earlier run with the same seed")
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return failures + [f"simulate output is not JSON: {exc}"]
    mean, se = report["tilde_delta_mean"], report["tilde_delta_mean_se"]
    if not abs(mean) < MC_SIGMAS * se:
        failures.append(f"|tilde_delta_mean| {abs(mean)!r} >= {MC_SIGMAS} * se {se!r}")
    gap = abs(report["empirical_mad_mean"] - report["theoretical_mad_mean"])
    if not gap < MC_SIGMAS * report["mad_mean_se"]:
        failures.append(f"empirical MAD mean is {gap!r} from theory, beyond {MC_SIGMAS} MC standard errors")
    return failures


def reference_delta_star(digits: int, threshold: float, n_min: int, n_max: int) -> float:
    """Mean over integer n in [n_min, n_max] of threshold - E(MAD_n), summed with fsum."""
    b = [math.log10(1.0 + 1.0 / d) for d in range(10 ** (digits - 1), 10**digits)]
    scale = math.sqrt(2.0 / math.pi) * math.fsum(math.sqrt(x * (1.0 - x)) for x in b) / len(b)
    total = math.fsum(threshold - scale / math.sqrt(n) for n in range(n_min, n_max + 1))
    return total / (n_max - n_min + 1)


def check_calibrate(text: str, want: float) -> list[str]:
    try:
        got = json.loads(text)["delta_star"]
    except (json.JSONDecodeError, KeyError) as exc:
        return [f"calibrate output has no delta_star: {exc!r}"]
    if not abs(got - want) <= CALIBRATE_RTOL * abs(want):
        return [f"delta_star {got!r} != reference {want!r}"]
    return []
