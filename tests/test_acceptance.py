"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
The final criterion needs externally supplied benchmark datasets and is
skipped unless BENFORDSEV_TABLE1_MANIFEST points at a manifest (see README).
"""

import json
import math
import os
import re
import time

import numpy as np
import pytest

from benfordsev.asymptotics import build_constants
from benfordsev.benford import benford_probs
from benfordsev.cli import main
from benfordsev.digits import DigitSystem, FIRST_DIGIT, FIRST_TWO_DIGITS, ingest
from benfordsev.mc import simulate
from benfordsev.severity import (
    n_min_for,
    run_test,
    severity_of_acceptance,
    severity_of_rejection,
    tilde_tails,
)
from benfordsev.specialfn import central_chi2_cdf, noncentral_chi2_cdf, std_normal_cdf


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE criterion {number}: {status} - {detail}")


def test_criterion_1_calibration_reproduction(capsys):
    start = time.perf_counter()
    code1 = main(["calibrate", "--digits", "1", "--threshold", "0.006",
                  "--nmin", "110", "--nmax", "25000", "--format", "json"])
    out1 = capsys.readouterr().out
    code2 = main(["calibrate", "--digits", "2", "--threshold", "0.0012",
                  "--nmin", "1146", "--nmax", "25000", "--format", "json"])
    out2 = capsys.readouterr().out
    elapsed = time.perf_counter() - start

    ds9 = json.loads(out1)["delta_star"]
    ds90 = json.loads(out2)["delta_star"]
    ok = (
        code1 == 0 and code2 == 0
        and abs(ds9 - 0.00321) <= 5e-5
        and abs(ds90 - 0.00037) <= 2e-5
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(1, ok, f"delta*={ds9:.6f}/{ds90:.6f} in {elapsed:.2f}s")
    assert ok


def test_criterion_2_n_min_reproduction(capsys):
    n9 = n_min_for(FIRST_DIGIT)
    n90 = n_min_for(FIRST_TWO_DIGITS)
    ok = n9 == 110 and n90 == 1146
    with capsys.disabled():
        report(2, ok, f"n_min = {n9} (first digit), {n90} (first-two)")
    assert ok


def test_criterion_3_unit_normal_worked_example(capsys):
    # statistic 2, benchmark mean 0.2, sigma 2 => ncp = sqrt(n) * 0.1
    sev_100 = tilde_tails(2.0, math.sqrt(100) * 0.2 / 2.0)[0]
    sev_1000 = tilde_tails(2.0, math.sqrt(1000) * 0.2 / 2.0)[0]
    ok = abs(sev_100 - 0.841) <= 1e-3 and abs(sev_1000 - 0.123) <= 1e-3
    with capsys.disabled():
        report(3, ok, f"severity {sev_100:.4f} (n=100), {sev_1000:.4f} (n=1000)")
    assert ok


TABLE1_ROWS = [
    # (tilde_delta, n, system, expected severity, absolute tolerance)
    (6.621, 19451, FIRST_DIGIT, 0.41628, 3e-3),
    (3.065, 19509, FIRST_DIGIT, 0.00008, 5e-5),
    (6.146, 15194, FIRST_DIGIT, 0.54269, 3e-3),
    (32.839, 48111, FIRST_DIGIT, 1.00000, 1e-5),
    (4.873, 19451, FIRST_TWO_DIGITS, 0.00222, 5e-4),
    (15.591, 15194, FIRST_TWO_DIGITS, 1.00000, 1e-5),
    (1.018, 19509, FIRST_TWO_DIGITS, 0.00000, 1e-4),
]

DELTA_STAR_DEFAULTS = {9: 0.00321, 90: 0.00037}


def test_criterion_4_severity_reproduction_without_datasets(capsys):
    start = time.perf_counter()
    failures = []
    for tilde, n, system, expected, tol in TABLE1_ROWS:
        sev = severity_of_rejection(tilde, DELTA_STAR_DEFAULTS[system.k], n, system)
        if abs(sev - expected) > tol:
            failures.append((system.k, tilde, sev, expected))
    sq9 = math.sqrt(build_constants(FIRST_DIGIT).quad_form)
    sq90 = math.sqrt(build_constants(FIRST_TWO_DIGITS).quad_form)
    if abs(sq9 - 0.5897) > 2e-3:
        failures.append(("sqrt-quad-9", sq9))
    if abs(sq90 - 0.602) > 3e-3:
        failures.append(("sqrt-quad-90", sq90))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    with capsys.disabled():
        report(4, ok, f"7 severity rows, implied sqrt(quad)={sq9:.4f}/{sq90:.4f} "
                      f"in {elapsed:.2f}s; failures={failures or 'none'}")
    assert ok


def test_criterion_5_monte_carlo_asymptotics(capsys):
    start = time.perf_counter()
    # One folded mean's MC standard error is sqrt(1 - 2/pi)/sqrt(reps), about
    # 0.53 % of sqrt(2/pi) at 20,000 replications, so its 2 % check is 3.8 SE.
    rep = simulate(system=FIRST_DIGIT, n=20000, reps=20000, seed=28)
    elapsed = time.perf_counter() - start

    mean_ratio = rep.empirical_mad_mean / rep.theoretical_mad_mean - 1.0
    sd_ratio = rep.empirical_mad_sd / rep.theoretical_mad_sd - 1.0
    folded_rel = max(
        abs(m / rep.expected_folded_mean - 1.0) for m in rep.digit_folded_means
    )
    checks = {
        "mad mean": abs(mean_ratio) < 0.02,
        "mad sd": abs(sd_ratio) < 0.06,
        "tilde mean": abs(rep.tilde_delta_mean) < 0.08,
        "tilde sd": abs(rep.tilde_delta_sd - 1.0) < 0.08,
        "folded means": folded_rel < 0.02,
        "runtime": elapsed < 30.0,
    }
    ok = all(checks.values())
    with capsys.disabled():
        report(5, ok, f"mean {mean_ratio:+.4f}, sd {sd_ratio:+.4f}, "
                      f"tilde ({rep.tilde_delta_mean:+.3f}, {rep.tilde_delta_sd:.3f}), "
                      f"worst folded dev {folded_rel:.4f}, {elapsed:.1f}s; "
                      f"failed={[k for k, v in checks.items() if not v] or 'none'}")
    assert ok


def test_criterion_6_special_function_oracles(capsys):
    start = time.perf_counter()
    # Chi-square(1) must match the squared-normal identity pointwise.
    xs = np.arange(0.0, 36.0 + 1e-9, 0.125)
    worst = max(
        abs(central_chi2_cdf(x, 1) - (2.0 * std_normal_cdf(math.sqrt(x)) - 1.0))
        for x in xs
    )
    identity_ok = worst <= 1e-10

    # Live sampling oracle: 1e7 draws of sum((Z_i + mu_i)^2) with sum(mu^2)=5.
    rng = np.random.default_rng(20250810)
    shift = math.sqrt(5.0)
    hits = 0
    draws = 10_000_000
    chunk = 1_000_000
    for _ in range(draws // chunk):
        z = rng.standard_normal((chunk, 8))
        z[:, 0] += shift
        hits += int(np.count_nonzero(np.einsum("ij,ij->i", z, z) <= 10.0))
    p_hat = hits / draws
    se = math.sqrt(p_hat * (1.0 - p_hat) / draws)
    cdf = noncentral_chi2_cdf(10.0, 8, 5.0)
    mc_ok = abs(cdf - p_hat) <= 3.0 * se
    elapsed = time.perf_counter() - start

    ok = identity_ok and mc_ok and elapsed < 60.0
    with capsys.disabled():
        report(6, ok, f"identity worst err {worst:.2e}; noncentral cdf {cdf:.6f} "
                      f"vs MC {p_hat:.6f} (3se={3 * se:.6f}); {elapsed:.1f}s")
    assert ok


NEEDS_DATA = "BENFORDSEV_TABLE1_MANIFEST"


@pytest.mark.skipif(NEEDS_DATA not in os.environ,
                    reason="external benchmark datasets not supplied")
def test_criterion_7_full_reproduction_with_datasets(capsys):
    manifest_path = os.environ[NEEDS_DATA]
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    base = os.path.dirname(os.path.abspath(manifest_path))
    failures = []
    for entry in manifest["datasets"]:
        path = os.path.join(base, entry["file"])
        column = entry.get("column")
        for key, system in (("first", FIRST_DIGIT), ("first_two", FIRST_TWO_DIGITS)):
            expected = entry.get("expected", {}).get(key)
            if expected is None:
                continue
            with open(path, encoding="utf-8", newline="") as fh:
                counts = ingest(fh, system, column=column)
            outcome = run_test(counts)
            if abs(outcome.tilde_delta - expected["tilde_delta"]) > 0.005:
                failures.append((entry["label"], key, outcome.tilde_delta, expected))
            if "mad" in expected and abs(outcome.mad - expected["mad"]) > 1e-5:
                failures.append((entry["label"], key, "mad", outcome.mad, expected))
    ok = not failures
    with capsys.disabled():
        report(7, ok, f"external reproduction; failures={failures or 'none'}")
    assert ok


def test_criterion_8_invariant_suites(capsys):
    start = time.perf_counter()
    problems = []

    for system in (FIRST_DIGIT, FIRST_TWO_DIGITS):
        b = benford_probs(system)
        if abs(math.fsum(b) - 1.0) > 1e-12:
            problems.append((system.k, "probability sum"))
        c = build_constants(system)
        if c.R != tuple(zip(*c.R)):
            problems.append((system.k, "R symmetry"))
        if any(abs(row[i] - (1.0 - 2.0 / math.pi)) > 1e-14 for i, row in enumerate(c.R)):
            problems.append((system.k, "R diagonal"))

        # Severity strictly decreasing in delta* and in n at fixed statistic
        # (ties allowed only where the value has saturated at 0 or 1).
        def decreasing(values):
            for a, b2 in zip(values, values[1:]):
                if a < b2 or (a == b2 and a not in (0.0, 1.0)):
                    return False
            return True

        grid = [0.0, 0.0005, 0.001, 0.002, 0.004, 0.008, 0.016]
        sev_ds = [severity_of_rejection(3.0, ds, 15000, system) for ds in grid]
        if not decreasing(sev_ds):
            problems.append((system.k, "monotone in delta*"))
        sizes = [200, 2000, 20000, 200000]
        sev_n = [severity_of_rejection(3.0, 0.002, n, system) for n in sizes]
        if not decreasing(sev_n):
            problems.append((system.k, "monotone in n"))

        # Rejection/acceptance complementarity, up to the rounding of the
        # sum: each is computed as its own normal tail.
        for tilde in (-4.0, -1.0, 0.0, 1.5, 6.621):
            for ds in (0.0, 0.0005, 0.00321, 0.01):
                for n in (150, 5000, 100000):
                    rej = severity_of_rejection(tilde, ds, n, system)
                    acc = severity_of_acceptance(tilde, ds, n, system)
                    if abs(rej + acc - 1.0) > 2.0**-53:
                        problems.append((system.k, "complementarity", tilde, ds, n))

    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 5.0
    with capsys.disabled():
        report(8, ok, f"invariants over both digit systems in {elapsed:.2f}s; "
                      f"failures={problems or 'none'}")
    assert ok
