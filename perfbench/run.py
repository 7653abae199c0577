"""Benchmark of the benfordsev CLI: seeded inputs, timed CLI runs, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

With --trace 0 each pass of the workload runs its CLI commands as
subprocesses, one at a time (a closed loop with one client), and reports the
end-to-end metrics.  With --trace 1 it runs the same argv in-process through
`spans.py`, once untraced and once traced per pair, and reports per-layer
metrics.  Every output is checked.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; every metric is also
printed by name with its unit, and written with the environment to
perfbench/out/.  `--workload all` runs every workload in both modes.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 3  # per pass
# Probe times (probe.py) that define the reference machine speed: scaled times
# are the seconds a run would take with the probes at these values.
PROBE_REF_S = 0.40    # `probe.py cpu`, scales command times
IMPORT_REF_S = 0.25   # `probe.py imports`, scales set-up times

SIM_N, SIM_REPS = 20_000, 20_000
CAL_DIGITS, CAL_THRESHOLD, CAL_NMIN, CAL_NMAX = 1, 0.006, 110, 1_000_000

END_TO_END_UNITS = {"wall_s": "s", "records_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Plan:
    """One workload instance for a seed: the CLI commands of a pass and their checks."""

    commands: list[list[str]]
    check: Callable[[int, str], list[str]]
    records: int            # records handled by commands[0] in one pass
    input_files: list[Path] = field(default_factory=list)


def generate(kind: str, seed: int, path: Path) -> dict:
    """Write one input in a child process (keeping this process small) and return its tally."""
    expected_path = path.with_suffix(".expected.json")
    _, _, code, _, stderr = run_process(
        [sys.executable, str(HERE / "inputs.py"), kind, str(seed), str(path), str(expected_path)])
    if code != 0:
        path.unlink(missing_ok=True)
        raise RuntimeError(f"input generation failed: {stderr.strip()[-500:]}")
    expected = json.loads(expected_path.read_text(encoding="utf-8"))
    expected_path.unlink()
    return expected


def plan_analyze_csv(seed: int, workdir: Path) -> Plan:
    path = workdir / f"analyze_csv_1m_{seed}.csv"
    expected = generate("csv", seed, path)
    argv = ["analyze", str(path), "--column", "amount", "--digits", "2", "--format", "json"]
    return Plan([argv], lambda i, text: checks.check_analyze_json(text, expected),
                expected["rows"], [path])


def plan_analyze_text(seed: int, workdir: Path) -> Plan:
    path = workdir / f"analyze_text_1m_{seed}.txt"
    expected = generate("text", seed, path)
    argv = ["analyze", str(path), "--digits", "1"]
    return Plan([argv], lambda i, text: checks.check_analyze_text(text, expected),
                expected["rows"], [path])


def plan_stats(seed: int, workdir: Path) -> Plan:
    simulate = ["simulate", "--digits", "2", "--n", str(SIM_N), "--reps", str(SIM_REPS),
                "--seed", str(seed), "--format", "json"]
    calibrate = ["calibrate", "--digits", str(CAL_DIGITS), "--threshold", str(CAL_THRESHOLD),
                 "--nmin", str(CAL_NMIN), "--nmax", str(CAL_NMAX), "--format", "json"]
    want_delta_star = checks.reference_delta_star(CAL_DIGITS, CAL_THRESHOLD, CAL_NMIN, CAL_NMAX)
    first_simulate: list[str] = []

    def check(index: int, text: str) -> list[str]:
        if index == 1:
            return checks.check_calibrate(text, want_delta_star)
        if not first_simulate:
            first_simulate.append(text)
        return checks.check_simulate(text, first_simulate[0])

    # The simulate command's records are the n records drawn in each replication.
    return Plan([simulate, calibrate], check, SIM_N * SIM_REPS)


WORKLOADS = {
    "analyze_csv_1m": plan_analyze_csv,
    "analyze_text_1m": plan_analyze_text,
    "stats": plan_stats,
}


class Counter:
    """Attempted and failed program runs, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.extend(failures[:3])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(argv: list[str]) -> tuple[float, float, int, str, str]:
    """Run one process; return wall seconds, its own ru_maxrss in MB, exit code, stdout, stderr."""
    out_path, err_path = OUT / "child.stdout", OUT / "child.stderr"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (wall, usage.ru_maxrss / 1024.0, proc.returncode,
                out.read().decode("utf-8", "replace"), err.read().decode("utf-8", "replace"))


def run_cli(argv: list[str]) -> tuple[float, float, int, str, str]:
    return run_process([sys.executable, "-m", "benfordsev.cli", *argv])


def run_command(plan: Plan, index: int, counter: Counter) -> tuple[float, float]:
    """Run command `index` of the plan in its own process and check its output."""
    argv = plan.commands[index]
    wall, maxrss, code, stdout, stderr = run_cli(argv)
    failures = [f"{argv[0]} exited {code}: {stderr.strip()[-300:]}"] if code else []
    counter.record(failures or plan.check(index, stdout))
    return wall, maxrss


def warm_up(plan: Plan, counter: Counter) -> None:
    """One untimed pass: inputs into page cache, bytecode compiled, outputs checked."""
    for index in range(len(plan.commands)):
        run_command(plan, index, counter)


def repeat_for(seconds: float, step: Callable[[], dict | None]) -> list[dict]:
    """Run `step` once, then again while the next run is expected to end within `seconds`.

    A step that returns None stops the loop.
    """
    results, start = [], time.perf_counter()
    while True:
        before = time.perf_counter()
        result = step()
        if result is None:
            return results
        results.append(result)
        now = time.perf_counter()
        if now - start + (now - before) > seconds:
            return results


def probe(kind: str) -> float:
    wall, _, code, _, stderr = run_process([sys.executable, str(HERE / "probe.py"), kind])
    if code != 0:
        raise RuntimeError(f"machine-speed probe failed: {stderr.strip()[-500:]}")
    return wall


def setup_walls(counter: Counter) -> list[tuple[float, float]]:
    """Time `--version`: interpreter start, numpy and package imports, parser construction.

    Returns (wall, scale) pairs.  Each run sits between two import probes, which
    drift with it, and its scale is IMPORT_REF_S over their mean.
    """
    probes, walls = [probe("imports")], []
    for _ in range(SETUP_RUNS):
        wall, _, code, stdout, _ = run_cli(["--version"])
        ok = code == 0 and stdout.startswith("benfordsev ")
        counter.record([] if ok else [f"--version exited {code}: {stdout!r}"])
        probes.append(probe("imports"))
        walls.append((wall, IMPORT_REF_S / ((probes[-2] + probes[-1]) / 2)))
    return walls


def end_to_end(plan: Plan, seconds: float, counter: Counter) -> tuple[dict, dict]:
    """Scaled end-to-end metrics, plus unscaled and per-command figures as extras."""
    warm_up(plan, counter)
    probes = [probe("cpu")]

    def iteration() -> dict:
        result = {"setup_walls": setup_walls(counter), "walls": [], "rss_mb": []}
        for index in range(len(plan.commands)):
            wall, maxrss = run_command(plan, index, counter)
            probes.append(probe("cpu"))
            result["walls"].append(wall)
            result["rss_mb"].append(maxrss)
        return result

    passes = repeat_for(seconds, iteration)
    # A probe follows every command.  Each command is scaled by the mean of the
    # four probes nearest to it, two on each side: one probe is noisier than the
    # drift it corrects for.
    for i, p in enumerate(passes):
        before = [i * len(plan.commands) + c for c in range(len(plan.commands))]
        p["scales"] = [PROBE_REF_S / statistics.mean(probes[max(0, j - 1):j + 3]) for j in before]

    def timing_metrics(scaled: bool) -> dict:
        def walls(p: dict) -> list[float]:
            return [w * s for w, s in zip(p["walls"], p["scales"])] if scaled else p["walls"]

        def setup(p: dict) -> list[float]:
            return [w * s if scaled else w for w, s in p["setup_walls"]]

        return {
            "wall_s": statistics.median(sum(walls(p)) for p in passes),
            "records_per_s": statistics.median(plan.records / walls(p)[0] for p in passes),
            "setup_s": statistics.median(w for p in passes for w in setup(p)),
        }

    metrics = timing_metrics(scaled=True)
    metrics["peak_rss_mb"] = statistics.median(max(p["rss_mb"]) for p in passes)
    extra = {f"unscaled_{k}": (v, END_TO_END_UNITS[k]) for k, v in timing_metrics(False).items()}
    extra["probe_s"] = (statistics.median(probes), "s")
    for index, argv in enumerate(plan.commands):
        scaled = statistics.median(p["walls"][index] * p["scales"][index] for p in passes)
        extra[f"{argv[0]}_s"] = (scaled, "s")
        if argv[0] == "simulate":
            extra["simulate_reps_per_s"] = (SIM_REPS / scaled, "1/s")
    metrics = {k: (metrics[k], unit) for k, unit in END_TO_END_UNITS.items()}
    return metrics, {"extra": extra, "probes_s": probes, "passes": passes}


def in_process(plan: Plan, traced: bool, counter: Counter) -> dict:
    """Run the workload's argv through cli.main inside one fresh process."""
    commands_path, result_path = OUT / "commands.json", OUT / "inproc.json"
    commands_path.write_text(json.dumps(plan.commands), encoding="utf-8")
    if result_path.exists():
        result_path.unlink()
    _, _, code, _, stderr = run_process(
        [sys.executable, str(HERE / "spans.py"), str(result_path), "1" if traced else "0",
         str(commands_path)])
    if code != 0:
        counter.record([f"in-process run exited {code}: {stderr.strip()[-300:]}"])
        return {}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    for index, (rc, text) in enumerate(zip(result["codes"], result["outputs"])):
        counter.record([f"cli.main returned {rc}"] if rc else plan.check(index, text))
    return result


def layer_metrics(traced: dict) -> dict:
    """Per-layer metrics of one traced in-process run."""
    summary = traced["summary"]
    fn, counts, observed = summary["functions"], summary["counts"], summary["observed"]

    def total(name: str) -> float:
        return fn.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> int:
        return fn.get(name, {}).get("calls", 0)

    main_s = total("cli.main")
    rows, tokens = observed.get("digits.rows", 0), observed.get("digits.tokens", 0)
    rss_growth = sum(s["rss_after_mb"] - s["rss_before_mb"]
                     for s in traced["spans"] if s["name"] == "digits.ingest")
    m = {
        "cli.main_s": (main_s, "s"),
        "cli.main_self_s": (fn.get("cli.main", {}).get("self_s", 0.0), "s"),
        "cli.build_report_s": (total("cli.build_report"), "s"),
        "cli.render_s": (total("cli.render"), "s"),
        "digits.ingest_s": (total("digits.ingest"), "s"),
        "digits.parse_records_s": (total("digits.parse_records"), "s"),
        "digits.count_digits_s": (total("digits.count_digits"), "s"),
        "digits.rows": (rows, "count"),
        "digits.tokens": (tokens, "count"),
    }
    for reason in ("empty", "non-numeric", "zero-value"):
        m[f"digits.skipped.{reason}"] = (observed.get(f"digits.skipped.{reason}", 0), "count")
    m.update({
        "digits.parse_us_per_row": (1e6 * total("digits.parse_records") / rows if rows else 0.0, "us"),
        "digits.count_us_per_token": (1e6 * total("digits.count_digits") / tokens if tokens else 0.0, "us"),
        "digits.ingest_rss_growth_mb": (rss_growth, "MB"),
        "mc.simulate_s": (total("mc.simulate"), "s"),
        "mc.simulate_self_s": (fn.get("mc.simulate", {}).get("self_s", 0.0), "s"),
        "mc.sample_benford_counts_s": (total("mc.sample_benford_counts"), "s"),
        "mc.sample_benford_counts_calls": (calls("mc.sample_benford_counts"), "count"),
        "severity.run_test_from_proportions_s": (total("severity.run_test_from_proportions"), "s"),
        "severity.run_test_from_proportions_calls": (calls("severity.run_test_from_proportions"), "count"),
        "severity.delta_star_s": (total("severity.delta_star"), "s"),
        "severity.severity_of_rejection_s": (total("severity.severity_of_rejection"), "s"),
        "severity.chi_square_severity_s": (total("severity.chi_square_severity"), "s"),
        "benford.benford_probs_calls": (calls("benford.benford_probs"), "count"),
        "benford.benford_probs_s": (total("benford.benford_probs"), "s"),
        "benford.proportions_calls": (calls("benford.proportions"), "count"),
        "benford.chi_square_stat_s": (total("benford.chi_square_stat"), "s"),
        "asymptotics.mad_moments_calls": (calls("asymptotics.mad_moments"), "count"),
        "asymptotics.mad_moments_s": (total("asymptotics.mad_moments"), "s"),
        "asymptotics.build_constants_calls": (counts.get("asymptotics.build_constants", 0), "count"),
        "specialfn.std_normal_cdf_calls": (counts.get("specialfn.std_normal_cdf", 0), "count"),
        "specialfn.central_chi2_cdf_s": (total("specialfn.central_chi2_cdf"), "s"),
        "specialfn.noncentral_chi2_cdf_s": (total("specialfn.noncentral_chi2_cdf"), "s"),
    })
    for layer, self_s in summary["layer_self_s"].items():
        m[f"{layer}.self_s"] = (self_s, "s")
    m["digits.share_of_main"] = (summary["layer_self_s"]["digits"] / main_s if main_s else 0.0, "ratio")
    return m


def reconcile(traced: dict) -> dict:
    """Layer self times partition cli.main_s; the unspanned remainder is cli.main's own self time."""
    summary = traced["summary"]
    main = summary["functions"].get("cli.main", {"total_s": 0.0, "self_s": 0.0})
    layer_sum = sum(summary["layer_self_s"].values())
    return {"cli.main_s": main["total_s"], "layer_self_sum_s": layer_sum,
            "unspanned_s": main["self_s"], "error_s": main["total_s"] - layer_sum}


def per_layer(plan: Plan, seconds: float, counter: Counter) -> tuple[dict, dict]:
    warm_up(plan, counter)

    def pair() -> dict | None:
        untraced = in_process(plan, False, counter)
        traced = in_process(plan, True, counter)
        if not untraced or not traced:
            return None
        rec = reconcile(traced)
        if abs(rec["error_s"]) > 1e-6 * max(1.0, rec["cli.main_s"]):
            counter.record([f"tracer self times do not add up to cli.main_s: {rec}"])
        return {"untraced_s": untraced["wall_s"], "traced_s": traced["wall_s"],
                "metrics": layer_metrics(traced), "reconcile": rec, "spans": traced["spans"]}

    pairs = repeat_for(seconds, pair)
    if not pairs:
        return {}, {}
    metrics = {name: (statistics.median(p["metrics"][name][0] for p in pairs), unit)
               for name, (_, unit) in pairs[0]["metrics"].items()}
    metrics["trace.untraced_main_s"] = (statistics.median(p["untraced_s"] for p in pairs), "s")
    metrics["trace.overhead_s"] = (statistics.median(p["traced_s"] - p["untraced_s"] for p in pairs), "s")
    raw = {"pairs": [{k: v for k, v in p.items() if k != "metrics"} for p in pairs]}
    return metrics, raw


def environment(plan: Plan) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or commit
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "input_bytes": {p.name: p.stat().st_size for p in plan.input_files},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    inputs_dir = OUT / "inputs"
    inputs_dir.mkdir(parents=True, exist_ok=True)
    plan = WORKLOADS[name](seed, inputs_dir)
    counter = Counter()
    try:
        env = environment(plan)
        measure = per_layer if trace else end_to_end
        metrics, raw = measure(plan, seconds, counter)
    finally:
        for path in plan.input_files:
            path.unlink(missing_ok=True)
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env, "attempted": counter.attempted, "failed": counter.failed,
        "failed_ratio": counter.failed / max(1, counter.attempted),
        "failures": counter.messages,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in raw.pop("extra", {}).items()},
        "raw": raw,
    }
    out_path = OUT / f"BENCH_{name}_seed{seed}_trace{int(trace)}.json"
    out_path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    print_result(result)
    return result


def print_result(result: dict) -> None:
    print(f"{result['workload']} seed={result['seed']} trace={result['trace']}:")
    for key, metric in {**result["metrics"], **result["extra"]}.items():
        value = metric["value"]
        print(f"  {key} = {value if isinstance(value, int) else format(value, '.6g')} {metric['unit']}")
    print(f"  failed_ratio = {result['failed_ratio']:.6g} "
          f"({result['failed']} of {result['attempted']} runs)")
    for message in result["failures"]:
        print(f"  FAILED: {message}")
    for pair in result["raw"].get("pairs", []):
        rec = pair["reconcile"]
        print(f"  reconcile: layer self times sum to {rec['layer_self_sum_s']:.6f} s of "
              f"cli.main_s {rec['cli.main_s']:.6f} s; unspanned remainder (cli.main self) "
              f"{rec['unspanned_s']:.6f} s; error {rec['error_s']:.3g} s; tracing overhead "
              f"{pair['traced_s'] - pair['untraced_s']:.4f} s")


def result_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "benfordsev" / "cli.py").is_file():
        print(f"perfbench: error: no package source at {SRC / 'benfordsev'}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(result_line(result))
        return 0
    results = [run_workload(name, args.seed, args.seconds, trace)
               for name in WORKLOADS for trace in (False, True)]
    (OUT / "BENCH_all.json").write_text(json.dumps(results, indent=1), encoding="utf-8")
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {f"{r['workload']}.{k}": m for r in results
                                  for k, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
