"""In-process tracing of `benfordsev.cli.main` through wrappers on the package's public functions.

Wrappers are installed from outside the package: each wrapped function is
replaced under every name bound to it in any `benfordsev` module (for
example both `benfordsev.digits.ingest` and `benfordsev.cli.ingest`), so
calls through imported names are traced too.  Three kinds of wrapper:

- span: one record per call (name, start, end, parent span, ru_maxrss before
  and after), kept in memory and written out at the end;
- timed: per-name call count, total time and self time, no per-call record,
  for functions called up to ~10^6 times per run;
- counted: per-name call count only, for the hottest trivial functions.

A function's self time is its duration minus the time its wrapped callees
cover.  Per-record helpers (`first_digit`, `_significand`) are not wrapped.

Run as a script, this module is one measured process: it imports the package,
optionally installs the tracer, calls `cli.main(argv)` for each command and
writes a JSON result.  Usage:

    python3 perfbench/spans.py RESULT_JSON TRACE(0|1) COMMANDS_JSON
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import resource
import sys
import time

# (layer, module, attribute, kind).  An attribute "Class.method" wraps a method.
TARGETS = (
    ("cli", "cli", "main", "span"),
    ("cli", "cli", "build_report", "span"),
    ("cli", "cli", "AnalysisReport.to_json", "span"),
    ("cli", "cli", "AnalysisReport.to_text", "span"),
    ("cli", "mc", "SimulationReport.to_json", "span"),
    ("digits", "digits", "ingest", "span"),
    ("digits", "digits", "parse_records", "span"),
    ("digits", "digits", "count_digits", "span"),
    ("mc", "mc", "simulate", "span"),
    ("mc", "mc", "sample_benford_counts", "timed"),
    ("severity", "severity", "delta_star", "span"),
    ("severity", "severity", "run_test", "timed"),
    ("severity", "severity", "run_test_from_proportions", "timed"),
    ("severity", "severity", "severity_of_rejection", "timed"),
    ("severity", "severity", "severity_of_acceptance", "timed"),
    ("severity", "severity", "chi_square_severity", "timed"),
    ("severity", "severity", "n_min_for", "timed"),
    ("benford", "benford", "benford_probs", "timed"),
    ("benford", "benford", "proportions", "timed"),
    ("benford", "benford", "chi_square_stat", "timed"),
    ("asymptotics", "asymptotics", "mad_moments", "timed"),
    ("asymptotics", "asymptotics", "build_constants", "counted"),
    ("specialfn", "specialfn", "std_normal_cdf", "counted"),
    ("specialfn", "specialfn", "central_chi2_cdf", "timed"),
    ("specialfn", "specialfn", "noncentral_chi2_cdf", "timed"),
)
LAYERS = ("cli", "digits", "benford", "asymptotics", "severity", "specialfn", "mc")
# Render methods all report as one span name.
_SPAN_NAMES = {attr: "cli.render" for _, _, attr, _ in TARGETS if ".to_" in attr}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Span records and per-function totals for one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.totals: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.counts: dict[str, list] = {}   # name -> [calls]
        self.layer_of: dict[str, str] = {}
        self.observed: dict[str, float] = {}
        # One frame per open wrapped call: [time covered by wrapped callees, span id].
        self._stack: list[list] = [[0.0, None]]

    def _span(self, name, fn, observe=None):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            record = {"id": span_id, "parent": stack[-1][1], "name": name}
            spans.append(record)
            frame = [0.0, span_id]
            stack.append(frame)
            record["rss_before_mb"] = _maxrss_mb()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stack[-1][0] += end - start
                record.update(start=start, end=end, self_s=end - start - frame[0],
                              rss_after_mb=_maxrss_mb())
            if observe is not None:
                observe(self.observed, result)
            return result

        return wrapper

    def _timed(self, name, fn):
        stack, clock = self._stack, time.perf_counter
        acc = self.totals.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                acc[0] += 1
                acc[1] += elapsed
                acc[2] += elapsed - frame[0]

        return wrapper

    def _counted(self, name, fn):
        acc = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            acc[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "benfordsev" or key.startswith("benfordsev.")]
        for layer, module_name, attr, kind in TARGETS:
            module = importlib.import_module(f"benfordsev.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            name = _SPAN_NAMES.get(attr, f"{layer}.{method}")
            self.layer_of[name] = layer
            if owner_name:
                owner = getattr(module, owner_name)
                original = getattr(owner, method)
                setattr(owner, method, self._span(name, original))
                continue
            original = getattr(module, attr)
            if kind == "span":
                wrapper = self._span(name, original, _OBSERVERS.get(name))
            elif kind == "timed":
                wrapper = self._timed(name, original)
            else:
                wrapper = self._counted(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def summary(self) -> dict:
        """Per-name calls/total/self over spans and timed wrappers, plus counts."""
        names: dict[str, list] = {name: list(acc) for name, acc in self.totals.items()}
        for span in self.spans:
            acc = names.setdefault(span["name"], [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += span["end"] - span["start"]
            acc[2] += span["self_s"]
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_s) in names.items():
            layer_self[self.layer_of[name]] += self_s
        return {
            "functions": {name: {"calls": c, "total_s": t, "self_s": s}
                          for name, (c, t, s) in names.items()},
            "counts": {name: acc[0] for name, acc in self.counts.items()},
            "layer_self_s": layer_self,
            "observed": dict(self.observed),
        }


def _observe_parse(observed: dict, result) -> None:
    tokens, skips = result
    observed["digits.tokens"] = observed.get("digits.tokens", 0) + len(tokens)
    observed["digits.rows"] = observed.get("digits.rows", 0) + len(tokens) + sum(skips.values())


def _observe_ingest(observed: dict, result) -> None:
    for reason, count in result.skip_reasons.items():
        key = f"digits.skipped.{reason}"
        observed[key] = observed.get(key, 0) + count


_OBSERVERS = {"digits.parse_records": _observe_parse, "digits.ingest": _observe_ingest}


def run(commands: list[list[str]], traced: bool) -> dict:
    """Call cli.main for each argv in this process; return exit codes, outputs, timings."""
    cli = importlib.import_module("benfordsev.cli")
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    codes, outputs = [], []
    start = time.perf_counter()
    for argv in commands:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            codes.append(cli.main(argv))
        outputs.append(buffer.getvalue())
    elapsed = time.perf_counter() - start
    result = {"wall_s": elapsed, "codes": codes, "outputs": outputs}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["summary"] = tracer.summary()
    return result


if __name__ == "__main__":
    result_path, trace_flag, commands_path = sys.argv[1:4]
    with open(commands_path, encoding="utf-8") as fh:
        command_list = json.load(fh)
    payload = run(command_list, trace_flag == "1")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
