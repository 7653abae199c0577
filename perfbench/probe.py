"""Fixed machine-speed probes: reference jobs that never change with the package.

On a shared machine the CPU speed drifts by tens of percent over tens of seconds.
The harness times these probes next to the program and scales the program's
times by (reference probe time) / (measured probe time), so a drift in machine
speed cancels while a change in the package does not.  Changing a job here, or
a reference time in run.py, changes every scaled metric: treat both as part of
the benchmark definition.

    python3 perfbench/probe.py cpu      # after every timed command
    python3 perfbench/probe.py imports  # around every `--version` set-up run

`cpu` parses an in-memory CSV of 150 000 rows with `csv`, `re` and string
methods, the same kind of interpreter work as the package's ingestion.
`imports` starts the interpreter and makes the imports that `--version` makes,
except the package's own.
"""

import csv
import re
import sys

NUMERIC = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\Z")


def cpu_job() -> list[int]:
    lines = [f'{i},{(i * 7919) % 100003 / 7.0:.2f},"a,b"\n' for i in range(150_000)]
    tally = [0] * 100
    for row in csv.reader(lines):
        cell = row[1].strip()
        if NUMERIC.fullmatch(cell):
            digits = cell.replace(".", "").lstrip("0")
            if digits:
                tally[int((digits + "0")[:2])] += 1
    return tally


def imports_job() -> None:
    import argparse, dataclasses, enum, json, warnings  # noqa: E401, F401

    import numpy  # noqa: F401


if __name__ == "__main__":
    {"cpu": cpu_job, "imports": imports_job}[sys.argv[1]]()
