"""Seeded benchmark inputs and the digit tallies they must produce.

The same seed always gives byte-identical files.  While writing each cell the
generator tallies the expected leading-digit counts and skip counts from the
text it wrote, using its own few lines of string logic (`expected_label`), so
the output checks never trust the package under test.  From those counts it
also recomputes the MAD and the standardized excess MAD with numpy.

Run as a script it writes one input and its expectations:

    python3 perfbench/inputs.py csv|text SEED INPUT_PATH EXPECTED_JSON
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

ROWS = 1_000_000
_CHUNK = 50_000

# Quoted per RFC 4180: every category holds a comma, one holds escaped quotes.
_CATEGORIES = ('"a,b"', '"c, d"', '"e,""f"""', '"g,"', '",h,i"')


def expected_label(cell: str, digits: int) -> int | str:
    """Leading 1 or 2 significant digits of a cell this generator wrote, or its skip reason."""
    text = cell.strip()
    if not text:
        return "empty"
    body = text.lower().split("e")[0].lstrip("+-")
    if not body.replace(".", "", 1).isdigit():
        return "non-numeric"
    significant = body.replace(".", "").lstrip("0")
    if not significant:
        return "zero-value"
    return int((significant + "0")[:digits])


class Tally:
    """Expected analysis of one input: per-label counts plus skip reasons."""

    def __init__(self, digits: int):
        self.digits = digits
        self.first_label = 10 ** (digits - 1)
        self.counts = [0] * (9 * self.first_label)
        self.skip_reasons: dict[str, int] = {}
        self.rows = 0

    def add(self, cell: str) -> None:
        self.rows += 1
        label = expected_label(cell, self.digits)
        if isinstance(label, str):
            self.skip_reasons[label] = self.skip_reasons.get(label, 0) + 1
        else:
            self.counts[label - self.first_label] += 1

    def as_dict(self) -> dict:
        return {
            "digits": self.digits,
            "rows": self.rows,
            "n": sum(self.counts),
            "counts": list(self.counts),
            "skip_reasons": dict(sorted(self.skip_reasons.items())),
            "reference": reference_statistics(self.counts, self.digits),
        }


def reference_statistics(counts: list[int], digits: int) -> dict:
    """MAD and standardized excess MAD of `counts`, recomputed from the paper's formulas."""
    labels = np.arange(10 ** (digits - 1), 10**digits, dtype=float)
    b = np.log10(1.0 + 1.0 / labels)
    k, n = len(b), sum(counts)
    mad = float(np.mean(np.abs(np.asarray(counts, dtype=float) / n - b)))
    d = np.sqrt(b * (1.0 - b))
    # Covariance of the folded scaled deviations: diagonal 1 - 2/pi, off-diagonal
    # from the correlation -sqrt(b_i b_j / ((1 - b_i)(1 - b_j))).
    rho = -np.sqrt(np.outer(b, b) / np.outer(1.0 - b, 1.0 - b))
    np.fill_diagonal(rho, 1.0)
    r = (2.0 / math.pi) * (np.sqrt(1.0 - rho * rho) + rho * np.arcsin(rho) - 1.0)
    expected_mad = math.sqrt(2.0 / (math.pi * n)) * float(np.sum(d)) / k
    tilde = k * math.sqrt(n) * (mad - expected_mad) / math.sqrt(float(d @ r @ d))
    return {"mad": mad, "tilde_delta": tilde}


def _amount_cells(rng: np.random.Generator, rows: int) -> list[str]:
    """Non-Benford money amounts: 80 % log-uniform over 5 decades, 20 % lognormal,
    with about 2 % dirty cells split evenly between empty, n/a, 0.00 and exponent form."""
    log_uniform = 10.0 ** rng.uniform(0.0, 5.0, rows)
    lognormal = rng.lognormal(mean=4.0, sigma=1.0, size=rows)
    values = np.where(rng.random(rows) < 0.8, log_uniform, lognormal)
    dirty = np.where(rng.random(rows) < 0.02, rng.integers(0, 4, rows), -1)
    cells = []
    for value, kind in zip(values.tolist(), dirty.tolist()):
        if kind < 0:
            cells.append("%.2f" % value)
        elif kind == 0:
            cells.append("")
        elif kind == 1:
            cells.append("n/a")
        elif kind == 2:
            cells.append("0.00")
        else:
            cells.append("%.3e" % value)
    return cells


def write_csv(path: Path, seed: int, rows: int = ROWS, digits: int = 2) -> dict:
    """Write `id,amount,category` with `rows` data rows; return the expected tally."""
    rng = np.random.default_rng([seed, 1])
    tally = Tally(digits)
    category_index = rng.integers(0, len(_CATEGORIES), rows).tolist()
    amounts = _amount_cells(rng, rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("id,amount,category\n")
        for start in range(0, rows, _CHUNK):
            lines = []
            for i in range(start, min(start + _CHUNK, rows)):
                cell = amounts[i]
                tally.add(cell)
                lines.append(f"{i + 1},{cell},{_CATEGORIES[category_index[i]]}\n")
            fh.write("".join(lines))
    return tally.as_dict()


def write_text(path: Path, seed: int, rows: int = ROWS, digits: int = 1) -> dict:
    """Write one clean log-uniform value (6 decades, %.6g) per line; return the expected tally."""
    rng = np.random.default_rng([seed, 2])
    tally = Tally(digits)
    values = (10.0 ** rng.uniform(0.0, 6.0, rows)).tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for start in range(0, rows, _CHUNK):
            lines = []
            for value in values[start:start + _CHUNK]:
                cell = "%.6g" % value
                tally.add(cell)
                lines.append(cell + "\n")
            fh.write("".join(lines))
    return tally.as_dict()


if __name__ == "__main__":
    kind, seed, input_path, expected_path = sys.argv[1:5]
    writer = {"csv": write_csv, "text": write_text}[kind]
    expected = writer(Path(input_path), int(seed))
    Path(expected_path).write_text(json.dumps(expected), encoding="utf-8")
