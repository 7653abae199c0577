"""The benchmark tracer wraps package functions by name; each must exist.

`perfbench/spans.py` lists them in TARGETS and is not part of the package,
so a rename or removal here would otherwise surface only as a failed
benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module.TARGETS


@pytest.mark.parametrize("layer, module, attr, kind", load_targets())
def test_target_resolves(layer, module, attr, kind):
    owner = importlib.import_module(f"benfordsev.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
