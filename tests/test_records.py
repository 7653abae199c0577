"""The package's records are tuples: checked when built, read-only, equal and hashed by value."""

import dataclasses
import json

import pytest

from benfordsev.asymptotics import build_constants
from benfordsev.cli import Report
from benfordsev.digits import FIRST_DIGIT, FIRST_TWO_DIGITS, DigitCounts, DigitSystem
from benfordsev.mc import SimulationReport, simulate
from benfordsev.severity import delta_star, run_test_from_proportions

RECORDS = {
    "DigitSystem": lambda: DigitSystem(2),
    "DigitCounts": lambda: DigitCounts(FIRST_DIGIT, (1,) * 9),
    "AsymptoticConstants": lambda: build_constants(FIRST_DIGIT),
    "TestOutcome": lambda: run_test_from_proportions((1 / 9,) * 9, 100, FIRST_DIGIT),
    "SimulationReport": lambda: simulate(FIRST_DIGIT, 100, 3, 0),
    "Report": lambda: Report({}, [], str),
}

# The (system, n, reps, seed) arguments of simulate in tests/test_mc.py.
SIMULATION_ARGS = [
    (FIRST_DIGIT, 2000, 100, 77),
    (FIRST_DIGIT, 20000, 400, 28),
    (FIRST_TWO_DIGITS, 20000, 300, 28),
    (FIRST_DIGIT, 1000, 200, 3),
    (FIRST_DIGIT, 500, 50, 11),
]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_attributes_cannot_be_set(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("build, message", [
    (lambda: DigitSystem(3), "digits must be 1 or 2, got 3"),
    (lambda: DigitSystem(digits=0), "digits must be 1 or 2, got 0"),
    # simulate and delta_star check the same fields as arguments.
    (lambda: simulate(FIRST_DIGIT, 10, 1, 1),
     "reps must be at least 2: the standard deviations need two samples"),
    (lambda: simulate(system=FIRST_DIGIT, n=0, reps=10, seed=1),
     "n must be at least 1 and below 2**63, got 0"),
    (lambda: delta_star(FIRST_DIGIT, 0.0, 110, 25000), "threshold must be positive"),
    (lambda: delta_star(system=FIRST_DIGIT, threshold=0.006, n_min=200, n_max=100),
     "n_min=200 exceeds n_max=100"),
    (lambda: FIRST_DIGIT._replace(digits=3), "digits must be 1 or 2, got 3"),
])
def test_invalid_records_are_refused_when_built(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_counts_built_without_skip_reasons_do_not_share_a_dict():
    a = DigitCounts(FIRST_DIGIT, (1,) * 9)
    b = DigitCounts(system=FIRST_DIGIT, counts=(1,) * 9)
    a.skip_reasons["empty"] = 1
    assert a.skip_reasons is not b.skip_reasons
    assert b.skip_reasons == {}


def test_equal_systems_hash_equal_and_share_cached_constants():
    assert DigitSystem(2) == FIRST_TWO_DIGITS and DigitSystem(2) is not FIRST_TWO_DIGITS
    assert hash(DigitSystem(2)) == hash(FIRST_TWO_DIGITS)
    assert DigitSystem(1) != FIRST_TWO_DIGITS
    build_constants(FIRST_TWO_DIGITS)
    hits = build_constants.cache_info().hits
    assert build_constants(DigitSystem(2)) is build_constants(FIRST_TWO_DIGITS)
    assert build_constants.cache_info().hits == hits + 2


def test_records_equal_plain_tuples_of_their_fields():
    assert FIRST_DIGIT == (1,)


@pytest.mark.parametrize("args", SIMULATION_ARGS, ids=lambda a: f"k{a[0].k}-n{a[1]}-{a[3]}")
def test_simulation_json_equals_the_dataclass_rendering(args):
    # SimulationReport was a frozen dataclass rendered by json.dumps(asdict(report), indent=2).
    fields = [(name, SimulationReport.__annotations__[name]) for name in SimulationReport._fields]
    old = dataclasses.make_dataclass("SimulationReport", fields, frozen=True)
    report = simulate(*args)
    assert report.to_json() == json.dumps(dataclasses.asdict(old(*report)), indent=2)
