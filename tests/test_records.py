"""The value records: field equality and hashing, immutability, pickling.

Spawned `--jobs` workers unpickle the sampler's DegreeSet, and the CLI sums
SampleReports with `merge`.
"""

import copy
import math
import pickle

import pytest

from degcount import (AsymptoticCount, DegreeSet, Regime, SaddlePoint,
                      SampleReport)

SADDLE = SaddlePoint(x=1.5, mean_degree=2.5, slope=0.75, loop_intensity=0.25,
                     log_egf=1.125)

# each class's fields, in constructor order
FIELDS = {
    DegreeSet: ("members", "start", "step"),
    SaddlePoint: ("x", "mean_degree", "slope", "loop_intensity", "log_egf"),
    Regime: ("reason", "degree", "saddle", "loop_intensity", "simple_reason"),
    AsymptoticCount: ("log_value", "n", "m", "feasible", "saddle", "reason"),
    SampleReport: ("samples_requested", "samples_produced", "rejections",
                   "odd_sum_retries"),
}

# (class, the fields of one instance, one field changed)
RECORDS = [
    (DegreeSet, {"members": (1, 3)}, {"members": (1, 4)}),
    (DegreeSet, {"start": 2, "step": 1}, {"start": 3, "step": 1}),
    (SaddlePoint, {"x": 1.5, "mean_degree": 2.5, "slope": 0.75,
                   "loop_intensity": 0.25, "log_egf": 1.125},
     {"slope": 0.5}),
    (Regime, {"saddle": SADDLE, "loop_intensity": 0.25},
     {"loop_intensity": 0.5}),
    (Regime, {"reason": "no degree sequence"}, {"reason": "another"}),
    (AsymptoticCount, {"log_value": 12.5, "n": 10, "m": 15,
                       "feasible": True, "saddle": SADDLE},
     {"m": 16}),
    (AsymptoticCount, {"log_value": -math.inf, "n": 3, "m": 5,
                       "feasible": False, "reason": "odd"},
     {"feasible": True}),
    (SampleReport, {"samples_requested": 3, "samples_produced": 2,
                    "rejections": 7}, {"odd_sum_retries": 1}),
]


@pytest.mark.parametrize("cls, fields, change", RECORDS,
                         ids=[f"{r[0].__name__}-{k}"
                              for k, r in enumerate(RECORDS)])
def test_record_semantics(cls, fields, change):
    one, two = cls(**fields), cls(**fields)
    other = cls(**{**fields, **change})
    assert one == two and not one != two
    assert one != other and other != one
    values = tuple(getattr(one, f) for f in FIELDS[cls])
    assert one != values
    assert cls(*values) == one
    assert repr(one).startswith(f"{cls.__name__}(")
    for name, value in fields.items():
        assert f"{name}={value!r}" in repr(one)
    for copied in (pickle.loads(pickle.dumps(one)), copy.copy(one),
                   copy.deepcopy(one)):
        assert type(copied) is cls and copied == one
    assert hash(one) == hash(two) and hash(one) != hash(other)
    assert {one: 1}[two] == 1
    name = next(iter(change))
    with pytest.raises(AttributeError):
        setattr(one, name, change[name])
    with pytest.raises(AttributeError):
        delattr(one, name)
    assert one == two


def test_sample_report_merge_and_dict():
    a = SampleReport(samples_requested=1, samples_produced=1, rejections=3)
    b = SampleReport(2, 1, 1, 4)
    merged = a.merge(b)
    assert merged == SampleReport(3, 2, 4, 4)
    assert (a, b) == (SampleReport(1, 1, 3, 0), SampleReport(2, 1, 1, 4))
    assert merged.attempts == 6
    assert merged.as_dict() == {
        "samples_requested": 3, "samples_produced": 2, "rejections": 4,
        "odd_sum_retries": 4, "empirical_acceptance": 2 / 6}
    assert SampleReport().as_dict()["empirical_acceptance"] == 0.0
    assert SampleReport().merge(SampleReport()) == SampleReport()
