import math

import pytest

from perfbench.stats import geomean, median, percentile


def test_percentile_reports_its_sample_count():
    q = percentile([5.0, 1.0, 3.0, 2.0, 4.0], 50)
    assert q.value == 3.0
    assert q.n == 5
    assert q.q == 50.0
    assert q.to_dict() == {"q": 50.0, "value": 3.0, "n": 5, "supported": False}


def test_percentile_supported_needs_ten_samples_beyond():
    assert not percentile(list(range(999)), 99).supported
    assert percentile(list(range(1000)), 99).supported
    assert percentile(list(range(100)), 90).supported


def test_median_and_percentile_reject_bad_input():
    with pytest.raises(ValueError):
        median([])
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_geomean():
    assert math.isclose(geomean([1.0, 4.0]), 2.0)
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])
