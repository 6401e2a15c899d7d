import math

import pytest

from perfbench.speed import PARTS, HostSpeed


def test_sample_records_a_factor_per_sample():
    speed = HostSpeed()
    spent = speed.sample()
    assert spent > 0 and speed.spent_s == spent
    assert len(speed.times) == len(speed.factors) == 1
    ratios = [speed.part_ratios[name][0] for name in PARTS]
    geo = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    assert math.isclose(speed.factors[0], geo)


def test_maybe_sample_respects_every_s():
    speed = HostSpeed(every_s=60.0)
    speed.maybe_sample()
    assert speed.maybe_sample() == 0.0
    assert len(speed.factors) == 1


def _speed(times, factors):
    speed = HostSpeed()
    speed.times, speed.factors = list(times), list(factors)
    return speed


def test_factor_is_the_median_inside_the_window():
    speed = _speed([0.0, 1.0, 1.2, 1.4, 5.0], [9.0, 1.0, 2.0, 4.0, 9.0])
    assert speed.factor(1.1, 1.3) == 2.0
    assert speed.scaled(0.2, 1.1, 1.3) == pytest.approx(0.1)


def test_factor_falls_back_to_the_nearest_sample():
    speed = _speed([0.0, 10.0], [2.0, 3.0])
    assert speed.factor(2.0, 3.0) == 2.0
    assert speed.factor(7.0, 8.0) == 3.0
    assert speed.factor(20.0, 21.0) == 3.0
    with pytest.raises(ValueError):
        HostSpeed().factor(0.0, 1.0)
