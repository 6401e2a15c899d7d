import pytest

from perfbench import loadgen


class FakeClock:
    """Manually advanced time; ``sleep`` advances it."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


class Handle:
    def __init__(self, latency_ms: float, output=None) -> None:
        self.latency_ms = latency_ms
        self.output = output

    def result(self, timeout=None):
        return self.output


class Refused(Exception):
    pass


def _arrivals(count: int, gap: float) -> list[loadgen.Arrival]:
    return [loadgen.Arrival(i * gap, "m", i) for i in range(count)]


def test_stalled_submit_inflates_later_due_time_latency():
    clock = FakeClock()
    service_ms = 1.0

    def submit(model, index):
        if index == 2:
            clock.now += 0.050  # this submit stalls for 50 ms
        return Handle(service_ms, output=index)

    sent = loadgen.drive(_arrivals(6, 0.010), submit, clock=clock,
                         sleep=clock.sleep)
    answers = loadgen.collect(sent, timeout=1.0, clock=clock)
    latencies = [a.latency_ms for a in answers]
    # Requests up to the stalled one were sent on time.
    assert latencies[:3] == pytest.approx([service_ms] * 3)
    # Every later request was due during the stall and pays for it.
    assert all(lat > service_ms + 5.0 for lat in latencies[3:])
    assert latencies[3] == pytest.approx(service_ms + 40.0)
    assert [s.late * 1e3 for s in sent[3:]] == pytest.approx([40.0, 30.0, 20.0])


def test_refused_requests_are_recorded_not_raised():
    clock = FakeClock()

    def submit(model, index):
        if index == 1:
            raise Refused("queue full")
        return Handle(2.0)

    sent = loadgen.drive(_arrivals(3, 0.001), submit, refused=(Refused,),
                         clock=clock, sleep=clock.sleep)
    answers = loadgen.collect(sent, timeout=1.0, clock=clock)
    assert [a.latency_ms is None for a in answers] == [False, True, False]
    assert isinstance(answers[1].error, Refused)


def test_schedule_is_a_function_of_the_seed_at_a_fixed_rate():
    args = dict(rate=200.0, seconds=5.0, models=["a", "b"], pool=4,
                burst_size=8, burst_period=1.0)
    first = loadgen.schedule(7, **args)
    assert first == loadgen.schedule(7, **args)
    assert first != loadgen.schedule(8, **args)
    dues = [a.due for a in first]
    assert dues == sorted(dues) and 0.0 <= dues[0] and dues[-1] < 5.0
    # Four bursts of eight land exactly on the burst period.
    for t in (1.0, 2.0, 3.0, 4.0):
        assert sum(1 for d in dues if d == t) == 8
    poisson = len(first) - 32
    assert 800 < poisson < 1200  # 200/s for 5 s
    assert {a.model for a in first} == {"a", "b"}
    assert {a.index for a in first} <= set(range(4))
