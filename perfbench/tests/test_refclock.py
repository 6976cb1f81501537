import signal

import pytest

from refclock import ScaledClock, reference_task


def test_measure_returns_the_result_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    clock = ScaledClock(interval=0.001)
    result, elapsed, raw, scaled = clock.measure(sum, range(200_000))
    assert result == sum(range(200_000))
    assert 0 < raw <= elapsed
    assert scaled > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_exception_propagates_with_the_timer_disarmed():
    before = signal.getsignal(signal.SIGALRM)
    clock = ScaledClock(interval=0.001)

    def boom():
        reference_task()
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        clock.measure(boom)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_samples_taken_during_a_call_are_left_out_of_its_raw_time():
    clock = ScaledClock(interval=0.001)

    def busy():
        for _ in range(20):
            reference_task()

    _, elapsed, raw, _ = clock.measure(busy)
    assert clock._samples, "the timer never fired"
    assert 0 < raw < elapsed
    assert raw == pytest.approx(elapsed - sum(d for _, d in clock._samples), abs=2e-3)
