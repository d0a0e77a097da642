import signal
import time

import pytest

from speed import KERNEL_REF_S, SpeedSampler


def test_each_gap_is_scaled_by_the_kernel_times_at_its_ends():
    s = SpeedSampler()
    s.starts, s.ends = [0.0, 1.0, 2.0], [0.001, 1.002, 2.001]
    assert s.kernel_s() == pytest.approx([0.001, 0.002, 0.001])
    assert s.work_s() == pytest.approx(0.999 + 0.998)
    assert s.scaled_s() == pytest.approx(KERNEL_REF_S * (0.999 + 0.998) / 0.0015)


def test_sampler_samples_while_inside_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedSampler(interval=0.01) as s:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(s.starts) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0.15 < s.work_s() < 0.3
