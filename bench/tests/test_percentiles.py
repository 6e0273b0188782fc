import pytest

from measure import MIN_BEYOND_TAIL, min_samples, tail_percentile


def test_p95_needs_ten_samples_beyond_it():
    assert min_samples(0.95) == 200
    assert min_samples(0.99) == 1000
    assert min_samples(0.5) == 20


@pytest.mark.parametrize("q", [0.5, 0.9, 0.95, 0.99])
def test_reported_tail_leaves_ten_samples_beyond(q):
    n = min_samples(q)
    samples = [float(i) for i in range(n)]
    value = tail_percentile(samples, q)
    assert sum(s > value for s in samples) >= MIN_BEYOND_TAIL
    with pytest.raises(ValueError):
        tail_percentile(samples[:-1], q)


def test_tail_is_nearest_rank_and_order_free():
    samples = [float(i) for i in range(1, 201)]
    assert tail_percentile(list(reversed(samples)), 0.95) == 190.0
    assert sum(s > 190.0 for s in samples) == 10
