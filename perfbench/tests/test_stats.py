import pytest

from perfbench import stats


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),  # the median has only 9 samples beyond it
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),
        (99, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (10_000, 99.9),
    ],
)
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_samples_beyond_counts_values_above_the_nearest_rank():
    values = list(range(1, 101))
    assert stats.nearest_rank(values, 90.0) == 90
    assert sum(v > 90 for v in values) == stats.samples_beyond(100, 90.0) == 10
    assert stats.nearest_rank(values, 50.0) == 50

