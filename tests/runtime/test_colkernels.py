"""Unit tests for the integer column census
(:func:`repro.dq.streaming.int_column_summary`).

The census is the column kernel behind
:meth:`~repro.dq.streaming.FieldAccumulator.add_column` for all-``int``
chunks: it folds the chunk's distinct table into bounds, exact
Python-int sums and sorted ``(value, count)`` pairs.  Every test here is
an exactness pin against the per-value oracle, including sums far past
int64, and a pin on the chunks it declines (short or wide support),
which the scalar fold then takes.
"""

from collections import Counter

import pytest

from repro.dq.streaming import int_column_summary

pytestmark = pytest.mark.columnar


def _census_oracle(values):
    lowest, highest = min(values), max(values)
    pairs = {}
    for value in values:
        pairs[value] = pairs.get(value, 0) + 1
    return (
        lowest,
        highest,
        max(-lowest, highest, 1),
        sum(values),
        sum(value * value for value in values),
        sorted(pairs.items()),
    )


def test_int_column_summary_narrow_lane_is_exact_everywhere():
    """Narrow support (scores/enums) folds through the distinct table
    with exact bignum math, past int64 too."""
    values = [-3, 2, 2, -3, 0, 2, 0, -3] * 4  # 32 cells, 3 distinct
    big = [2**70, -(2**70)] * 16  # far past int64
    for chunk in (values, big):
        summary = int_column_summary(Counter(chunk), len(chunk))
        assert summary == _census_oracle(chunk)


def test_int_column_summary_no_lane():
    """Short chunks and wide supports are left to the scalar fold."""
    assert int_column_summary(Counter([1, 2]), 2) is None  # short chunk
    assert int_column_summary(Counter([5] * 8), 8) is None  # short, narrow
    wide = list(range(64))  # all-distinct
    assert int_column_summary(Counter(wide), len(wide)) is None
