"""The tail-latency rule shared by the end-to-end and per-layer figures."""

import statistics

LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(pct, n):
    """Index of the nearest-rank ``pct`` percentile among ``n`` sorted samples."""
    return -(-int(pct * 10) * n // 1000) - 1


def tail(values, distinct=None):
    """(percentile, value): the highest percentile with ten samples beyond it.

    ``distinct`` is how many of the samples are different inputs; repeated
    passes over the same units add samples but not inputs, so the rung is
    chosen from ``distinct`` (default: all samples) and read off all of
    them. With fewer than 21 distinct samples the median stands in.
    """
    values = sorted(values)
    distinct = len(values) if distinct is None else distinct
    for pct in LADDER:
        if distinct - 1 - _rank(pct, distinct) >= 10:
            return pct, values[_rank(pct, len(values))]
    return 50.0, statistics.median(values)
