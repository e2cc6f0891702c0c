"""Percentiles for the benchmark's reports."""

from __future__ import annotations


def percentile(values, q: float) -> float:
    """The q-th percentile (0 < q < 100) by linear interpolation between
    closest ranks, as numpy's default; a single value is its own
    percentile."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly above the q-th percentile's
    rank; the benchmark reports a percentile only with at least ten."""
    return n - 1 - int((n - 1) * q / 100.0)
