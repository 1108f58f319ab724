"""Metric math shared by the benchmark runner and its tests.

- percentile(): a percentile is reported only when at least MIN_BEYOND
  samples lie beyond it, so a p99 needs 1000 samples.
- windowed_percentile(): a tail percentile over a long ordered series is
  the median of the percentile over consecutive windows, each still
  holding MIN_BEYOND samples beyond it, so one burst of host stalls moves
  one window, not the figure.
- Ratio: a ratio always travels with its base (the denominator).
- valid_name(): metric and workload names are [A-Za-z0-9_.-]+, start with
  a letter or digit, and are at most 64 characters long.
"""

import math
import re

MIN_BEYOND = 10

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_name(name):
    return isinstance(name, str) and _NAME.fullmatch(name) is not None


def samples_beyond(count, p):
    """Samples strictly above the p-th percentile of `count` samples."""
    return count - math.ceil(count * p / 100.0)


def percentile_allowed(count, p):
    return count > 0 and samples_beyond(count, p) >= MIN_BEYOND


def percentile(samples, p):
    """The p-th percentile (0-100, linear interpolation between order
    statistics), or None when fewer than MIN_BEYOND samples lie beyond it."""
    if not percentile_allowed(len(samples), p):
        return None
    xs = sorted(samples)
    rank = (len(xs) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def windowed_percentile(samples, p, max_windows=4):
    """Median over up to `max_windows` consecutive equal windows of
    `samples` (in time order) of each window's p-th percentile; as many
    windows as still satisfy the percentile rule, at least one."""
    n = len(samples)
    windows = max_windows
    while windows > 1 and not percentile_allowed(n // windows, p):
        windows -= 1
    if windows == 1:
        return percentile(samples, p)
    size = n // windows
    values = sorted(percentile(samples[i * size:(i + 1) * size], p) for i in range(windows))
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


class Ratio:
    """num / den that remembers its base; value is None when den is 0."""

    def __init__(self, num, den):
        self.num = num
        self.den = den

    @property
    def value(self):
        return self.num / self.den if self.den else None

    def as_dict(self):
        return {"value": self.value, "num": self.num, "of": self.den}
