"""Summary statistics, failure counting and artifact comparison for the benchmark."""

from __future__ import annotations

import hashlib
import statistics
from collections import Counter
from pathlib import Path

# Percentiles considered for the tail figure, highest first.
_TAIL_PERCENTILES = (99, 95, 90, 75, 50)


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def tail_percentile(values, min_beyond: int = 10):
    """Highest listed percentile with at least ``min_beyond`` samples above it.

    Returns ``(percentile, value)``, or ``None`` when there are too few
    samples for even the median to have ``min_beyond`` samples beyond it.
    """
    values = sorted(values)
    n = len(values)
    for p in _TAIL_PERCENTILES:
        if n * (100 - p) >= 100 * min_beyond:
            return p, float(statistics.quantiles(values, n=100)[p - 1])
    return None


class FailureTally:
    """Counts attempted operations and failures by exception class."""

    def __init__(self):
        self.attempted = 0
        self.by_class: Counter = Counter()

    def record(self, error: str | None) -> None:
        """Record one operation; ``error`` is the failure's class name, or None."""
        self.attempted += 1
        if error is not None:
            self.by_class[error] += 1

    @property
    def failed(self) -> int:
        return sum(self.by_class.values())

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def digest_dir(path: Path) -> dict:
    """sha256 of every file directly under ``path``, keyed by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(path).iterdir())
        if p.is_file()
    }


def digest_mismatches(reference: dict, digests: dict) -> list:
    """Names of artifacts missing on either side or whose digests differ."""
    names = sorted(set(reference) | set(digests))
    return [n for n in names if reference.get(n) != digests.get(n)]
