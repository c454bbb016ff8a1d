"""Sampled metric blocks: the symmetry check."""

import numpy as np
import pytest

from hitchinlab.metrics import MetricComponents

INF, NAN = np.inf, np.nan


def _allclose_verdict(g):
    """Oracle: the whole-array ``np.allclose`` symmetry test, the same atol."""
    atol = 1e-12 * max(1.0, float(np.max(np.abs(g))))
    return np.allclose(g, np.swapaxes(g, -1, -2), rtol=0, atol=atol)


# numpy warns about the infinite atol and inf - inf; only the verdict matters here
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "block, symmetric",
    [
        ([[1.0, 2.0], [2.0, 3.0]], True),
        ([[1.0, 2.0], [2.0 + 1e-13, 3.0]], True),  # inside atol
        ([[1.0, 2.0], [2.0 + 1e-11, 3.0]], False),
        ([[NAN, 0.0], [0.0, 1.0]], False),
        ([[1.0, NAN], [NAN, 1.0]], False),
        ([[1.0, INF], [INF, 1.0]], True),  # equal infinities on both sides
        ([[1.0, -INF], [-INF, 1.0]], True),
        ([[INF, 0.0], [0.0, 1.0]], True),
        ([[1.0, INF], [-INF, 1.0]], False),
        ([[1.0, INF], [5.0, 1.0]], False),
        ([[1.0, -INF], [5.0, 1.0]], False),
        ([[INF, 0.0], [1.0, 1.0]], True),  # an infinity makes atol infinite
        ([[INF, NAN], [NAN, 1.0]], False),
    ],
)
def test_symmetry_verdict_matches_allclose(block, symmetric):
    g = np.stack([np.eye(2), np.array(block)])  # one clean node, one tested
    assert _allclose_verdict(g) == symmetric
    if symmetric:
        MetricComponents(("r", "theta"), g)
    else:
        with pytest.raises(ValueError, match="symmetric"):
            MetricComponents(("r", "theta"), g)


def test_shape_guard():
    with pytest.raises(ValueError, match="2x2"):
        MetricComponents(("r", "theta"), np.zeros((3, 3, 3)))
