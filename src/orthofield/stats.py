"""Small shared statistics helpers."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from .errors import InvalidInputError

_Z = 1.96  # the normal quantile of a two-sided 95 percent interval


def wilson_interval(hits: int, trials: int) -> tuple:
    """Wilson score interval (95 percent) for a binomial proportion.

    Preferred over the normal interval because it stays informative at
    zero observed hits, which is the common case for tail events.
    """
    if trials <= 0:
        raise InvalidInputError("trials must be positive")
    if not 0 <= hits <= trials:
        raise InvalidInputError("hits %d outside [0, %d]" % (hits, trials))
    p = hits / trials
    z2 = _Z * _Z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = (_Z / denom) * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


def ks_normal(samples, sigma2: float) -> float:
    """Kolmogorov-Smirnov distance between the empirical law of the
    samples and the centered normal with variance sigma2."""
    samples = np.sort(samples)
    n = samples.size
    cdf = ndtr(samples / math.sqrt(sigma2))
    steps = np.arange(1, n + 1) / n
    return float(np.max(np.maximum(steps - cdf, cdf - (steps - 1.0 / n))))
