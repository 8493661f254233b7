"""Replica statistics of Rademacher fields against their exact laws.

An iid Rademacher field on N cells has the total S_n = 2 Bin(N, 1/2) - N.
A product Rademacher field has S_k = prod_q P^(q)_(k_q) with independent
simple random walks P^(q), so its max_k |S_k|, its S_n and its maximum
over the last slab are products of per-axis walk maxima and ends, whose
joint law comes from a dynamic program over (position, running
maximum).  Every histogram is drawn through harness._replica_stats at
fixed seeds, must stay inside the law's support, and must pass a
chi-square test at level 1e-6 (bins pooled until each expects at least
5 replicas).  On correct code a check fails for a fresh seed with
probability at most 1e-6, so the 20 checks below raise a false alarm
for at most 2e-5 of seed choices.
"""

import math
from collections import defaultdict

import numpy as np
import pytest
from scipy.special import chdtrc

from orthofield import iid_rademacher, product_rademacher
from orthofield.harness import _replica_stats

_ALPHA = 1e-6
_REPLICAS = 20000
_SEEDS = (11, 12)


def _walk_law(n: int) -> dict:
    """The joint law of (P_n, max_(1 <= k <= n) |P_k|) for a simple
    random walk P from 0, by a dynamic program over (position, running
    maximum)."""
    states = {(0, 0): 1.0}
    for _ in range(n):
        nxt = defaultdict(float)
        for (pos, peak), p in states.items():
            for step in (-1, 1):
                nxt[pos + step, max(peak, abs(pos + step))] += p / 2
        states = nxt
    return states


def _marginal(law: dict, f) -> dict:
    """The law of f(X) for X of the given law."""
    out = defaultdict(float)
    for x, p in law.items():
        out[f(x)] += p
    return dict(out)


def _product_law(laws) -> dict:
    """The law of the product of independent variables of the given laws."""
    out = {1: 1.0}
    for law in laws:
        nxt = defaultdict(float)
        for a, pa in out.items():
            for b, pb in law.items():
                nxt[a * b] += pa * pb
        out = nxt
    return dict(out)


def _chi_square_pvalue(values: np.ndarray, law: dict) -> float:
    """The chi-square p-value of the histogram of values against law,
    whose support must hold every value."""
    seen, counts = np.unique(values, return_counts=True)
    observed = dict(zip(seen.tolist(), counts.tolist()))
    assert set(observed) <= set(law), sorted(set(observed) - set(law))[:5]
    bins, obs, exp = [], 0, 0.0
    for v in sorted(law):
        obs += observed.get(v, 0)
        exp += values.size * law[v]
        if exp >= 5:
            bins.append([obs, exp])
            obs, exp = 0, 0.0
    bins[-1][0] += obs
    bins[-1][1] += exp
    stat = sum((o - e) ** 2 / e for o, e in bins)
    return float(chdtrc(len(bins) - 1, stat))


@pytest.mark.parametrize("shape", [(3, 5), (2, 3, 4)], ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("stats", [("total",), ("max", "total")], ids=["sign-count", "float"])
def test_iid_rademacher_total_follows_the_binomial_law(shape, stats):
    # the total alone is a sign count; with the maximum it is summed from
    # the +-1 values
    cells = math.prod(shape)
    law = {2 * j - cells: math.comb(cells, j) / 2.0**cells for j in range(cells + 1)}
    for seed in _SEEDS:
        spec = iid_rademacher(len(shape))
        values = _replica_stats(spec, shape, seed, _REPLICAS, 1, stats)[stats.index("total")]
        assert _chi_square_pvalue(values, law) > _ALPHA, seed


@pytest.mark.parametrize("shape", [(6, 6), (3, 4, 5)], ids=lambda s: "x".join(map(str, s)))
def test_product_rademacher_stats_follow_the_walk_laws(shape):
    walks = [_walk_law(n) for n in shape]
    peaks = [_marginal(w, lambda x: x[1]) for w in walks]
    ends = [_marginal(w, lambda x: x[0]) for w in walks]
    laws = {"max": _product_law(peaks), "total": _product_law(ends),
            "slab": _product_law(peaks[:-1] + [_marginal(ends[-1], abs)])}
    assert all(math.isclose(sum(law.values()), 1.0) for law in laws.values())
    for seed in _SEEDS:
        spec = product_rademacher(len(shape))
        got = _replica_stats(spec, shape, seed, _REPLICAS, 1, tuple(laws))
        for (name, law), values in zip(laws.items(), got):
            assert _chi_square_pvalue(values, law) > _ALPHA, (seed, name)
