"""Normalized partial-sum process of a lattice field on [0, 1]^d.

W(t) = |n|^(-1/2) * sum_i vol(R_i intersect prod_q [0, n_q t_q]) X_i,
where R_i is the unit cell anchored at site i.  The overlap volume
factorizes across axes as prod_q clamp(n_q t_q - (i_q - 1), 0, 1), so
W restricted to a grid cell is multiaffine and matches S_k / sqrt(|n|)
at grid points t = (k_q / n_q).

Two evaluation routes are provided on purpose: eval_W contracts the
raw field against per-axis weights over the support box (the defining
sum, O(prod ceil(n_q t_q)) cells), while eval_W_batch interpolates the
cached prefix array (O(2^d) per point).  They agree up to rounding and
are cross-checked in the test suite.  eval_W_grid interpolates a whole
block of prefix arrays on the level-J dyadic grid at once, which is
what the holder-norm experiment measures.  Both interpolating
evaluators locate each point's cell with one helper (_cell) and sum its
corners through lattice._corner_sum, so they agree bit for bit.  On an
axis of n cells that 2^J divides every level-J node is a lattice node,
so eval_W_grid reads that axis straight off the prefix and interpolates
only the others: 2^(axes not aligned) corners, not 2^d.  The corners it
drops have weight 0.0 and would add only signed zeros, which change no
sum that starts from a zeroed total, so its values are those of the
full 2^d-corner sum bit for bit.

The remaining helpers have no caller in the package and stay for these
reasons: grid_value reads S_k / sqrt(|n|) exactly, which the exact
arithmetic criterion (01) of the acceptance suite checks; delta_q is
the increment of W along one axis, the README's "increments"; and
lemma11_check is the slab inequality checker of criterion 06.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidRangeError
from .lattice import (
    _as_values,
    _corner_sum,
    padded_prefix,
    prefix_sum,
    volume,
)


@dataclass(frozen=True)
class PartialSumProcess:
    field: np.ndarray
    padded: np.ndarray
    sqrt_vol: float

    @property
    def shape(self) -> tuple:
        return self.field.shape

    @property
    def d(self) -> int:
        return self.field.ndim


def from_field(field) -> PartialSumProcess:
    values = _as_values(field)
    return PartialSumProcess(
        field=values,
        padded=padded_prefix(prefix_sum(values)),
        sqrt_vol=math.sqrt(volume(values.shape)),
    )


def _validate_point(t, d) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    if t.shape[0] != d:
        raise InvalidInputError("point %r has wrong dimension, expected %d" % (t, d))
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise InvalidRangeError("point %r outside [0, 1]^%d" % (t, d))
    return t


def eval_W(p: PartialSumProcess, t) -> float:
    """W(t) by direct contraction over the support box."""
    t = _validate_point(t, p.d)
    weights = []
    for n_q, t_q in zip(p.shape, t):
        cells = min(n_q, int(math.ceil(n_q * t_q)))
        if cells <= 0:
            return 0.0
        weights.append(np.clip(n_q * t_q - np.arange(cells), 0.0, 1.0))
    acc = p.field[tuple(slice(0, len(w)) for w in weights)]
    for w in weights:
        acc = np.tensordot(w, acc, axes=(0, 0))
    return float(acc) / p.sqrt_vol


def _cell(t: np.ndarray, n: int) -> tuple:
    """The corners of the grid cell holding each n t on one axis of n
    cells: the (index, weight) pairs (base, 1 - frac) and (base + 1,
    frac), base = clamp(floor(n t), 0, n - 1) and frac = n t - base."""
    x = t * float(n)
    base = np.maximum(np.minimum(np.floor(x), n - 1.0), 0.0)
    frac = x - base
    base = base.astype(np.int64)
    return (base, 1.0 - frac), (base + 1, frac)


def eval_W_batch(p: PartialSumProcess, points) -> np.ndarray:
    """W at many points via multiaffine interpolation of the prefix array."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != p.d:
        raise InvalidInputError("points must have shape (m, %d)" % p.d)
    if np.any(pts < 0.0) or np.any(pts > 1.0):
        raise InvalidRangeError("points outside [0, 1]^%d" % p.d)
    corners = [_cell(pts[:, q], n) for q, n in enumerate(p.shape)]
    return _corner_sum(p.padded[None], corners)[0] / p.sqrt_vol


def eval_W_grid(padded: np.ndarray, J: int) -> np.ndarray:
    """W of each replica in a block of padded prefix arrays (replica axis
    first) on the level-J dyadic grid, shape (count, 2^J + 1, ...).  On
    an axis of n cells that 2^J divides, node k / 2^J is lattice node
    k n / 2^J, read straight off the prefix; every other axis's nodes go
    through the cell location of eval_W_batch.  Each axis is shaped as
    np.ix_ would shape it, and all go through the one corner sum, over
    2^(axes not aligned) corners.  The grid is a new array, scaled in
    place; padded is left as it was."""
    dims = padded.shape[1:]
    nodes = np.arange((1 << J) + 1)
    corners = []
    for q, m in enumerate(dims):
        along = (-1,) + (1,) * (len(dims) - 1 - q)
        if (m - 1) % (1 << J):
            corners.append(_cell((nodes / (1 << J)).reshape(along), m - 1))
        else:
            corners.append(((nodes.reshape(along) * ((m - 1) >> J), 1.0),))
    total = _corner_sum(padded, corners)
    total /= math.sqrt(volume(m - 1 for m in dims))
    return total


def grid_value(p: PartialSumProcess, k) -> float:
    """S_k / sqrt(|n|) at the 1-based grid index k (k_q = 0 allowed)."""
    k = tuple(int(v) for v in k)
    if len(k) != p.d or any(not 0 <= v <= n for v, n in zip(k, p.shape)):
        raise InvalidInputError("grid index %r outside lattice %r" % (k, p.shape))
    return float(p.padded[k]) / p.sqrt_vol


def delta_q(p: PartialSumProcess, q: int, t: float, t_prime: float, s) -> float:
    """|W(..., t', ...) - W(..., t, ...)| moving only coordinate q, the
    other coordinates pinned at s (a (d-1)-vector)."""
    if not 1 <= q <= p.d:
        raise InvalidInputError("axis %d outside 1..%d" % (q, p.d))
    s = np.asarray(s, dtype=np.float64).reshape(-1)
    if s.shape[0] != p.d - 1:
        raise InvalidInputError("s must have dimension %d" % (p.d - 1))
    a = np.empty(p.d)
    b = np.empty(p.d)
    rest = [i for i in range(p.d) if i != q - 1]
    a[rest] = s
    b[rest] = s
    a[q - 1] = t
    b[q - 1] = t_prime
    pts = np.vstack([a, b])
    vals = eval_W_batch(p, pts)
    return float(abs(vals[1] - vals[0]))


def _snap_floor(x: float) -> int:
    """floor with a snap for grid values reached through float division."""
    r = round(x)
    if abs(x - r) < 1e-9:
        return int(r)
    return int(math.floor(x))


def _node_grid(shape_rest) -> np.ndarray:
    """All grid nodes (k_l / n_l) over the listed axes, shape (m, len)."""
    axes = [np.arange(n + 1, dtype=np.float64) / n for n in shape_rest]
    mesh = np.meshgrid(*axes, indexing="ij") if axes else []
    if not mesh:
        return np.zeros((1, 0))
    return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass(frozen=True)
class Lemma11Result:
    lhs: float
    rhs: float
    block_term: float
    slice_term: float
    indicator: int
    ramp: float
    holds: bool


def lemma11_check(p: PartialSumProcess, t: float, t_prime: float) -> Lemma11Result:
    """Deterministic increment bound along the first coordinate.

    lhs = sqrt(|n|) sup_s |W(t', s) - W(t, s)| (the sup over s is exact
    on the node grid because the increment is multiaffine in s), and

    rhs = 3^d [ 1{t' - t >= 1/n_1} max_k' |block sum| +
                min(1, n_1 (t' - t)) max_{i_1} max_k' |slice prefix| ]

    where the block runs over i_1 in ([n_1 t]+1, ..., [n_1 t']) and the
    slice prefix is the per-hyperplane partial sum over the other axes.
    """
    if not 0.0 <= t < t_prime <= 1.0:
        raise InvalidRangeError("need 0 <= t < t' <= 1, got %r, %r" % (t, t_prime))
    n1 = p.shape[0]
    s_grid = _node_grid(p.shape[1:])
    pts_lo = np.column_stack([np.full(len(s_grid), t), s_grid])
    pts_hi = np.column_stack([np.full(len(s_grid), t_prime), s_grid])
    lhs = p.sqrt_vol * float(
        np.max(np.abs(eval_W_batch(p, pts_hi) - eval_W_batch(p, pts_lo)))
    )

    three_d = 3.0**p.d
    a = _snap_floor(n1 * t)
    b = _snap_floor(n1 * t_prime)
    gap = n1 * (t_prime - t)
    indicator = 1 if gap >= 1.0 - 1e-9 else 0

    block_term = 0.0
    if indicator and b > a:
        block = p.padded[b] - p.padded[a]
        block_term = float(np.max(np.abs(block)))

    slices = np.abs(np.diff(p.padded, axis=0))
    slice_term = float(np.max(slices))

    ramp = min(1.0, gap)
    rhs = three_d * (indicator * block_term + ramp * slice_term)
    holds = lhs <= rhs + 1e-9 * max(1.0, abs(rhs))
    return Lemma11Result(lhs, rhs, three_d * indicator * block_term,
                         three_d * ramp * slice_term, indicator, ramp, holds)
