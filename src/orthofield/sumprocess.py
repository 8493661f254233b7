"""Normalized partial-sum process of a lattice field on [0, 1]^d.

W(t) = |n|^(-1/2) * sum_i vol(R_i intersect prod_q [0, n_q t_q]) X_i,
where R_i is the unit cell anchored at site i.  The overlap volume
factorizes across axes as prod_q clamp(n_q t_q - (i_q - 1), 0, 1), so
W restricted to a grid cell is multiaffine and matches S_k / sqrt(|n|)
at grid points t = (k_q / n_q).

eval_W_grid evaluates W for a whole block of padded prefix arrays on
the level-J dyadic grid at once, which is what the holder-norm
experiment measures.  It locates each node's cell with _cell and sums
the cell's corners through lattice._corner_sum.  On an axis of n cells
that 2^J divides every level-J node is a lattice node, so eval_W_grid
reads that axis straight off the prefix and interpolates only the
others: 2^(axes not aligned) corners, not 2^d.  The corners it drops
have weight 0.0 and would add only signed zeros, which change no sum
that starts from a zeroed total, so its values are those of the full
2^d-corner sum bit for bit.  The single-field evaluators of W that the
tests check it against live in tests/single_field.py.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import check_number
from .lattice import _block_size, _corner_sum, volume

# the finest level J: the node indices 0..2^J stay within int64
_MAX_J = 62


def _cell(t: np.ndarray, n: int) -> tuple:
    """The corners of the grid cell holding each n t on one axis of n
    cells: the (index, weight) pairs (base, 1 - frac) and (base + 1,
    frac), base = clamp(floor(n t), 0, n - 1) and frac = n t - base."""
    x = t * float(n)
    base = np.maximum(np.minimum(np.floor(x), n - 1.0), 0.0)
    frac = x - base
    base = base.astype(np.int64)
    return (base, 1.0 - frac), (base + 1, frac)


def eval_W_grid(padded: np.ndarray, J: int) -> np.ndarray:
    """W of each replica in a block of padded prefix arrays (replica axis
    first) on the level-J dyadic grid, shape (count, 2^J + 1, ...).  On
    an axis of n cells that 2^J divides, node k / 2^J is lattice node
    k n / 2^J, read straight off the prefix; every other axis's nodes go
    through _cell.  Each axis is shaped as
    np.ix_ would shape it, and all go through the one corner sum, over
    2^(axes not aligned) corners.  The grid is a new array, scaled in
    place; padded is left as it was.  J is an integer in 0.._MAX_J,
    checked before the grid's (2^J + 1)^d nodes are counted, and one
    replica's grid must fit the block budget (lattice._block_size)."""
    J = int(check_number("level J", J, lo=0, hi=_MAX_J, integer=True))
    dims = padded.shape[1:]
    _block_size(((1 << J) + 1) ** len(dims), "level grid")
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
