"""Rectangular-lattice core: multi-indices, prefix sums, box sums, and
the replica block driver.

Conventions used by the whole package live here.  A lattice of shape
n = (n_1, ..., n_d) holds one value per site i with 1 <= i_q <= n_q,
and the public accessors are 1-based to match the coordinatewise
partial order on indices (i <= j iff i_q <= j_q for every axis).
Internally everything is a plain 0-based numpy array.

The prefix array S has S[i] = sum over the box [1, i].  Cumulative
passes run axis by axis in axis order, accumulating in float64, so a
given field always produces the bit-identical prefix array, and
batch_total its far corner S_n without building it.

Every weighted sum over the 2^d corners of a box or cell of a padded
prefix array runs through _corner_sum: rect_sum and both interpolating
evaluators of sumprocess.  Its order is fixed (weights multiplied in
axis order from 1.0, corners added in mask order into a zeroed total),
so callers that pass the same weights get the same bits.

Every Monte Carlo replica loop runs through _map_blocks, with results
in block order whatever the threads.  Blocks are sized by cells:
_block_size turns a caller's cells per replica into replicas per block,
max(1, _BLOCK_CELLS // cells), so a block's largest float64 array
holds about _BLOCK_CELLS cells (1 MiB; with the fold's scratch array
it fits one core's 2 MiB L2 cache) whatever the lattice, and a lattice
larger than that runs one replica per block.  One memory budget bounds
a single replica: _BLOCK_BYTES caps the largest float64 array of one
replica, _block_size rejects a replica over it with TooLargeError, and
validate_shape puts every lattice through the same check, so one
lattice holds at most _BLOCK_BYTES // 8 = 2^21 cells; the harness
checks an experiment's per-replica results against it too.  The
budget, 16 MiB, is half of glibc's largest mmap threshold, which cli
sets to twice the budget, so block arrays are reused from the heap
instead of being mapped afresh for every block.

max_abs_prefix has no caller in the package; it stays because the exact
arithmetic criterion (01) of the acceptance suite checks it.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import InvalidInputError, TooLargeError

MultiIndex = tuple  # d-tuple of 1-based ints

_BLOCK_CELLS = 1 << 17  # float64 cells of the largest array of one block, one replica at least
_BLOCK_BYTES = 16 << 20  # bytes of the largest float64 array of one replica
_MAX_THREADS = 32  # worker threads one driver call starts at most


def _block_size(cells: int, what: str) -> int:
    """Replicas per block when the largest array of a block holds `cells`
    float64 values per replica: max(1, _BLOCK_CELLS // cells).  The plan
    depends on cells alone, so threading cannot regroup it.  Raises
    TooLargeError when one replica's array alone exceeds _BLOCK_BYTES;
    `what` names that array in the message."""
    if 8 * cells > _BLOCK_BYTES:
        count = "%d" % cells if cells < 1 << 64 else "about 2^%.0f" % math.log2(cells)
        raise TooLargeError("%s of %s cells exceeds the block budget of %d cells (%d MiB)"
                            % (what, count, _BLOCK_BYTES // 8, _BLOCK_BYTES >> 20))
    return max(1, _BLOCK_CELLS // cells)


def validate_shape(shape) -> tuple:
    try:
        shape = tuple(operator.index(n) for n in shape)
    except TypeError as exc:
        raise InvalidInputError("axis extents must be integers: %r" % (shape,)) from exc
    if len(shape) == 0:
        raise InvalidInputError("lattice needs at least one axis")
    if any(n < 1 for n in shape):
        raise InvalidInputError("every axis extent must be >= 1, got %r" % (shape,))
    _block_size(volume(shape), "lattice")
    return shape


def volume(shape) -> int:
    return int(math.prod(int(n) for n in shape))


def dominated(i: MultiIndex, j: MultiIndex) -> bool:
    """Coordinatewise order: i <= j on every axis."""
    if len(i) != len(j):
        raise InvalidInputError("indices of different dimension: %r vs %r" % (i, j))
    return all(a <= b for a, b in zip(i, j))


def validate_index(index: MultiIndex, shape) -> tuple:
    try:
        index = tuple(operator.index(k) for k in index)
    except TypeError as exc:
        raise InvalidInputError("lattice indices must be integers: %r" % (index,)) from exc
    if len(index) != len(shape):
        raise InvalidInputError(
            "index %r has dimension %d, lattice has %d" % (index, len(index), len(shape))
        )
    for k, n in zip(index, shape):
        if not 1 <= k <= n:
            raise InvalidInputError("index %r outside lattice of shape %r" % (index, shape))
    return index


def _as_values(field) -> np.ndarray:
    """A field as a float64 array of a valid lattice shape."""
    arr = np.asarray(field, dtype=np.float64)
    validate_shape(arr.shape)
    return arr


def batch_prefix(fields: np.ndarray) -> np.ndarray:
    """Prefix sums of a batch of fields, replica axis first, computed in
    place: fields[r, i] becomes the sum of fields[r] over the box [1, i]."""
    for axis in range(1, fields.ndim):
        np.cumsum(fields, axis=axis, out=fields)
    return fields


def batch_total(fields: np.ndarray) -> np.ndarray:
    """Sum of each field of a batch (replica axis first) over its whole
    box, equal bit for bit to the far corner of batch_prefix(fields):
    axes are summed in axis order one slab at a time, as cumsum adds,
    where np.sum would add pairwise along some axes.  An axis of extent 1
    copies nothing, and the result is a copy, so no block-sized array
    outlives the call."""
    for _ in range(fields.ndim - 2):
        acc = fields[:, 0] if fields.shape[1] == 1 else fields[:, 0] + fields[:, 1]
        for i in range(2, fields.shape[1]):
            acc += fields[:, i]
        fields = acc
    return np.cumsum(fields, axis=1)[:, -1].copy()


def prefix_sum(field) -> np.ndarray:
    """S[i] = sum of the field over the box [1, i], axis-by-axis cumsum."""
    return batch_prefix(_as_values(field).astype(np.float64, copy=True)[None])[0]


def padded_prefix(prefix: np.ndarray, lead: int = 0) -> np.ndarray:
    """Prefix array with an explicit zero face glued on at index 0 of
    every axis after the first `lead` (replica) axes, so box sums can
    index lo-1 without branching."""
    prefix = np.asarray(prefix, dtype=np.float64)
    out = np.zeros(prefix.shape[:lead] + tuple(n + 1 for n in prefix.shape[lead:]))
    out[(slice(None),) * lead + (slice(1, None),) * (prefix.ndim - lead)] = prefix
    return out


def _map_blocks(fn, blocks: range, threads: int) -> list:
    """Run fn(start, count) over the blocks whose starts `blocks` lists,
    range(first, stop, _block_size(cells, what)) for replicas
    [first, stop); each block but the last holds blocks.step replicas.
    Its callers: generators.replica_stats (every partial-sum statistic)
    and orthomartingale_check, and the harness's sheet, sheet-cov and
    holder-norm blocks.  Results come back in block order regardless of
    thread scheduling.  At most _MAX_THREADS threads run, and never more
    than there are blocks.  The plan travels in the three positional
    arguments because the tracer of perfbench/spans.py wraps _map_blocks
    as (fn, total, threads) and forwards exactly those three."""
    plan = [(start, min(blocks.step, blocks.stop - start)) for start in blocks]
    workers = min(threads, len(plan), _MAX_THREADS)
    if workers <= 1:
        return [fn(start, count) for start, count in plan]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, start, count) for start, count in plan]
        return [f.result() for f in futures]


def max_abs_prefix(field) -> float:
    """max over 1 <= i <= n of |S_i|."""
    return float(np.max(np.abs(prefix_sum(field))))


def _corner_sum(padded: np.ndarray, first, second) -> np.ndarray:
    """The 2^d-corner weighted sum over a block of padded prefix arrays
    (replica axis first).  first[q] and second[q] are the (index, weight)
    pairs of axis q where bit q of the mask is clear and set; indices are
    integer arrays (so each gather is a copy) that broadcast with the
    weights.  Each corner is scaled in place and freed before the next
    gather, so at most two result-sized arrays are alive."""
    shape = np.broadcast_shapes(*(np.shape(index) for index, _ in first))
    total = np.zeros((len(padded),) + shape)
    for mask in range(1 << len(first)):
        w = 1.0
        idx = []
        for q, pair in enumerate(zip(first, second)):
            index, weight = pair[mask >> q & 1]
            idx.append(index)
            w = w * weight
        corner = padded[(slice(None),) + tuple(idx)]
        corner *= w
        total += corner
        del corner  # the next gather must not meet this one alive
    return total


def rect_sum(prefix: np.ndarray, lo: MultiIndex, hi: MultiIndex) -> float:
    """Sum of the underlying field over the closed box [lo, hi] (1-based),
    recovered from the prefix array by inclusion-exclusion over the 2^d
    corners.  Only the corner entries are gathered and padded (S at
    lo_q - 1 and hi_q on each axis, the zero face standing in for
    lo_q = 1), so the cost does not grow with the prefix array."""
    prefix = np.asarray(prefix, dtype=np.float64)
    lo = validate_index(lo, prefix.shape)
    hi = validate_index(hi, prefix.shape)
    if not dominated(lo, hi):
        raise InvalidInputError("rect_sum needs lo <= hi, got %r, %r" % (lo, hi))
    rows = [[h - 1] if l == 1 else [l - 2, h - 1] for l, h in zip(lo, hi)]
    corners = padded_prefix(prefix[np.ix_(*rows)])
    # in the padded corner array S at hi_q is the last entry, S at lo_q - 1 the one before
    first = [(np.array(len(r)), 1.0) for r in rows]
    second = [(np.array(len(r) - 1), -1.0) for r in rows]
    return float(_corner_sum(corners[None], first, second)[0])
