"""Rectangular-lattice core: shapes, prefix sums, corner sums, and the
replica block driver.

Conventions used by the whole package live here.  A lattice of shape
n = (n_1, ..., n_d) holds one value per site i with 1 <= i_q <= n_q;
internally everything is a plain 0-based numpy array, replica axis
first.

The prefix array S has S[i] = sum over the box [1, i].  batch_prefix
is the one prefix routine: its cumulative passes run axis by axis in
axis order, accumulating in float64, so a given field always produces
the bit-identical prefix array, and batch_total its far corner S_n
without building it, in one np.add.reduce per leading lattice axis,
which adds that axis's slabs in index order as cumsum does.

Every weighted sum over the corners of a box or cell of a padded
prefix array runs through _corner_sum: sumprocess.eval_W_grid, and in
the tests the single-field box sums and evaluator of W it is checked
against.  An axis has two corners, or one where its nodes are lattice
nodes.  The order is fixed (weights multiplied in axis order from 1.0,
corners added in mask order as into a zeroed total), so callers that
pass the same weights get the same bits.

Every Monte Carlo replica loop runs through _map_blocks, with results
in block order whatever the threads.  Blocks are sized by cells:
_block_size turns a caller's cells per replica into replicas per block,
max(1, _BLOCK_CELLS // cells), so a block's largest float64 array
holds about _BLOCK_CELLS cells (1 MiB; with the fold's scratch array
it fits one core's 2 MiB L2 cache) whatever the lattice, and a lattice
larger than that runs one replica per block.  A loop whose blocks share
work across the replicas may group them into spans of whole blocks
(_span_size): generators.replica_stats hashes the words of every axis
but the last once per span, at most _BLOCK_CELLS // 8 words (an eighth
of a block) unless one block's own take more, and leaves at least
min(blocks, 8) spans, so two threads still share the work of a short
loop.  One memory budget bounds
a single replica: _BLOCK_BYTES caps the largest float64 array of one
replica, _block_size rejects a replica over it with TooLargeError, and
validate_shape puts every lattice through the same check, so one
lattice holds at most _BLOCK_BYTES // 8 = 2^21 cells; the harness
checks an experiment's per-replica results against it too.  The
budget, 16 MiB, is half of glibc's largest mmap threshold, which cli
sets to twice the budget, so block arrays are reused from the heap
instead of being mapped afresh for every block.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import InvalidInputError, TooLargeError

_BLOCK_CELLS = 1 << 17  # float64 cells of the largest array of one block, one replica at least
_BLOCK_BYTES = 16 << 20  # bytes of the largest float64 array of one replica
_MAX_THREADS = 32  # worker threads one driver call starts at most
_MIN_SPANS = 8  # spans a loop of that many blocks or more is cut into at least


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


def _span_size(block: int, rows: int, count: int) -> int:
    """Replicas per span of a loop over count replicas in blocks of
    `block` replicas whose row words (the hash of every lattice axis but
    the last) number `rows` per replica: whole blocks, as many as keep a
    span's row words within _BLOCK_CELLS // 8 while leaving at least
    min(blocks, _MIN_SPANS) spans, and one block at least, whose rows
    (its cells over the last axis's extent) may exceed that bound.  Like
    _block_size, the plan depends on cells and replicas alone, never on
    the threads."""
    blocks = -(-count // block)
    return block * max(1, min(_BLOCK_CELLS // 8 // (block * rows), blocks // _MIN_SPANS))


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


def batch_prefix(fields: np.ndarray) -> np.ndarray:
    """Prefix sums of a batch of fields, replica axis first, computed in
    place: fields[r, i] becomes the sum of fields[r] over the box [1, i]."""
    for axis in range(1, fields.ndim):
        np.cumsum(fields, axis=axis, out=fields)
    return fields


def batch_total(fields: np.ndarray) -> np.ndarray:
    """Sum of each field of a batch (replica axis first) over its whole
    box, equal bit for bit to the far corner of batch_prefix(fields):
    axes are summed in axis order, each in index order as cumsum adds,
    where np.sum would add pairwise along some axes.  Each leading
    lattice axis is summed by one np.add.reduce over it, which runs
    along the axes after it and so adds its slabs one after another;
    the last axis by cumsum.  Lattice axes of extent 1 are dropped
    first, as summing over one changes nothing; the result is a copy, so
    no block-sized array outlives the call."""
    fields = fields.reshape(len(fields), *([n for n in fields.shape[1:] if n > 1] or [1]))
    while fields.ndim > 2:
        fields = np.add.reduce(fields, axis=1)
    return np.cumsum(fields, axis=1)[:, -1].copy()


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
    [first, stop), or spans of blocks (_span_size); each but the last
    holds blocks.step replicas.  Its callers: generators.replica_stats
    (every partial-sum statistic: a block per task for product fields, a
    span for the others) and the harness's sheet-cov and holder-norm
    blocks.  Results come back in block order regardless of
    thread scheduling.  At most _MAX_THREADS threads run, and never more
    than there are blocks.  The plan travels in the three positional
    arguments because the tracer of perfbench/spans.py wraps _map_blocks
    as (fn, total, threads) and forwards exactly those three.  threads
    must be an integer of at least 1, whoever calls."""
    if isinstance(threads, bool) or not isinstance(threads, numbers.Integral) or threads < 1:
        raise InvalidInputError("threads must be an integer >= 1, not %r" % (threads,))
    plan = [(start, min(blocks.step, blocks.stop - start)) for start in blocks]
    workers = min(threads, len(plan), _MAX_THREADS)
    if workers <= 1:
        return [fn(start, count) for start, count in plan]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, start, count) for start, count in plan]
        return [f.result() for f in futures]


def _corner_sum(padded: np.ndarray, corners) -> np.ndarray:
    """The weighted sum over the corners of a box or cell of a block of
    padded prefix arrays (replica axis first).  corners[q] holds the
    (index, weight) pairs of axis q: two, or one for an axis read
    straight off the lattice (weight 1.0).  Indices are
    integer arrays (so each gather is a copy, never a view of padded)
    that broadcast with the weights.  Weights multiply in axis order from
    1.0, and corners add in mask order (bit q set takes axis q's second
    pair) as into a zeroed total.  Each corner is scaled in place and
    freed before the next gather, so at most two result-sized arrays are
    alive, and one when no axis has two pairs."""
    total = None
    for choice in itertools.product(*corners[::-1]):  # axis 0 varies fastest
        w = 1.0
        for _, weight in reversed(choice):
            w = w * weight
        corner = padded[(slice(None),) + tuple(index for index, _ in reversed(choice))]
        corner *= w
        if total is None:
            total = corner
            total += 0.0  # as if added to zeros: -0.0 becomes +0.0
        else:
            total += corner
        del corner  # the next gather must not meet this one alive
    return total
