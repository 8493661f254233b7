"""Rectangular-lattice core: shapes, prefix sums, corner sums, and the
replica block driver.

Conventions used by the whole package live here.  A lattice of shape
n = (n_1, ..., n_d) holds one value per site i with 1 <= i_q <= n_q;
internally everything is a plain 0-based numpy array, replica axis
first.

The prefix array S has S[i] = sum over the box [1, i].  batch_prefix
is the one prefix routine: its cumulative passes run axis by axis in
axis order (skipping axes of extent 1), accumulating in float64, so
a given field always produces the bit-identical prefix array, and
batch_total its far corner S_n without building it, in one
np.add.reduce per leading lattice axis, which adds that axis's slabs in
index order as cumsum does.

Every weighted sum over the corners of a box or cell of a padded
prefix array runs through _corner_sum: sumprocess.eval_W_grid, and in
the tests the single-field box sums and evaluator of W it is checked
against.  An axis has two corners, or one where its nodes are lattice
nodes.  The order is fixed (weights multiplied in axis order from 1.0,
corners added in mask order as into a zeroed total), so callers that
pass the same weights get the same bits.

Every Monte Carlo replica loop runs through _map_blocks, with results
in block order whatever the threads.  It runs the blocks on the calling
thread and on helpers of one process-wide pool, started as calls need
them (at most _MAX_THREADS - 1) and kept, idle, until the process exits;
a forked child starts its own.  Blocks are sized by cells:
_block_size turns a caller's cells per replica into replicas per block,
max(1, _BLOCK_CELLS // cells), so a block's largest float64 array
holds about _BLOCK_CELLS cells (1 MiB) whatever the lattice, and a
lattice larger than that runs one replica per block.  A block that
holds two such arrays at once (a W block's padded prefix beside its
lattice or level grid, a product field's streams beside its
per-replica vectors) gives _block_size the cells of both, so the two
together hold about _BLOCK_CELLS.  Every in-place
step of a block (the hash's mix, the value maps, a moving average's
sum, a lone total's running sum, an interpolated grid's corners) runs
over slices of at most _SCRATCH_CELLS = _BLOCK_CELLS // 4 cells
(_slices, _row_slices) with a scratch of one slice, so a block holds
one block array and a quarter of one at most on the float path.  A
loop whose blocks share
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
import os
import queue
import threading
from concurrent.futures import Future

import numpy as np

from .errors import InvalidInputError, TooLargeError, quote

_BLOCK_CELLS = 1 << 17  # float64 cells of the largest array of one block, one replica at least
_SCRATCH_CELLS = _BLOCK_CELLS // 4  # cells of a block's scratch array at most
_BLOCK_BYTES = 16 << 20  # bytes of the largest float64 array of one replica
_MAX_THREADS = 32  # threads one driver call runs blocks on at most, its caller's among them
_MIN_SPANS = 8  # spans a loop of that many blocks or more is cut into at least


def _block_size(cells, what: str) -> int:
    """Replicas per block when the largest array of a block holds `cells`
    float64 values per replica, or, for a tuple of cells, when a block
    holds an array of each at once: max(1, _BLOCK_CELLS // their sum).
    The plan depends on cells alone, so threading cannot regroup it.
    Raises TooLargeError when one replica's array alone exceeds
    _BLOCK_BYTES; `what` names that array in the message."""
    arrays = cells if isinstance(cells, tuple) else (cells,)
    largest = max(arrays)
    if 8 * largest > _BLOCK_BYTES:
        count = "%d" % largest if largest < 1 << 64 else "about 2^%.0f" % math.log2(largest)
        raise TooLargeError("%s of %s cells exceeds the block budget of %d cells (%d MiB)"
                            % (what, count, _BLOCK_BYTES // 8, _BLOCK_BYTES >> 20))
    return max(1, _BLOCK_CELLS // sum(arrays))


def _row_slices(x: np.ndarray, cells: int = 0) -> list:
    """Views of x along its leading axis that cover it in order, each of
    as many rows as hold at most _SCRATCH_CELLS cells, or of one row
    where a row holds more: the slices in which a block's row-wise
    steps run with a scratch of one slice.  The cells of a row are x's
    own, or `cells` where a step's scratch holds that many per row."""
    rows = max(1, _SCRATCH_CELLS // max(1, cells or x[:1].size))
    return [x[i:i + rows] for i in range(0, len(x), rows)]


def _slices(x: np.ndarray) -> list:
    """Views of x that cover it once, each of at most _SCRATCH_CELLS
    cells: x itself when it is that small, else its row slices, a row
    that holds more being cut into its own.  The in-place maps of a
    block (the hash's mix, the value maps) run over them with a scratch
    of one slice, so a view that a caller hands over, contiguous or
    not, is written in place like any other array."""
    if x.size <= _SCRATCH_CELLS:
        return [x]
    return [part for rows in _row_slices(x)
            for part in (_slices(rows[0]) if rows.size > _SCRATCH_CELLS else [rows])]


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
        raise InvalidInputError("axis extents must be integers: %s" % quote(shape)) from exc
    if len(shape) == 0:
        raise InvalidInputError("lattice needs at least one axis")
    if any(n < 1 for n in shape):
        raise InvalidInputError("every axis extent must be >= 1, got %s" % quote(shape))
    _block_size(volume(shape), "lattice")
    return shape


def volume(shape) -> int:
    return int(math.prod(int(n) for n in shape))


def batch_prefix(fields: np.ndarray) -> np.ndarray:
    """Prefix sums of a batch of fields, replica axis first, computed in
    place: fields[r, i] becomes the sum of fields[r] over the box [1, i].
    Lattice axes of extent 1 are skipped, as in batch_total: a cumulative
    sum over one changes nothing."""
    for axis in range(1, fields.ndim):
        if fields.shape[axis] > 1:
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
    first, as summing over one changes nothing.  The sums run over row
    slices of the batch (_row_slices) sized by their first new array,
    the first sum or the running sum, so beside the batch they hold a
    quarter block at most, and the result is a copy, so no block-sized
    array outlives the call."""
    fields = fields.reshape(len(fields), *([n for n in fields.shape[1:] if n > 1] or [1]))
    first = fields[:1].size // (fields.shape[1] if fields.ndim > 2 else 1)
    return np.concatenate([_slice_total(rows) for rows in _row_slices(fields, first)])


def _slice_total(fields: np.ndarray) -> np.ndarray:
    """batch_total of a row slice whose lattice axes all exceed 1; the
    running sum of the last axis is taken in place on a sum of the axes
    before it, never on the fields given."""
    if fields.ndim == 2:
        return np.cumsum(fields, axis=1)[:, -1].copy()
    while fields.ndim > 2:
        fields = np.add.reduce(fields, axis=1)
    return np.cumsum(fields, axis=1, out=fields)[:, -1].copy()


def padded_prefix(prefix: np.ndarray, lead: int = 0) -> np.ndarray:
    """Prefix array with an explicit zero face glued on at index 0 of
    every axis after the first `lead` (replica) axes, so box sums can
    index lo-1 without branching."""
    prefix = np.asarray(prefix, dtype=np.float64)
    out = np.zeros(prefix.shape[:lead] + tuple(n + 1 for n in prefix.shape[lead:]))
    out[(slice(None),) * lead + (slice(1, None),) * (prefix.ndim - lead)] = prefix
    return out


def _helper(tasks) -> None:
    """A helper thread of _map_blocks: runs every drain handed to it
    whose future was not cancelled, until the process exits."""
    while True:
        future, drain = tasks.get()
        if future.set_running_or_notify_cancel():
            drain()
            future.set_result(None)
        del future, drain  # an idle helper holds nothing of the last call


def _forget_helpers() -> None:
    """The helpers of _map_blocks, none at first, and again in a forked
    child, which has none of its parent's threads."""
    global _tasks, _helpers, _helpers_lock
    _tasks, _helpers, _helpers_lock = queue.SimpleQueue(), [], threading.Lock()


_forget_helpers()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def _hand_to_helpers(drain, count: int) -> list:
    """count futures of drain, queued for the helpers, once at least
    count helpers exist (at most _MAX_THREADS - 1 are ever started)."""
    with _helpers_lock:
        while len(_helpers) < count:
            helper = threading.Thread(target=_helper, args=(_tasks,), daemon=True,
                                      name="orthofield-block-%d" % (len(_helpers) + 1))
            helper.start()
            _helpers.append(helper)
        tasks = _tasks
    futures = [Future() for _ in range(count)]
    for future in futures:
        tasks.put((future, drain))
    return futures


def _map_blocks(fn, blocks: range, threads: int) -> list:
    """Run fn(start, count) over the blocks whose starts `blocks` lists,
    range(first, stop, _block_size(cells, what)) for replicas
    [first, stop), or spans of blocks (_span_size); each but the last
    holds blocks.step replicas.  Its callers: generators.replica_stats
    (every partial-sum statistic: a block per task for product fields, a
    span for the others) and harness._w_blocks (the W blocks of sheet-cov
    and holder-norm).  Results come back in block order regardless of
    thread scheduling.  The plan travels in the three positional
    arguments because the tracer of perfbench/spans.py wraps _map_blocks
    as (fn, total, threads) and forwards exactly those three.  threads
    must be an integer of at least 1, whoever calls.

    w = min(threads, blocks, _MAX_THREADS) workers drain the blocks: the
    calling thread and w - 1 helpers of one process-wide pool, so a
    1-thread call drains on the calling thread alone.  Each
    drain claims the next block from a shared counter and stores its
    result by index.  The pool starts a helper only when a call needs
    more than it has, so it never holds more than _MAX_THREADS - 1, and
    its idle helpers wait until the process exits; a forked child
    starts its own.  A block that raises stops further claims, and the
    call raises its exception once the helpers that started have
    finished.  A helper's drain that has not started when the caller
    runs out of blocks is cancelled, so a busy pool (a nested or a
    concurrent call) slows a call down but cannot hang it."""
    if isinstance(threads, bool) or not isinstance(threads, numbers.Integral) or threads < 1:
        raise InvalidInputError("threads must be an integer >= 1, not %r" % (threads,))
    plan = [(start, min(blocks.step, blocks.stop - start)) for start in blocks]
    workers = min(threads, len(plan), _MAX_THREADS)
    results = [None] * len(plan)
    failed = []
    claims, lock = iter(range(len(plan))), threading.Lock()

    def drain():
        while not failed:
            with lock:
                i = next(claims, None)
            if i is None:
                return
            try:
                results[i] = fn(*plan[i])
            except BaseException as exc:  # raised by the caller, below
                failed.append(exc)

    helpers = _hand_to_helpers(drain, workers - 1)
    drain()
    for future in helpers:
        if not future.cancel():
            future.result()
    if failed:
        raise failed[0]
    return results


def _corner_sum(padded: np.ndarray, corners) -> np.ndarray:
    """The weighted sum over the corners of a box or cell of a block of
    padded prefix arrays (replica axis first).  corners[q] holds the
    (index, weight) pairs of axis q: two, or one for an axis read
    straight off the lattice (weight 1.0).  Indices are
    integer arrays (so each gather is a copy, never a view of padded)
    that broadcast with the weights.  Weights multiply in axis order from
    1.0, and corners add in mask order (bit q set takes axis q's second
    pair) as into a zeroed total.  With one corner (every axis read
    straight off the lattice) its gather, scaled in place, is the total,
    laid out as numpy lays out a gather of padded: replica axis
    innermost, which the per-replica reductions of its callers run along
    fastest.  Otherwise the total is summed over its row slices
    (_row_slices), each corner of a slice gathered, scaled in place and
    freed before the next, so beside the total at most one slice's
    corner is alive."""
    choices = list(itertools.product(*corners[::-1]))  # axis 0 varies fastest
    if len(choices) == 1:  # the one corner's gather is the total
        total = _corner(padded, slice(None), choices[0])
        total += 0.0  # as if added to zeros: -0.0 becomes +0.0
        return total
    cell = np.broadcast_shapes(*(np.shape(index) for choice in choices for index, _ in choice))
    total = np.empty((len(padded),) + cell)
    lo = 0
    for part in _row_slices(total):
        rows = slice(lo, lo + len(part))
        lo = rows.stop
        np.add(_corner(padded, rows, choices[0]), 0.0, out=part)  # as into zeros
        for choice in choices[1:]:  # each corner is freed before the next gather
            part += _corner(padded, rows, choice)
    return total


def _corner(padded: np.ndarray, rows: slice, choice) -> np.ndarray:
    """One corner of _corner_sum on the rows of padded: the gather at its
    indices, scaled in place by its weights multiplied in axis order
    from 1.0."""
    w = 1.0
    for _, weight in reversed(choice):
        w = w * weight
    corner = padded[(rows,) + tuple(index for index, _ in reversed(choice))]
    corner *= w
    return corner
