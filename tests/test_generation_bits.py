"""The bits a field draw produces, pinned, and the memory a block takes.

The digests below were recorded from the out-of-place hash and value
maps that preceded the in-place ones; a change to any stream, value
map or block reduction moves them."""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from orthofield import (
    decoupled_product,
    generate_batch,
    iid_gaussian,
    iid_rademacher,
    iid_weibull,
    moving_average,
    product_rademacher,
    zero_field,
)
from orthofield import _rng
from orthofield.generators import replica_stats
from orthofield.lattice import _block_size

_MAKERS = {
    "iid_rademacher": iid_rademacher,
    "iid_gaussian": lambda d: iid_gaussian(d, sigma=1.5),
    "iid_weibull": lambda d: iid_weibull(d, 0.7),
    "product_rademacher": product_rademacher,
    "decoupled_rademacher": decoupled_product,
    "decoupled_gaussian": lambda d: decoupled_product(d, "gaussian", sigma=0.5),
    "decoupled_weibull": lambda d: decoupled_product(d, "weibull_symmetric", gamma=2.0),
    "moving_average_rademacher": lambda d: moving_average(d, axis=d),
    "moving_average_gaussian": lambda d: moving_average(d, axis=1, dist="gaussian", sigma=2.0),
    "moving_average_weibull": lambda d: moving_average(d, axis=d, dist="weibull_symmetric",
                                                       gamma=1.0),
    "zero": zero_field,
}
# odd extents, an axis of extent 1, and negative offsets
_SHAPES = {1: ((7,), (-4,)), 2: ((5, 3), (-3, 2)), 3: ((3, 1, 5), (1, -2, -7))}
_STATS = [stats for k in (1, 2, 3) for stats in itertools.permutations(("max", "total", "slab"), k)]

_PINNED = {
    "decoupled_gaussian": "ff246e888a7b59b3efd7b098539f456b95eadd76ce300b331a6e63a7ba5ae2a3",
    "decoupled_rademacher": "7c57b71cdf224a38cdaafe346f28532502d64d5c7f171346db663749eda3a221",
    "decoupled_weibull": "777415f6882a82cf0ff948ba13956f4e52b37ab537e9ec154bdf7689e25d7892",
    "iid_gaussian": "c6cbb2da83fd74c7d16d5df5d307670cb7f34d89254594b2b0b3b472c1ed5b05",
    "iid_rademacher": "9d6ef0dc46d7f54cc392a7f3af450c068e4294ce33c9bd339ccefd5adc4da1d2",
    "iid_weibull": "196f7a6f317b827eb55daef5a33b0bf8ebdde15cdf5c0a9aeece5c5bd4b5e2aa",
    "moving_average_gaussian": "d717fe8468612a756ce3523e7699c924633ebdb97400e0320cd0070fcb60f34b",
    "moving_average_rademacher":
        "858276318911bf5489339e28c19b7e6aa19e08f17fad4c31536a588e99641518",
    "moving_average_weibull": "c7832049d6e7dcf3c385409830eece8f43f219be16bf2ca3c3b9ca56c25a09a3",
    "product_rademacher": "29db45f4845d7e02c0bbbc057415bb9974aad3b3c8661361e993d2b070c540fb",
    "zero": "5dc73234e7e625153628ffb1eafabef83937f059a3e0acfbd4c35e6e04a8fbfc",
}


def _digest(name: str) -> str:
    """sha256 over generate_batch with and without an offset, and over
    replica_stats for every stats tuple, at d = 1, 2, 3, starts 0 and
    10^6 and counts 1, 7 and 64."""
    sha = hashlib.sha256()
    for d, (shape, offset) in _SHAPES.items():
        spec = _MAKERS[name](d)
        for start, count in itertools.product((0, 10**6), (1, 7, 64)):
            for off in (None, offset):
                sha.update(generate_batch(spec, shape, 2024, start, count, offset=off).tobytes())
            for stats in _STATS:
                for values in replica_stats(spec, shape, 2024, start, count, stats):
                    sha.update(values.tobytes())
    return sha.hexdigest()


@pytest.mark.parametrize("name", sorted(_MAKERS))
def test_generation_bits_are_pinned(name):
    assert _digest(name) == _PINNED[name]


@pytest.mark.parametrize("seed", [0, -1, 2**63, 2**64 - 1])
def test_stream_key_equals_the_array_fold(seed):
    # stream_key runs on Python ints; the array fold of the same words,
    # from mix64(seed + gamma) = fold(seed, 0) on, must give its bits
    labels = ("sheet-pairs", 7, "exponent-fit")
    h = _rng.fold(np.array([seed]), 0)
    for label in labels:
        h = _rng.fold(h, np.uint64(_rng._label_word(label)))
    assert int(_rng.stream_key(seed, *labels)) == int(h[0])


# one block of 4096-cell replicas, as replica_stats plans it
_BLOCK = _block_size(4096, "lattice")
_BLOCK_BYTES = _BLOCK * 4096 * 8


def _peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shape", [(64, 64), (4096, 1), (1, 4096)], ids=lambda s: "%dx%d" % s)
@pytest.mark.parametrize("name", sorted(_MAKERS))
def test_a_block_holds_at_most_three_block_arrays(name, shape):
    # one block of 4096-cell replicas: one block array, or twice that
    # where a moving average extends an axis of extent 1, and the
    # extended axis of 64x64 adds a sixty-fourth.  With a last axis of
    # extent 1 the last fold's input is block-sized too, so three arrays
    # (input, result, scratch) are alive there.  An eighth of a block
    # covers what a call holds once whatever its replicas, such as the
    # site coordinates of an axis of 4096 or 4097 sites.
    spec = _MAKERS[name](2)
    axis = spec.param("axis")
    block = _BLOCK_BYTES * (2 if axis and shape[axis - 1] == 1 else 1)
    for stats in (None, ("total",), ("max", "total", "slab")):
        if stats is None:
            peak = _peak(lambda: generate_batch(spec, shape, 5, 0, _BLOCK))
        else:
            peak = _peak(lambda: replica_stats(spec, shape, 5, 0, _BLOCK, stats))
        assert peak <= 3 * block + _BLOCK_BYTES // 8, (stats, peak / block)


@pytest.mark.parametrize("shape", [(64, 64), (1, 4096)], ids=lambda s: "%dx%d" % s)
@pytest.mark.parametrize("name", ["iid_gaussian", "iid_rademacher", "iid_weibull", "zero"])
def test_a_lone_total_holds_two_block_arrays(name, shape):
    # the fold's words and scratch, or the values and the last axis's
    # running sum: batch_total copies no block when the first lattice
    # axis has extent 1
    peak = _peak(lambda: replica_stats(_MAKERS[name](2), shape, 3, 0, _BLOCK, ("total",)))
    assert peak <= 2.1 * _BLOCK_BYTES, peak / _BLOCK_BYTES


def test_a_direct_call_is_bounded_by_its_blocks():
    # 2000 replicas run in blocks of _BLOCK, so the peak is that of one
    # block, not of one 2000-replica array (62 block arrays)
    peak = _peak(lambda: replica_stats(iid_gaussian(2), (64, 64), 3, 0, 2000, ("max",)))
    assert peak <= 3 * _BLOCK_BYTES, peak / _BLOCK_BYTES
