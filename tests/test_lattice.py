import threading
from concurrent.futures import Future

import numpy as np
import pytest

from orthofield import lattice
from orthofield import (
    InvalidInputError,
    TooLargeError,
    generate_batch,
    iid_gaussian,
    iid_rademacher,
    iid_weibull,
    padded_prefix,
    validate_shape,
    volume,
)
from orthofield.lattice import batch_prefix
from single_field import dominated, rect_sum, validate_index


# independent nested-loop oracles


def brute_prefix(field):
    field = np.asarray(field, dtype=np.float64)
    out = np.zeros_like(field)
    for idx in np.ndindex(*field.shape):
        total = 0.0
        for src in np.ndindex(*(i + 1 for i in idx)):
            total += field[src]
        out[idx] = total
    return out


def brute_rect(field, lo, hi):
    field = np.asarray(field, dtype=np.float64)
    total = 0.0
    for idx in np.ndindex(*field.shape):
        if all(l - 1 <= i <= h - 1 for i, l, h in zip(idx, lo, hi)):
            total += field[idx]
    return total


def random_shapes(rng, count, d_max=3, n_max=6):
    for _ in range(count):
        d = rng.integers(1, d_max + 1)
        yield tuple(int(n) for n in rng.integers(1, n_max + 1, size=d))


def int_field(rng, shape):
    """Small-integer field: every partial sum is exact in float64."""
    return rng.integers(-9, 10, size=shape).astype(np.float64)


def test_prefix_pinned_example():
    got = batch_prefix(np.array([[[1.0, 2.0], [3.0, 4.0]]]))[0]
    assert np.array_equal(got, [[1.0, 3.0], [4.0, 10.0]])


def test_prefix_matches_brute_force_exactly():
    rng = np.random.default_rng(1234)
    for shape in random_shapes(rng, 200):
        field = int_field(rng, shape)
        assert np.array_equal(batch_prefix(field[None].copy())[0], brute_prefix(field))


def test_prefix_matches_brute_force_float():
    rng = np.random.default_rng(4321)
    for shape in random_shapes(rng, 60):
        field = rng.standard_normal(shape)
        assert np.allclose(batch_prefix(field[None].copy())[0], brute_prefix(field), atol=1e-10)


def test_max_abs_prefix_pinned():
    assert np.abs(batch_prefix(np.array([[[1.0, -2.0], [-3.0, 4.0]]]))).max() == 2.0


def test_max_abs_prefix_matches_brute():
    rng = np.random.default_rng(77)
    for shape in random_shapes(rng, 50):
        field = int_field(rng, shape)
        want = np.max(np.abs(brute_prefix(field)))
        assert np.abs(batch_prefix(field[None])).max() == want


def test_rect_sum_pinned():
    rng = np.random.default_rng(5)
    field = int_field(rng, (4, 5))
    pref = batch_prefix(field[None].copy())[0]
    want = brute_rect(field, (2, 2), (3, 4))
    assert rect_sum(pref, (2, 2), (3, 4)) == want


def test_rect_sum_matches_brute():
    rng = np.random.default_rng(99)
    for shape in random_shapes(rng, 60):
        field = int_field(rng, shape)
        pref = batch_prefix(field[None].copy())[0]
        lo = tuple(int(rng.integers(1, n + 1)) for n in shape)
        hi = tuple(int(rng.integers(l, n + 1)) for l, n in zip(lo, shape))
        assert rect_sum(pref, lo, hi) == brute_rect(field, lo, hi)


def test_rect_sum_memory_does_not_grow_with_the_prefix(peak_bytes):
    # one box on a 1024x1024 prefix (8 MB) gathers only its 2^d corners;
    # a padded copy of the whole array would take about 8.4 MB
    pref = batch_prefix(np.ones((1, 1024, 1024)))[0]
    peak = peak_bytes(lambda: rect_sum(pref, (300, 17), (900, 1000)))
    assert rect_sum(pref, (300, 17), (900, 1000)) == 601.0 * 984.0
    assert peak < 64 * 1024, peak


@pytest.mark.parametrize("law", [iid_gaussian, iid_rademacher, lambda d: iid_weibull(d, 0.7)],
                         ids=["gaussian", "rademacher", "weibull"])
@pytest.mark.parametrize("shape", [(13,), (64, 1), (1000, 1), (8, 8), (5, 7), (100, 1, 1),
                                   (3, 4, 5), (40, 5, 1, 2), (4096, 1), (2, 1, 2048), (64, 64),
                                   (8, 8, 8)],
                         ids=lambda s: "x".join(map(str, s)))
def test_batch_total_is_the_prefix_far_corner_bit_for_bit(law, shape):
    # np.sum adds in another order (pairwise along a trailing unit axis,
    # as for (64, 1), (1000, 1) and (100, 1, 1)) and differs in the last bits
    corner = (slice(None),) + (-1,) * len(shape)
    for count in (1, 7, 64):
        fields = generate_batch(law(len(shape)), shape, 11, 0, count)
        total = lattice.batch_total(fields)
        assert total.shape == (count,) and total.base is None
        assert np.array_equal(total, lattice.batch_prefix(fields)[corner])


@pytest.mark.parametrize("shape", [(1, 256), (64, 1), (2, 1, 3), (1, 1, 1), (1, 4, 1, 5)],
                         ids=lambda s: "x".join(map(str, s)))
def test_batch_prefix_skips_axes_of_extent_1(monkeypatch, shape):
    # a cumulative sum over an axis of extent 1 changes nothing, so
    # batch_prefix runs none there, and its bits are those of a cumsum
    # over every lattice axis
    fields = generate_batch(iid_gaussian(len(shape)), shape, 5, 0, 9)
    want = fields.copy()
    for axis in range(1, want.ndim):
        want = np.cumsum(want, axis=axis)
    axes = []
    cumsum = np.cumsum

    def recording(a, axis, out):
        axes.append(axis)
        return cumsum(a, axis=axis, out=out)

    monkeypatch.setattr(lattice.np, "cumsum", recording)
    got = lattice.batch_prefix(fields)
    assert got is fields and np.array_equal(got, want)
    assert axes == [q + 1 for q, n in enumerate(shape) if n > 1]


def test_prefix_round_trip():
    rng = np.random.default_rng(8)
    field = rng.standard_normal((4, 3, 5))
    padded = padded_prefix(batch_prefix(field[None].copy())[0])
    recovered = padded.copy()
    for axis in range(3):
        recovered = np.diff(recovered, axis=axis)
    assert np.allclose(recovered, field, atol=1e-10)


def test_padded_prefix_zero_face():
    padded = padded_prefix(batch_prefix(np.array([[[1.0, 2.0], [3.0, 4.0]]]))[0])
    assert padded.shape == (3, 3)
    assert np.all(padded[0, :] == 0) and np.all(padded[:, 0] == 0)
    # a batch gives each replica its own sums and zero face
    fields = np.random.default_rng(3).standard_normal((5, 4, 3))
    want = np.stack([padded_prefix(batch_prefix(f[None].copy())[0]) for f in fields])
    in_place = fields.copy()
    assert batch_prefix(in_place) is in_place
    assert np.array_equal(padded_prefix(in_place, lead=1), want)


def test_map_blocks_returns_block_order_under_threads():
    plan = [(0, 3), (3, 3), (6, 3), (9, 1)]
    assert lattice._map_blocks(lambda start, count: (start, count), range(0, 10, 3), 1) == plan
    # each block waits for the one after it, so the blocks finish in reverse
    done = {start: threading.Event() for start, _ in plan}
    finished = []

    def work(start, count):
        if start + 3 in done:
            assert done[start + 3].wait(timeout=10)
        finished.append(start)
        done[start].set()
        return start, count

    assert lattice._map_blocks(work, range(0, 10, 3), 4) == plan
    assert finished == [9, 6, 3, 0]


def test_map_blocks_caps_worker_threads(monkeypatch):
    # a synchronous stand-in for the pool records the worker count it is
    # asked for and starts no thread
    requested = []

    class RecordingPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(lattice, "ThreadPoolExecutor", RecordingPool)
    counts = lattice._map_blocks(lambda start, count: count, range(0, 100000, 64), 100000)
    assert len(counts) == 1563 and sum(counts) == 100000
    assert requested == [lattice._MAX_THREADS] and lattice._MAX_THREADS < 1563
    assert len(lattice._map_blocks(lambda start, count: count, range(0, 192, 64), 100000)) == 3
    assert requested[-1] == 3


def test_volume_and_dominated():
    assert volume((3, 4, 5)) == 60
    assert dominated((1, 2), (1, 3))
    assert not dominated((2, 1), (1, 3))


def test_block_size_follows_the_budget():
    # as many replicas as fit _BLOCK_CELLS cells, one at least, and a
    # lattice one replica of which is over _BLOCK_BYTES is rejected
    assert lattice._BLOCK_BYTES == 16 << 20 and lattice._BLOCK_CELLS == 1 << 17
    assert lattice._block_size(1, "lattice") == 1 << 17
    assert lattice._block_size(64 * 64, "lattice") == 32
    assert lattice._block_size(300, "lattice") == 436  # rounded down
    assert lattice._block_size((1 << 17) + 1, "lattice") == 1
    assert lattice._block_size(1 << 21, "lattice") == 1
    assert validate_shape((2048, 1024)) == (2048, 1024)
    with pytest.raises(TooLargeError, match="lattice of 2099200 cells"):
        validate_shape((2048, 1025))
    with pytest.raises(TooLargeError):
        lattice._block_size((1 << 21) + 1, "level grid")


def test_validate_shape_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        validate_shape(())
    with pytest.raises(InvalidInputError):
        validate_shape((0, 3))
    with pytest.raises(InvalidInputError):
        validate_shape((2.5, 3))


def test_validate_index():
    assert validate_index((1, 1), (2, 2)) == (1, 1)
    with pytest.raises(InvalidInputError):
        validate_index((1, 3), (2, 2))
    with pytest.raises(InvalidInputError):
        validate_index((1.5, 1), (2, 2))
