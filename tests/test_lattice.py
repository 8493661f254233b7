import threading
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

from orthofield import lattice
from orthofield import (
    InvalidInputError,
    LatticeArray,
    TooLargeError,
    dominated,
    generate_batch,
    iid_gaussian,
    iid_rademacher,
    iid_weibull,
    max_abs_prefix,
    padded_prefix,
    prefix_sum,
    rect_sum,
    validate_index,
    validate_shape,
    volume,
)


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
    got = prefix_sum([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(got, [[1.0, 3.0], [4.0, 10.0]])


def test_prefix_matches_brute_force_exactly():
    rng = np.random.default_rng(1234)
    for shape in random_shapes(rng, 200):
        field = int_field(rng, shape)
        assert np.array_equal(prefix_sum(field), brute_prefix(field))


def test_prefix_matches_brute_force_float():
    rng = np.random.default_rng(4321)
    for shape in random_shapes(rng, 60):
        field = rng.standard_normal(shape)
        assert np.allclose(prefix_sum(field), brute_prefix(field), atol=1e-10)


def test_max_abs_prefix_pinned():
    assert max_abs_prefix([[1.0, -2.0], [-3.0, 4.0]]) == 2.0


def test_max_abs_prefix_matches_brute():
    rng = np.random.default_rng(77)
    for shape in random_shapes(rng, 50):
        field = int_field(rng, shape)
        assert max_abs_prefix(field) == np.max(np.abs(brute_prefix(field)))


def test_rect_sum_pinned():
    rng = np.random.default_rng(5)
    field = int_field(rng, (4, 5))
    pref = prefix_sum(field)
    want = brute_rect(field, (2, 2), (3, 4))
    assert rect_sum(pref, (2, 2), (3, 4)) == want


def test_rect_sum_matches_brute():
    rng = np.random.default_rng(99)
    for shape in random_shapes(rng, 60):
        field = int_field(rng, shape)
        pref = prefix_sum(field)
        lo = tuple(int(rng.integers(1, n + 1)) for n in shape)
        hi = tuple(int(rng.integers(l, n + 1)) for l, n in zip(lo, shape))
        assert rect_sum(pref, lo, hi) == brute_rect(field, lo, hi)


def test_rect_sum_memory_does_not_grow_with_the_prefix():
    # one box on a 1024x1024 prefix (8 MB) gathers only its 2^d corners;
    # a padded copy of the whole array would take about 8.4 MB
    pref = prefix_sum(np.ones((1024, 1024)))
    tracemalloc.start()
    try:
        got = rect_sum(pref, (300, 17), (900, 1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == 601.0 * 984.0
    assert peak < 64 * 1024, peak


@pytest.mark.parametrize("law", [iid_gaussian, iid_rademacher, lambda d: iid_weibull(d, 0.7)],
                         ids=["gaussian", "rademacher", "weibull"])
@pytest.mark.parametrize("shape", [(13,), (64, 1), (1000, 1), (8, 8), (5, 7), (100, 1, 1),
                                   (3, 4, 5), (40, 5, 1, 2)],
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


def test_prefix_round_trip():
    rng = np.random.default_rng(8)
    field = rng.standard_normal((4, 3, 5))
    padded = padded_prefix(prefix_sum(field))
    recovered = padded.copy()
    for axis in range(3):
        recovered = np.diff(recovered, axis=axis)
    assert np.allclose(recovered, field, atol=1e-10)


def test_padded_prefix_zero_face():
    padded = padded_prefix(prefix_sum([[1.0, 2.0], [3.0, 4.0]]))
    assert padded.shape == (3, 3)
    assert np.all(padded[0, :] == 0) and np.all(padded[:, 0] == 0)
    # the batched routine gives each replica the single-field sums and zero face
    fields = np.random.default_rng(3).standard_normal((5, 4, 3))
    want = np.stack([padded_prefix(prefix_sum(f)) for f in fields])
    in_place = fields.copy()
    assert lattice.batch_prefix(in_place) is in_place
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


def test_lattice_array_one_based_get():
    arr = LatticeArray(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert arr.get((1, 2)) == 2.0
    assert arr.get((2, 1)) == 3.0
    with pytest.raises(InvalidInputError):
        arr.get((0, 1))
    with pytest.raises(InvalidInputError):
        arr.get((3, 1))


def test_block_size_follows_the_budget():
    # at most _BLOCK replicas, else as many as fit _BLOCK_BYTES, and a
    # lattice one replica of which is over the budget is rejected
    assert lattice._BLOCK_BYTES == 64 << 20 and lattice._BLOCK == 64
    assert lattice._block_size(16 * 16, "lattice") == 64
    assert lattice._block_size(1024 * 1024, "lattice") == 8
    assert lattice._block_size(1 << 23, "lattice") == 1
    assert validate_shape((4096, 2048)) == (4096, 2048)
    with pytest.raises(TooLargeError, match="lattice of 8392704 cells"):
        validate_shape((4096, 2049))
    with pytest.raises(TooLargeError):
        lattice._block_size((1 << 23) + 1, "level grid")


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
