import multiprocessing
import sys
import threading
import time

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
from orthofield.generators import replica_stats
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

    # two workers over eight blocks whose durations fall with the index
    def slower_first(start, count):
        time.sleep(0.002 * (8 - start))
        return start, count

    assert lattice._map_blocks(slower_first, range(0, 8), 2) == [(start, 1) for start in range(8)]


def _helper_threads() -> set:
    return {t.ident for t in threading.enumerate() if t.name.startswith("orthofield-block-")}


def test_map_blocks_bounds_the_blocks_running_at_once():
    # at most min(threads, blocks, _MAX_THREADS) blocks run at once, each
    # exactly once even under a short switch interval, the pool never
    # holds more than _MAX_THREADS - 1 helpers, and a call that needs no
    # more helpers than the pool has starts none
    lock = threading.Lock()
    running, peak, ran = [0], [0], []

    def work(start, count):
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
            ran.append(start)
        time.sleep(0.005)
        with lock:
            running[0] -= 1
        return start

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads, blocks in [(3, 2), (2, 12), (3, 12), (3, 12), (3, 12), (100, 96),
                                (100, 1563), (100, 96)]:
            peak[0] = 0
            ran.clear()
            before = _helper_threads()
            starts = range(0, 4 * blocks, 4)
            assert lattice._map_blocks(work, starts, threads) == list(starts)
            assert sorted(ran) == list(starts)
            assert peak[0] <= min(threads, blocks, lattice._MAX_THREADS), (threads, blocks, peak)
            assert len(_helper_threads()) <= lattice._MAX_THREADS - 1
            if len(before) >= min(threads, blocks) - 1:
                assert _helper_threads() == before, (threads, blocks)
    finally:
        sys.setswitchinterval(interval)
    assert peak[0] > 1 and lattice._MAX_THREADS < 1563


def test_map_blocks_raises_a_helpers_exception_in_the_caller():
    # the caller's first block waits until a helper's block has raised;
    # the call then stops claiming blocks and raises the same exception
    class Boom(Exception):
        pass

    raised = threading.Event()
    ran = []

    def work(start, count):
        ran.append(start)
        if threading.current_thread() is threading.main_thread():
            assert raised.wait(timeout=10)
            return start
        raised.set()
        raise Boom(start)

    with pytest.raises(Boom):
        lattice._map_blocks(work, range(0, 100), 2)
    assert raised.is_set() and len(ran) < 100


def _stats_at(threads):
    return replica_stats(iid_gaussian(2), (16, 16), 5, 0, 600, ("max", "total"), threads)


def _send_stats_at_two_threads(conn):
    conn.send(_stats_at(2))
    conn.close()


def test_map_blocks_runs_in_a_forked_child():
    # the parent's helpers are not in a forked child, which starts its
    # own: a 2-thread call there finishes and gives the 1-thread result
    _stats_at(2)
    assert _helper_threads()
    context = multiprocessing.get_context("fork")
    read, write = context.Pipe(duplex=False)
    child = context.Process(target=_send_stats_at_two_threads, args=(write,))
    child.start()
    write.close()
    try:
        assert read.poll(60), "the forked child's 2-thread call did not finish"
        got = read.recv()
        child.join(10)
        assert not child.is_alive() and child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
    want = _stats_at(1)
    assert all(np.array_equal(a, b) for a, b in zip(got, want)) and len(got) == len(want)


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
