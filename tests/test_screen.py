"""The screen of iid fields: its bracket table holds every word's value,
and each of its bounds, the sign count, the chunk bound and the fine
bracket bound, holds the float path's statistic."""

import math
import warnings

import numpy as np
import pytest

from orthofield import (InvalidRangeError, _rng, generators, iid_gaussian, iid_rademacher,
                        iid_weibull)
from orthofield.lattice import _block_size, batch_prefix
from test_generators import float_path_stats, screen_bounds

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_BUCKET_SHIFT = 64 - generators._BUCKET_BITS


def _brackets(spec):
    """The bracket table of spec's law at its parameter, as replica_stats
    takes it."""
    return generators._brackets(*generators._law(spec))


def _words_near(u0, span=1 << 15):
    """Words whose uniforms lie within span steps of 2^-53 of u0 on either
    side, with both settings of the 11 low bits uniform01 drops."""
    k0 = int(u0 * 2.0**53)
    k = np.arange(max(k0 - span, 0), min(k0 + span, 2**53), dtype=np.uint64) << np.uint64(11)
    return np.concatenate([k, k | np.uint64(0x7FF)])


@pytest.mark.parametrize("spec", [iid_gaussian(1), iid_gaussian(1, 2.5), iid_weibull(1, 1.0),
                                  iid_weibull(1, 0.5)],
                         ids=["gaussian", "gaussian-2.5", "weibull-1", "weibull-0.5"])
def test_bracket_table_holds_the_words_around_each_switch(spec):
    # ndtri changes its rule at u = e^-2 and 1 - e^-2 (central region)
    # and where sqrt(-2 log y) crosses 8 (u = e^-32 and 1 - e^-32); the
    # Weibull map changes sign at u = 0.5.  Each bucket's two ends and
    # the words next to them are checked too.
    table, vmax, means = _brackets(spec)
    mids, halves = table.real, table.imag
    ends = np.arange(1 << generators._BUCKET_BITS, dtype=np.uint64) << np.uint64(_BUCKET_SHIFT)
    last = np.uint64((1 << _BUCKET_SHIFT) - 1)
    words = np.concatenate(
        [_words_near(u0) for u0 in (math.exp(-2), 1 - math.exp(-2), math.exp(-32),
                                    1 - math.exp(-32), 0.5)]
        + [ends, ends | last, ends + np.uint64(1 << 11), (ends | last) - np.uint64(1 << 11)])
    law, p = generators._law(spec)
    values = law.values(_rng.uniform01(words.copy()), p)
    buckets = (words >> np.uint64(_BUCKET_SHIFT)).astype(np.int64)
    assert np.all(np.isfinite(values)) and np.all(halves > 0)
    assert np.all(np.abs(values - mids[buckets]) <= halves[buckets])
    assert np.all(np.abs(values) <= vmax)
    assert means == (np.mean(np.abs(mids)), np.mean(halves), np.mean(mids * mids))


def _stage_bounds(table, buckets, stat):
    """The bounds of _bracket_screen on hand-made buckets of a hand-made
    table whose largest |c| + h is 1 and whose means are 0: the fine
    stage alone (a floor of -inf, which no chunk bound passes), and for
    a maximum the chunk stage (an infinite floor, which clears every
    replica the chunk stage bounds)."""
    return [generators._bracket_screen(table, 1.0, (0.0, 0.0, 0.0), buckets.copy(), stat,
                                       floor)
            for floor in (-math.inf, math.inf)]


def test_bracket_bound_covers_the_rounding_of_both_prefix_sums():
    # the field [1, 2^-53 + 2^-60, 0, ...] sums to 1 + 2^-52, its
    # midpoints [1, 2^-53, 0, ...] to 1 (a tie rounded to even), and the
    # half-width 2^-60 vanishes beside 1: only the rounding term eps
    # lifts the fine bound over the field's statistic.  The chunk bound
    # (a maximum's first stage, one chunk of 8 sites here, which its
    # strip mass lifts above the fine bound) and the total's complex sum
    # cover it too.
    table = np.array([1.0, 2.0**-53 + 2.0**-60 * 1j, 0.0])
    field = np.zeros(8)
    field[:2] = [1.0, 2.0**-53 + 2.0**-60]
    for shape in ((1, 8), (1, 1, 8)):
        buckets = np.array([0, 1, 2, 2, 2, 2, 2, 2]).reshape(shape)
        for stat in ("max", "total"):
            value = np.abs(generators._field_stats(field.reshape(shape).copy(), (stat,))[0])
            assert value.tolist() == [1.0 + 2.0**-52]
            fine, chunk = _stage_bounds(table, buckets, stat)
            assert fine[0] >= value[0] and chunk[0] >= value[0], (shape, stat)
            assert (chunk[0] > fine[0]) == (stat == "max"), (shape, stat)


@pytest.mark.parametrize("shape", [(4, 8), (8,), (3, 2, 16), (16, 1, 8), (5, 24)])
def test_chunk_bound_counts_the_mass_inside_a_chunk(shape):
    # +-1 midpoints alternating along the last axis sum to 0 over every
    # chunk, so the chunk sums' prefix is 0 throughout; the maximum, up to
    # the number of rows, is all inside the chunks, and only their strip
    # mass bounds it.  The second replica has the signs reversed.
    table = np.array([1.0, -1.0], dtype=np.complex128)
    buckets = np.stack([np.arange(math.prod(shape)) % 2,
                        1 - np.arange(math.prod(shape)) % 2]).reshape((2,) + shape)
    value = np.abs(batch_prefix(table.real[buckets])).reshape(2, -1).max(axis=1)
    assert value.tolist() == [math.prod(shape) // shape[-1]] * 2
    fine, chunk = _stage_bounds(table, buckets, "max")
    assert np.all(chunk > fine), (fine, chunk)
    assert np.all(fine >= value) and np.all(chunk >= value), (fine, chunk, value)


@pytest.mark.parametrize("spec,shape,stat,floor", [
    (iid_gaussian(2), (64, 256), "max", 1351.0), (iid_weibull(2, 1.0), (64, 64), "total", 1024.0)],
    ids=["tightness-level", "large-deviation"])
def test_screened_gaussian_and_weibull_blocks_skip_the_value_map(monkeypatch, spec, shape,
                                                                  stat, floor):
    # tightness's first level and the large-deviation verify-bound of the
    # 2-thread Monte Carlo benchmark: every replica clears at the first
    # stage that runs, so no block draws its values (no word goes through
    # ndtri or log), no replica takes the full midpoint prefix, and each
    # site is gathered once
    cells, count = math.prod(shape), 256
    gathered, armed = [], []
    take = np.take
    law, p = generators._law(spec)

    def refuse(*args):
        raise AssertionError("a screened block ran the fine stage or the value map")

    def values(u, p):
        return refuse() if armed else law.values(u, p)

    # the law's row maps through values, which refuses once the bracket
    # table has mapped its bucket ends, first: no later call, cached or
    # not, maps a word
    monkeypatch.setitem(generators._LAW_TABLE, spec.param("dist"), law._replace(values=values))
    _brackets(spec)
    armed.append(True)
    misses = generators._brackets.cache_info().misses

    def counting_take(table, indices, *args, **kwargs):
        gathered.append(np.size(indices))
        return take(table, indices, *args, **kwargs)

    for name in ("_draw", "_midpoint_peaks"):
        monkeypatch.setattr(generators, name, refuse)
    monkeypatch.setattr(np, "take", counting_take)
    got, = generators.replica_stats(spec, shape, 3, 0, count, (stat,), 2, floor=floor)
    assert np.array_equal(got, np.full(count, floor))
    assert sum(gathered) == count * cells
    assert generators._brackets.cache_info().misses == misses


def test_a_floor_at_or_above_the_cells_hashes_no_rademacher_word(monkeypatch):
    # no maximum of +-1 terms exceeds |n|, so a floor of |n| decides
    # every replica without a word
    def no_fold(*args):
        raise AssertionError("a block hashed a word")

    monkeypatch.setattr(_rng, "last_fold", no_fold)
    for floor in (4096.0, 1e300):
        got, = generators.replica_stats(iid_rademacher(2), (64, 64), 3, 0, 100, ("max",),
                                        floor=floor)
        assert np.array_equal(got, np.full(100, floor))


@pytest.mark.parametrize("shape", [(64, 64), (4096,), (4096, 1), (24, 40), (8, 8, 8)])
def test_partial_sign_count_bounds_the_maximum(monkeypatch, shape):
    # whatever the slab the floor asks for, each replica's bound is
    # (m + |S_m|) / 2 + (|n| - m) over the first m sites in lattice
    # order, rounded up to whole rows of the last axis (so all of them
    # on a lattice of one row), and it holds the float path's maximum
    spec, count = iid_rademacher(len(shape)), 150
    cells = math.prod(shape)
    want = float_path_stats(spec, shape, 5, 7, count)["max"]
    field = generators.generate_batch(spec, shape, 5, 7, count).reshape(count, -1)
    for m in (1, 100, cells // 2, cells - 1):
        monkeypatch.setattr(generators, "_sign_slab", lambda cells, floor: m)
        seen = min(cells, -(-m // shape[-1]) * shape[-1])
        bound = screen_bounds(spec, shape, 5, 7, count, "max", math.inf)
        partial = field[:, :seen].sum(axis=1)
        assert np.array_equal(bound, 0.5 * (seen + np.abs(partial)) + (cells - seen)), m
        assert np.all(bound >= want), m


def test_a_table_that_overflows_is_refused_on_every_lattice():
    # gamma = 0.004 takes the outer buckets' values past the largest
    # double: the table is built without a warning, and its inf and NaN
    # entries make every bound NaN, so no replica would clear.  The
    # field's own sums would pass the float range, so replica_stats and
    # generate_batch refuse the spec before any block is built.
    spec = iid_weibull(1, 0.004)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table, vmax, means = _brackets(spec)
    assert math.isnan(vmax)
    with np.errstate(over="ignore", invalid="ignore"):
        for stat in ("max", "total"):
            for floor in (-math.inf, math.inf):
                assert np.all(np.isnan(screen_bounds(spec, (64,), 1, 0, 20, stat, floor)))
    for run in (lambda: generators.replica_stats(spec, (1,), 1, 0, 20, ("max",), floor=10.0),
                lambda: generators.generate_batch(spec, (1,), 1, 0, 20)):
        with pytest.raises(InvalidRangeError, match="float range"):
            run()


def _count_stages(monkeypatch, spec):
    """Lists that record each block the screen bounds and each stage it
    runs: for a Gaussian field the chunk sums ("chunk") and the full
    midpoint prefix ("fine"), for a Rademacher field the sites per
    replica of each sign count ("signs")."""
    calls = {"screen": [], "chunk": [], "fine": [], "signs": []}
    screen_bound = generators._screen_bound

    def counting_screen(*args):
        calls["screen"].append(len(args[1]))
        return screen_bound(*args)

    monkeypatch.setattr(generators, "_screen_bound", counting_screen)
    if spec.param("dist") == "rademacher":  # the float path maps signs, never counts them
        sign_total = _rng.sign_total

        def counting_signs(h):
            calls["signs"].append(h[0].size)
            return sign_total(h)

        monkeypatch.setattr(_rng, "sign_total", counting_signs)
        return calls
    for name, fn in (("chunk", "_chunk_sums"), ("fine", "_midpoint_peaks")):
        def counting(*args, name=name, wrapped=getattr(generators, fn)):
            calls[name].append(len(args[0]))
            return wrapped(*args)

        monkeypatch.setattr(generators, fn, counting)
    return calls


def test_a_span_stops_screening_after_a_block_that_clears_too_few(monkeypatch):
    # 2048 replicas of 64x64 run in 8 spans of 8 blocks.  A floor of 0
    # clears no replica, so each span runs its first block through the
    # screen and the rest through the float path alone.  A Gaussian
    # block runs the chunk stage only where the floor passes an average
    # replica's chunk bound, about 546 here: at 350 the fine stage alone
    # clears every replica, and with the table's means taken as 0 every
    # block runs the chunk stage too, which clears none (its strip mass
    # alone is about 430).  At the top floor every replica clears at the
    # chunk stage.  A Rademacher block counts the signs of the slab its
    # floor sizes once: all 4096 sites at 0 and 2200, and 5 rows of 64 at
    # 4095.  The values are the same every way.
    shape, count = (64, 64), 2048
    block = _block_size(math.prod(shape), "lattice")
    screens = count // block
    gaussian = iid_gaussian(2)
    table, vmax, _ = _brackets(gaussian)
    runs = [(gaussian, False, {0.0: (8, 0, 8), 350.0: (screens, 0, screens),
                               1e9: (screens, screens, 0)}),
            (gaussian, True, {350.0: (screens, screens, screens)}),
            (iid_rademacher(2), False, {0.0: (8, [4096] * 8), 2200.0: (screens, [4096] * screens),
                                        4095.0: (screens, [320] * screens)})]
    for spec, zero_means, plans in runs:
        with monkeypatch.context() as patch:
            calls = _count_stages(patch, spec)
            if zero_means:
                patch.setattr(generators, "_brackets", lambda law, p: (table, vmax, (0.0,) * 3))
            want = float_path_stats(spec, shape, 3, 0, count)["max"]
            for floor, (screened, *stages) in plans.items():
                for name in calls:
                    calls[name].clear()
                got, = generators.replica_stats(spec, shape, 3, 0, count, ("max",), floor=floor)
                assert np.array_equal(got, np.maximum(floor, want)), floor
                assert calls["screen"] == [block] * screened, floor
                if spec.param("dist") == "rademacher":
                    assert calls["signs"] == stages[0], floor
                else:
                    assert (len(calls["chunk"]), len(calls["fine"])) == tuple(stages), floor


def test_a_rademacher_slab_sends_the_replicas_it_leaves_open_to_the_float_path(monkeypatch):
    # a one-row slab of 64 sites bounds a 64x64 maximum by
    # (64 + |S_64|) / 2 + 4032, which passes the floor 4076 where
    # |S_64| > 20, for about 1 % of replicas: each block counts the
    # slab's signs once and hashes no other word for its screen, and
    # exactly the replicas the slab leaves open are drawn again and take
    # the float path
    spec, shape, count, floor = iid_rademacher(2), (64, 64), 512, 4076.0
    block = _block_size(math.prod(shape), "lattice")
    want = float_path_stats(spec, shape, 3, 0, count)["max"]
    monkeypatch.setattr(generators, "_sign_slab", lambda cells, floor: 64)
    slab = screen_bounds(spec, shape, 3, 0, count, "max", floor)
    open_ = np.flatnonzero(slab > floor)
    assert 0 < open_.size < count // 8
    calls = _count_stages(monkeypatch, spec)
    drawn, draw = [], generators._draw

    def counting_draw(h, *args):
        drawn.append(len(h))
        return draw(h, *args)

    monkeypatch.setattr(generators, "_draw", counting_draw)
    got, = generators.replica_stats(spec, shape, 3, 0, count, ("max",), floor=floor)
    assert np.array_equal(got, np.maximum(floor, want))
    assert calls["screen"] == [block] * (count // block)
    assert calls["signs"] == [64] * (count // block)
    assert sum(drawn) == open_.size


_LAWS = {"gaussian": lambda d, sigma: iid_gaussian(d, sigma),
         "weibull-1": lambda d, sigma: iid_weibull(d, 1.0),
         "weibull-0.5": lambda d, sigma: iid_weibull(d, 0.5),
         "rademacher": lambda d, sigma: iid_rademacher(d)}


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(law=st.sampled_from(sorted(_LAWS)), sigma=st.floats(0.01, 100.0),
       shape=st.sampled_from([(4096,), (4096, 1), (2, 3), (8, 8, 8), (24, 40)]),
       seed=st.integers(0, 2**64 - 1), start=st.integers(0, 2**40),
       threads=st.sampled_from([1, 2]))
def test_screen_bound_holds_the_float_path(law, sigma, shape, seed, start, threads):
    # the soundness inequalities of replica_stats, per replica: every
    # bound is at least the float path's max |S_k| and |S_n|.  A floor of
    # -inf gives every replica's fine bound (a Rademacher maximum's full
    # sign count), an infinite one its chunk bound where the last axis
    # allows one, and for a Rademacher maximum floors between |n| / 2 and
    # |n| partial sign counts over slabs of several sizes.  Two blocks and
    # three replicas, so two threads share the work; the floor at the
    # median bound screens some replicas and leaves the others open.
    spec = _LAWS[law](len(shape), sigma)
    cells = math.prod(shape)
    count = 2 * _block_size(cells, "lattice") + 3
    want = float_path_stats(spec, shape, seed, start, count)
    floors = [-math.inf, math.inf]
    if law == "rademacher":
        floors += [0.5 * cells + 2 * math.sqrt(cells), 0.75 * cells, cells - 1.0]
    for stat in ("max",) if law == "rademacher" else ("max", "total"):
        value = np.abs(want[stat])
        for floor in floors:
            bound = screen_bounds(spec, shape, seed, start, count, stat, floor)
            assert np.all(bound >= value), (stat, floor)
        floor = float(np.median(screen_bounds(spec, shape, seed, start, count, stat)))
        got, = generators.replica_stats(spec, shape, seed, start, count, (stat,), threads,
                                        floor=floor)
        assert np.array_equal(got, np.maximum(floor, value)), stat
