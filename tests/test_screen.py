"""The bracket screen of iid Gaussian and Weibull fields: its table holds
every word's value, and its bound holds the float path's statistic."""

import math
import warnings

import numpy as np
import pytest

from orthofield import _rng, generators, iid_gaussian, iid_weibull
from orthofield.lattice import _block_size
from test_generators import float_path_stats, screen_bounds

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_BUCKET_SHIFT = 64 - generators._BUCKET_BITS


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
    mids, halves, vmax = generators._brackets(spec)
    ends = np.arange(1 << generators._BUCKET_BITS, dtype=np.uint64) << np.uint64(_BUCKET_SHIFT)
    last = np.uint64((1 << _BUCKET_SHIFT) - 1)
    words = np.concatenate(
        [_words_near(u0) for u0 in (math.exp(-2), 1 - math.exp(-2), math.exp(-32),
                                    1 - math.exp(-32), 0.5)]
        + [ends, ends | last, ends + np.uint64(1 << 11), (ends | last) - np.uint64(1 << 11)])
    values = generators._law_values(_rng.uniform01(words.copy()), spec)
    buckets = (words >> np.uint64(_BUCKET_SHIFT)).astype(np.int64)
    assert np.all(np.isfinite(values)) and np.all(halves > 0)
    assert np.all(np.abs(values - mids[buckets]) <= halves[buckets])
    assert np.all(np.abs(values) <= vmax)


def test_bracket_bound_covers_the_rounding_of_both_prefix_sums():
    # the field [1, 2^-53 + 2^-60] sums to 1 + 2^-52, its midpoints
    # [1, 2^-53] to 1 (a tie rounded to even), and their half-width
    # 2^-60 vanishes beside 1: only the rounding term eps lifts the
    # bound over the field's statistic (both calls overwrite their input)
    field = np.array([[1.0, 2.0**-53 + 2.0**-60]])
    mid = np.array([[1.0, 2.0**-53]])
    widths = np.array([2.0**-60])
    for stat in ("max", "total"):
        for shape in ((1, 2), (1, 1, 2), (1, 2, 1)):
            value = np.abs(generators._field_stats(field.reshape(shape).copy(), (stat,))[0])
            assert value.tolist() == [1.0 + 2.0**-52]
            bound = generators._bracket_bound(mid.reshape(shape).copy(), widths, 1.0, stat)
            assert bound[0] >= value[0], (stat, shape)


@pytest.mark.parametrize("spec,shape,stat,floor", [
    (iid_gaussian(2), (64, 256), "max", 1351.0), (iid_weibull(2, 1.0), (64, 64), "total", 1024.0)],
    ids=["tightness-level", "large-deviation"])
def test_screened_gaussian_and_weibull_blocks_skip_the_value_map(monkeypatch, spec, shape,
                                                                  stat, floor):
    # tightness's first level and the large-deviation verify-bound of the
    # 2-thread Monte Carlo benchmark: the bucket sums of every replica
    # stay far below the floor, so no word goes through ndtri or log
    generators._brackets(spec)  # the table maps its bucket ends once, first

    def no_values(u, spec):
        raise AssertionError("a screened block ran the value map")

    monkeypatch.setattr(generators, "_law_values", no_values)
    got, = generators.replica_stats(spec, shape, 3, 0, 256, (stat,), 2, floor=floor)
    assert np.array_equal(got, np.full(256, floor))


def test_a_table_that_overflows_leaves_every_replica_open():
    # gamma = 0.004 takes the outer buckets' values past the largest
    # double: the table is built without a warning, its inf and NaN
    # entries make every bound NaN, and every replica takes the float path
    spec = iid_weibull(1, 0.004)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mids, halves, vmax = generators._brackets(spec)
    assert math.isnan(vmax)
    with np.errstate(over="ignore", invalid="ignore"):
        plain = float_path_stats(spec, (64,), 1, 0, 20)
        for stat in ("max", "total"):
            assert np.all(np.isnan(screen_bounds(spec, (64,), 1, 0, 20, stat)))
            got, = generators.replica_stats(spec, (64,), 1, 0, 20, (stat,), floor=10.0)
            assert np.array_equal(got, np.maximum(10.0, np.abs(plain[stat])), equal_nan=True)


def test_a_span_stops_screening_after_a_block_that_clears_too_few(monkeypatch):
    # 2048 replicas of 64x64 run in 8 spans of 8 blocks; a floor of 0
    # clears no replica, so each span screens its first block alone, and
    # a floor above every bound screens all 64 blocks.  The values are
    # the same either way.
    spec, shape, count = iid_gaussian(2), (64, 64), 2048
    block = _block_size(math.prod(shape), "lattice")
    calls = []
    screen_bound = generators._screen_bound

    def counting(*args):
        calls.append(len(args[1]))
        return screen_bound(*args)

    monkeypatch.setattr(generators, "_screen_bound", counting)
    want = float_path_stats(spec, shape, 3, 0, count)["max"]
    for floor, blocks in ((0.0, 8), (1e9, count // block)):
        calls.clear()
        got, = generators.replica_stats(spec, shape, 3, 0, count, ("max",), floor=floor)
        assert calls == [block] * blocks, floor
        assert np.array_equal(got, np.maximum(floor, want)), floor


_LAWS = {"gaussian": lambda d, sigma: iid_gaussian(d, sigma),
         "weibull-1": lambda d, sigma: iid_weibull(d, 1.0),
         "weibull-0.5": lambda d, sigma: iid_weibull(d, 0.5)}


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(law=st.sampled_from(sorted(_LAWS)), sigma=st.floats(0.01, 100.0),
       shape=st.sampled_from([(4096,), (4096, 1), (2, 3), (8, 8, 8), (24, 40)]),
       seed=st.integers(0, 2**64 - 1), start=st.integers(0, 2**40),
       threads=st.sampled_from([1, 2]))
def test_screen_bound_holds_the_float_path(law, sigma, shape, seed, start, threads):
    # the soundness inequality of replica_stats, per replica: the bound
    # is at least the float path's max |S_k| and |S_n|.  Two blocks and
    # three replicas, so two threads share the work; the floor at the
    # median bound screens some replicas and leaves the others open.
    spec = _LAWS[law](len(shape), sigma)
    count = 2 * _block_size(math.prod(shape), "lattice") + 3
    want = float_path_stats(spec, shape, seed, start, count)
    for stat in ("max", "total"):
        value = np.abs(want[stat])
        bound = screen_bounds(spec, shape, seed, start, count, stat)
        assert np.all(bound >= value), stat
        floor = float(np.median(bound))
        got, = generators.replica_stats(spec, shape, seed, start, count, (stat,), threads,
                                        floor=floor)
        assert np.array_equal(got, np.maximum(floor, value)), stat
