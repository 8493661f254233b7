"""The folds of _rng against the scalar reference, word by word."""

import math
import pathlib
import warnings

import numpy as np
import pytest

from orthofield import _rng
from orthofield.generators import _weibull_values
from orthofield.lattice import _SCRATCH_CELLS
import scalar_hash as ref

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_WORD = {"int64": st.integers(-(1 << 63), (1 << 63) - 1),
         "uint64": st.integers(0, (1 << 64) - 1)}


@st.composite
def _fold_operands(draw):
    """h and word arrays whose shapes broadcast: an outer (n, 1) x (1, m)
    pair, h of one word over a vector of words, or the reverse.  Words
    come as int64 (negatives included) or uint64 (from 2^63 up)."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    shapes = draw(st.sampled_from([((n, 1), (1, m)), ((1,), (m,)), ((n,), ()), ((), (m,))]))
    arrays = []
    for shape in shapes:
        dtype = draw(st.sampled_from(sorted(_WORD)))
        values = draw(st.lists(_WORD[dtype], min_size=math.prod(shape),
                               max_size=math.prod(shape)))
        arrays.append(np.array(values, dtype=dtype).reshape(shape))
    return arrays


def _premixed(a: np.ndarray, premix) -> np.ndarray:
    """The uint64 array of premix of each word of a, by the reference."""
    words = [premix(x & ref.MASK) for x in a.ravel().tolist()]
    return np.array(words, dtype=np.uint64).reshape(a.shape)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(operands=_fold_operands(), top=st.booleans())
def test_fold_equals_the_scalar_fold(operands, top):
    # fold, and last_fold of the reference's premixed words, against the
    # reference fold word by word; top-bit words are right in bit 63 only
    h, word = operands
    hh, ww = np.broadcast_arrays(h, word)
    want = [ref.fold(a & ref.MASK, b & ref.MASK)
            for a, b in zip(hh.ravel().tolist(), ww.ravel().tolist())]
    got = _rng.fold(h, word)
    assert got.shape == hh.shape
    assert got.ravel().tolist() == want
    last = _rng.last_fold(_premixed(h, ref.premix_hash), _premixed(word, ref.premix_word), top)
    assert last.shape == hh.shape
    for x, w in zip(last.ravel().tolist(), want):
        if top:
            assert x >> 63 == w >> 63
        else:
            assert x == w


@pytest.mark.parametrize("rows_shape,last_shape,inplace", [
    ((4, 1), (1, 1), True), ((4, 3), (1, 3), True), ((4, 1), (1, 3), False),
    ((1, 1), (1, 3), False), ((2, 3, 1), (1, 1, 1), True), ((2, 3, 1), (1, 1, 5), False)])
def test_last_fold_runs_in_place_exactly_when_rows_have_the_result_shape(
        rows_shape, last_shape, inplace):
    rows = np.arange(math.prod(rows_shape), dtype=np.uint64).reshape(rows_shape)
    last = np.arange(7, 7 + math.prod(last_shape), dtype=np.uint64).reshape(last_shape)
    before = rows.copy()
    got = _rng.last_fold(rows, last, False)
    assert np.shares_memory(got, rows) is inplace
    if not inplace:
        assert np.array_equal(rows, before)


def _mix_one_scratch(x: np.ndarray, top: bool) -> np.ndarray:
    """_mix's steps over the whole of x with one scratch array of its
    size, the reference for the sliced scratch."""
    t = np.empty_like(x)
    x *= np.uint64(_rng._M1)
    np.right_shift(x, 27, out=t)
    x ^= t
    x *= np.uint64(_rng._M2)
    if not top:
        np.right_shift(x, 31, out=t)
        x ^= t
    return x


@pytest.mark.parametrize("shape", [(), (1, 2 * _SCRATCH_CELLS + 3), (3, 2, _SCRATCH_CELLS - 1),
                                   (7, _SCRATCH_CELLS // 3), (3 * _SCRATCH_CELLS + 1,)],
                         ids=["0-d", "one-replica-past-the-scratch", "rows-past-the-scratch",
                              "slices-not-dividing-the-replicas", "one-axis"])
@pytest.mark.parametrize("top", [False, True])
def test_mix_equals_the_one_scratch_reference(shape, top):
    words = np.random.default_rng(11).integers(0, 2**64 - 1, size=shape, dtype=np.uint64,
                                               endpoint=True)
    x = words.copy()
    assert _rng._mix(x, top) is x
    assert np.array_equal(x, _mix_one_scratch(words.copy(), top))
    if words.ndim > 1:  # a non-contiguous view is mixed in place too
        view = words[:, ::-1][..., 1:]
        want = _mix_one_scratch(view.copy(), top)
        assert np.array_equal(_rng._mix(view, top), want)
        assert np.array_equal(words[:, ::-1][..., 1:], want)


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_stream_key_equals_the_reference(seed):
    for labels in [(), (3,), ("sheet-pairs", 7, "exponent-fit"), (101, 201, 2**64 - 1)]:
        key = _rng.stream_key(seed, *labels)
        assert isinstance(key, np.uint64)
        assert int(key) == ref.stream_key(seed, *map(_rng._label_word, labels))


def test_folds_run_warning_free():
    # every add and product wraps mod 2^64, on 0-d arrays too
    big = np.array([2**64 - 1, 2**63, 5], dtype=np.uint64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        key = _rng.stream_key(2**64 - 1, "x", 2**64 - 1)
        h = _rng.fold(key, big.reshape(-1, 1))
        h = _rng.fold(h, np.array([[-1, 2**62]]))
        rows = _rng.row_words(key, np.arange(3), [np.arange(-2, 3)])
        last = _rng.last_word([np.arange(2), np.arange(4)])
        for top in (False, True):
            _rng.last_fold(rows.copy(), last, top)
            _rng.last_fold(h.copy(), _rng.last_word([big[:2]]), top)


def test_the_package_holds_one_finalizer():
    # the scalar finalizer is the reference in tests/; the package mixes
    # with one routine, whose first multiplier appears once in src/
    package = pathlib.Path(_rng.__file__).parent
    lines = [(path.name, line) for path in sorted(package.glob("*.py"))
             for line in path.read_text(encoding="utf-8").splitlines()
             if "0xbf58476d1ce4e5b9" in line.lower()]
    assert lines == [("_rng.py", "_M1 = 0xBF58476D1CE4E5B9")]
    assert not hasattr(_rng, "_mix64_int") and not hasattr(_rng, "_fold_int")


def test_uniform01_keeps_the_largest_words_below_one():
    # (k + 0.5) 2^-53 with k = h >> 11 rounds to 1.0 for k = 2^53 - 1, the
    # top 2^11 words; those map to the double below 1.0, and the words
    # under them keep (k + 0.5) 2^-53
    below_one = 1.0 - 2.0**-53
    top = [2**64 - 1, 2**64 - 2**10, 2**64 - 2**11]
    under = [2**64 - 2**11 - 1, 2**64 - 2**12, 2**63, 2**62 + 2**11, 2**11 - 1, 0]
    u = _rng.uniform01(np.array(top + under, dtype=np.uint64))
    assert u[:3].tolist() == [below_one] * 3
    assert u[3:].tolist() == [((w >> 11) + 0.5) * 2.0**-53 for w in under]
    assert np.all((u > 0.0) & (u < 1.0)) and np.all(np.diff(u[::-1]) >= 0)
    # so the largest words give finite Gaussian and Weibull values, and
    # a node draw 1 + floor(u res) stays on its sheet
    from scipy.special import ndtri
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(np.isfinite(ndtri(u)))
        assert np.all(np.isfinite(_weibull_values(u.copy(), 1.0)))
    for res in [1, 2, 3, 5, 7, 96, 1000, 2**21 - 1, 2**21]:
        assert 1 + math.floor(below_one * res) == res


def _uniform01_one_shot(h: np.ndarray) -> np.ndarray:
    """uniform01 as one conversion of the whole array, the reference for
    the map written slice by slice over the words."""
    u = ((h >> np.uint64(11)).view(np.int64).astype(np.float64) + 0.5) * 2.0**-53
    return np.minimum(u, 1.0 - 2.0**-53)


def _weibull_one_shot(u: np.ndarray, gamma: float) -> np.ndarray:
    """_weibull_values as one expression over the whole array, the
    reference for the map written slice by slice over the uniforms."""
    return np.copysign((-np.log(np.minimum(u, 1.0 - u))) ** (1.0 / gamma), u - 0.5)


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.parametrize("layout", ["flat", "leading-axis-view"])
def test_sliced_value_maps_equal_the_one_shot_formulas(layout):
    # three scratches and 5 words, or every other row of an array whose
    # rows hold a scratch and 2 words each (a view that is not
    # contiguous, each row cut in two); among the words 0, 2^64 - 1 and
    # the top 2^11, so 2^11 + 1 words that uniform01 clamps below 1.0
    words = np.random.default_rng(13).integers(0, 2**64 - 1, size=3 * _SCRATCH_CELLS + 6,
                                               dtype=np.uint64, endpoint=True)
    words[:2] = [0, 2**64 - 1]
    words[2:2 + 2**11] = np.arange(2**64 - 2**11, 2**64, dtype=np.uint64)
    if layout == "flat":
        base = view = words[:-1]
    else:
        base = np.zeros((6, _SCRATCH_CELLS + 2), dtype=np.uint64)
        view = base[::2]
        view[...] = words.reshape(view.shape)
    u = _uniform01_one_shot(view)
    assert np.count_nonzero(u == 1.0 - 2.0**-53) == 2**11 + 1
    got = _rng.uniform01(view)
    assert np.shares_memory(got, view) and np.array_equal(_bits(got), _bits(u))
    for gamma in (0.5, 1.0, 2.0):
        assert np.array_equal(_bits(_weibull_values(got.copy(), gamma)),
                              _bits(_weibull_one_shot(u, gamma)))
    assert _weibull_values(got, 1.0) is got  # in place on the view too
    assert np.array_equal(_bits(got), _bits(_weibull_one_shot(u, 1.0)))
    if layout != "flat":
        assert not np.any(base[1::2])  # the rows between are left as they were
