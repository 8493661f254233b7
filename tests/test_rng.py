"""The array fold of _rng against its scalar twin, word by word."""

import math

import numpy as np
import pytest

from orthofield import _rng

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


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(operands=_fold_operands(), top=st.booleans())
def test_fold_equals_the_scalar_fold(operands, top):
    # the premixed array fold against _fold_int, word by word; top-bit
    # words are right in bit 63 only
    h, word = operands
    got = _rng.fold(h, word, top)
    hh, ww = np.broadcast_arrays(h, word)
    assert np.shape(got) == hh.shape
    for x, a, b in zip(np.ravel(got).tolist(), hh.ravel().tolist(), ww.ravel().tolist()):
        want = _rng._fold_int(a & _rng._MASK, b & _rng._MASK)
        if top:
            assert x >> 63 == want >> 63
        else:
            assert x == want
