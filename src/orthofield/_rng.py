"""Counter-mode random word generation.

Every variate in this package is a pure function of (master seed,
stream labels, lattice position).  Replica r of stream q at site i
therefore does not depend on how work was batched, which thread drew
it, or what was drawn before it: Monte Carlo runs reduce
deterministically under any partition, and a field can be evaluated on
translated sites without materializing the untranslated part.

The word function is the splitmix64 finalizer chained over the input
words: the fold of a word into the running hash h is
mix64((h + gamma) ^ word), a bijection of the 64-bit state for any
fixed word with full avalanche, which is the standard construction for
counter-mode streams (same family as the SeedSequence entropy mixer).
All arithmetic is modular uint64 on arrays (0-d ones for a stream key),
where numpy's ops wrap silently.  The finalizer's first step
x ^= x >> 30 distributes over the xor: with a = h + gamma,
x ^ (x >> 30) = (a ^ (a >> 30)) ^ (word ^ (word >> 30)).  So the two
sides are premixed apart, on their own shapes, and only the xor that
broadcasts them and the steps after it (_mix) run over the whole
result, in place, slice by slice (lattice._slices), with a scratch
array of one slice, at most a quarter of a replica block
(lattice._SCRATCH_CELLS words).

This module owns the hash of a replica block and its three contracts.
Premix: fold premixes its two sides itself, while row_words (the
replica and every lattice axis but the last) and last_word (the last
axis) return premixed words, so a span premixes them once, and
last_fold takes them as they are.  In place: last_fold writes over rows
that already have the result's shape (a last axis of extent 1), so such
rows are handed over; every other result is a fresh array.  Top bit:
the finalizer's last step x ^= x >> 31 leaves bits 33-63 unchanged, so
last_fold with top=True leaves that step out.  Its "top-bit words" are
exact in those bits alone: sign_pm1 and sign_total read bit 63, and the
bracket screen of generators reads a bucket off the top 12 bits; they
never go to uniform01.  The value maps overwrite the words they are
given: sign_pm1 turns them into +-1.0 in the last fold's buffer, and
uniform01 writes its doubles over them slice by slice, each slice's
shifted words held in a scratch of its size, so a block holds one
block array and a quarter at most.
"""

from __future__ import annotations

import operator

import numpy as np

from .lattice import _slices

_MASK = (1 << 64) - 1
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_GAMMA = 0x9E3779B97F4A7C15
_TOP = np.uint64(1 << 63)
_ONE = np.uint64(0x3FF0000000000000)  # the bits of 1.0
_INV53 = float(2.0**-53)
_BELOW_ONE = 1.0 - _INV53  # the largest double below 1.0


def _as_words(x) -> np.ndarray:
    """Coerce ints / int arrays to uint64 words (two's complement for
    negatives, so shifted lattice coordinates below 1 stay injective)."""
    arr = np.asarray(x)
    if arr.dtype == np.uint64:
        return arr
    if not np.issubdtype(arr.dtype, np.integer):
        raise TypeError("rng words must be integers, got %s" % arr.dtype)
    return arr.astype(np.int64).view(np.uint64)


def _int_word(x) -> int:
    """One integer as a Python int word, the scalar twin of _as_words:
    integers in [-2^63, 2^64), negatives in two's complement."""
    try:
        x = operator.index(x)
    except TypeError:
        raise TypeError("rng words must be integers, got %r" % (x,)) from None
    if not -(1 << 63) <= x <= _MASK:
        raise TypeError("rng words must fit 64 bits, got %d" % x)
    return x & _MASK


def _premix_hash(h, out=None):
    """The fold's first step on the running hash alone: a ^ (a >> 30)
    with a = h + gamma, written into out when it is given, the shift over
    slices of a (lattice._slices)."""
    a = np.asarray(np.add(_as_words(h), np.uint64(_GAMMA), out=out))
    for part in _slices(a):
        part ^= part >> 30
    return a


def _premix_word(word):
    """The fold's first step on the absorbed word alone: w ^ (w >> 30)."""
    w = _as_words(word)
    return w ^ (w >> 30)


def _mix(x: np.ndarray, top: bool) -> np.ndarray:
    """The finalizer's steps after the xor, in place on x, slice by slice
    (lattice._slices) with a scratch array of one slice; top=True leaves
    out the last one (top-bit words)."""
    for part in _slices(x):
        t = np.empty_like(part)
        part *= np.uint64(_M1)
        np.right_shift(part, 27, out=t)
        part ^= t
        part *= np.uint64(_M2)
        if not top:
            np.right_shift(part, 31, out=t)
            part ^= t
        del t  # the next slice's scratch must not meet this one alive
    return x


def fold(h, word) -> np.ndarray:
    """Absorb one word into the running hash, as a fresh array.
    Broadcasts, so callers can fold a replica axis and then one
    coordinate axis at a time."""
    x = np.asarray(_premix_hash(h) ^ _premix_word(word))  # the premixes go before the scratch
    return _mix(x, False)


def row_words(key, replicas: np.ndarray, lead) -> np.ndarray:
    """The replica words folded through the coordinates of every lattice
    axis but the last (lead), of shape (count, n_1, ..., n_(d-1), 1),
    premixed in place for last_fold."""
    d = len(lead) + 1
    h = fold(key, replicas.reshape((-1,) + (1,) * d))
    for q, c in enumerate(lead):
        shape = [1] * (d + 1)
        shape[q + 1] = len(c)
        h = fold(h, c.reshape(shape))
    return _premix_hash(h, out=h)


def last_word(coords) -> np.ndarray:
    """The last axis's coordinate words, premixed for last_fold."""
    return _premix_word(coords[-1].reshape((1,) * len(coords) + (-1,)))


def last_fold(rows: np.ndarray, last: np.ndarray, top: bool) -> np.ndarray:
    """The fold of last_word into row_words (or a slice of them), top-bit
    words with top=True; in place exactly when the rows already have the
    result's shape, a fresh array otherwise."""
    inplace = rows.shape == np.broadcast_shapes(rows.shape, last.shape)
    x = np.bitwise_xor(rows, last, out=rows if inplace else None)
    del rows  # rows handed over in place go with the caller's last reference
    return _mix(x, top)


def _label_word(label) -> int:
    """Short string labels hash through FNV-1a so stream names stay
    readable at call sites; integers pass through as words."""
    if isinstance(label, str):
        h = 0xCBF29CE484222325
        for byte in label.encode("utf-8"):
            h = ((h ^ byte) * 0x100000001B3) & _MASK
        return h
    return _int_word(label)


def stream_key(master_seed: int, *labels) -> np.uint64:
    """Hash a master seed plus integer or string labels into a stream key:
    mix64(seed + gamma), which is fold(seed, 0), then one fold per label."""
    h = fold(np.uint64(_int_word(master_seed)), 0)
    for lab in labels:
        h = fold(h, np.uint64(_label_word(lab)))
    return h[()]


def uniform01(h: np.ndarray) -> np.ndarray:
    """Map words to doubles in the open interval (0, 1), nondecreasing
    in the word.  Overwrites h.  The shifted words k = h >> 11 are below
    2^53, so they convert exactly, and as int64, whose conversion numpy
    runs faster than uint64's.  (k + 0.5) 2^-53 rounds k + 0.5 to even
    from k = 2^52 on, so k = 2^53 - 1, the top 2^11 words, would give
    1.0; the clamp maps them to the double below 1.0 and moves no other
    word.  The doubles are written over the words, a float64 view of h,
    slice by slice (lattice._slices): each slice's shifted words go to a
    scratch of its size, whose int64 view is converted into the slice.
    (A conversion from h's own int64 view into its float64 view would
    overlap, and numpy would copy all of h first; an add that converts
    as it goes holds numpy's cast buffers too.)"""
    for part in _slices(h):
        u = part.view(np.float64)
        u[...] = np.right_shift(part, 11).view(np.int64)
        u += 0.5
        u *= _INV53
        np.minimum(u, _BELOW_ONE, out=u)
    return h.view(np.float64)


def sign_pm1(h: np.ndarray) -> np.ndarray:
    """Map words (or top-bit words) to +-1.0 from the top bit, in place:
    the top bit becomes the sign of 1.0, and the result is a float64
    view of h."""
    h &= _TOP
    h |= _ONE
    return h.view(np.float64)


def sign_total(h: np.ndarray) -> np.ndarray:
    """Per replica (first axis), the sum of sign_pm1's values of h, read
    off the top bits alone: cells - 2 #{top bit set}.  Overwrites h."""
    h >>= 63
    h = h.reshape(len(h), -1)
    return h.shape[1] - 2.0 * h.sum(axis=1)
