"""Counter-mode random word generation.

Every variate in this package is a pure function of (master seed,
stream labels, lattice position).  Replica r of stream q at site i
therefore does not depend on how work was batched, which thread drew
it, or what was drawn before it: Monte Carlo runs reduce
deterministically under any partition, and a field can be evaluated on
translated sites without materializing the untranslated part.

The word function is the splitmix64 finalizer chained over the input
words.  Each fold is a bijection of the 64-bit state for any fixed
word, with full avalanche, which is the standard construction for
counter-mode streams (same family as the SeedSequence entropy mixer).
All arithmetic is modular uint64.  Stream keys run on Python ints
masked to 64 bits, which is cheaper than numpy's 0-d arrays.  An array
fold of h (the running hash) and word computes mix64((h + gamma) ^ word),
whose first step x ^= x >> 30 distributes over the xor: with
a = h + gamma, x ^ (x >> 30) = (a ^ (a >> 30)) ^ (word ^ (word >> 30)).
So the fold premixes a and word apart (_premix_hash, _premix_word), on
their own shapes (a replica column, one coordinate axis), and only the
xor that broadcasts them and the steps after it run over the whole
result, which it mixes in place with one scratch array, where numpy's
uint64 ops wrap silently.  A caller that folds many blocks into the
same words premixes both sides once and passes premixed=True; the
fold then writes its result over a premixed h of the result's shape.

The value maps overwrite the words they are given: sign_pm1 turns them
into +-1.0 in the buffer the last fold produced, and uniform01 shifts
them in place before its one conversion to float64, which the Gaussian
and Weibull maps of generators then work on.  sign_pm1 reads only
bit 63, which the finalizer's last step x ^= x >> 31 cannot change, so
a fold with top=True leaves that step out.  Its "top-bit words" are
right in bit 63 only: they may go to sign_pm1 or be counted by their
top bit, never to uniform01.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK = (1 << 64) - 1
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_GAMMA = 0x9E3779B97F4A7C15
_TOP = np.uint64(1 << 63)
_ONE = np.uint64(0x3FF0000000000000)  # the bits of 1.0
_INV53 = float(2.0**-53)


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


def _mix64_int(x: int) -> int:
    """The splitmix64 finalizer of one word."""
    x ^= x >> 30
    x = x * _M1 & _MASK
    x ^= x >> 27
    x = x * _M2 & _MASK
    return x ^ x >> 31


def _fold_int(h: int, word: int) -> int:
    return _mix64_int((h + _GAMMA & _MASK) ^ word)


def _premix_hash(h, out=None):
    """The fold's first step on the running hash alone: a ^ (a >> 30)
    with a = h + gamma (see the module docstring), written into out when
    it is given (out=h premixes in place)."""
    with np.errstate(over="ignore"):  # modular wraparound is the algorithm
        a = np.add(_as_words(h), np.uint64(_GAMMA), out=out)
    a ^= a >> 30
    return a


def _premix_word(word):
    """The fold's first step on the absorbed word alone: w ^ (w >> 30)."""
    w = _as_words(word)
    return w ^ (w >> 30)


def fold(h, word, top: bool = False, premixed: bool = False):
    """Absorb one word into the running hash.  Broadcasts, so callers
    can fold a replica axis and then one coordinate axis at a time.
    With top=True the result's words are top-bit words (see the module
    docstring).  h and word are premixed apart, on their own shapes,
    before the xor that broadcasts them; with premixed=True the caller
    has done that (_premix_hash, _premix_word), and a premixed h of the
    result's shape is overwritten by the result, so it must be words
    the caller owns and reads no more.  Otherwise the result is a fresh
    array."""
    if not premixed:
        h, word = _premix_hash(h), _premix_word(word)
    shape = np.broadcast_shapes(np.shape(h), np.shape(word))
    x = np.bitwise_xor(h, word, out=h if isinstance(h, np.ndarray) and h.shape == shape else None)
    del h, word  # x may be h; a word of the result's shape goes before the scratch array
    t = np.empty_like(x)
    with np.errstate(over="ignore"):
        x *= np.uint64(_M1)
        np.right_shift(x, 27, out=t)
        x ^= t
        x *= np.uint64(_M2)
        if not top:
            np.right_shift(x, 31, out=t)
            x ^= t
    return x


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
    """Hash a master seed plus integer or string labels into a stream key."""
    h = _mix64_int(_int_word(master_seed) + _GAMMA & _MASK)
    for lab in labels:
        h = _fold_int(h, _label_word(lab))
    return np.uint64(h)


def uniform01(h: np.ndarray) -> np.ndarray:
    """Map words to doubles in the open interval (0, 1).  Overwrites h."""
    h >>= 11
    u = h.astype(np.float64)
    u += 0.5
    u *= _INV53
    return u


def sign_pm1(h: np.ndarray) -> np.ndarray:
    """Map words (or top-bit words) to +-1.0 from the top bit, in place:
    the top bit becomes the sign of 1.0, and the result is a float64
    view of h."""
    h &= _TOP
    h |= _ONE
    return h.view(np.float64)
