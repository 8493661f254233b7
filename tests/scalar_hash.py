"""The scalar reference of orthofield._rng: the splitmix64 finalizer and
its fold, on Python ints masked to 64 bits, one word at a time.  A test
oracle (not a test_* file, so pytest does not collect it)."""

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """The splitmix64 finalizer of one word."""
    x ^= x >> 30
    x = x * _M1 & MASK
    x ^= x >> 27
    x = x * _M2 & MASK
    return x ^ x >> 31


def fold(h: int, word: int) -> int:
    """mix64((h + gamma) ^ word), the fold of one word into the hash h."""
    return mix64((h + GAMMA & MASK) ^ word)


def premix_hash(h: int) -> int:
    """The fold's first step on the hash alone: a ^ (a >> 30), a = h + gamma."""
    a = h + GAMMA & MASK
    return a ^ a >> 30


def premix_word(word: int) -> int:
    """The fold's first step on the word alone: w ^ (w >> 30)."""
    return word ^ word >> 30


def stream_key(seed: int, *words) -> int:
    """mix64(seed + gamma), then one fold per label word."""
    h = mix64(seed + GAMMA & MASK)
    for word in words:
        h = fold(h, word)
    return h
