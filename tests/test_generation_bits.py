"""The bits a field draw produces, pinned, and the memory a block takes.

The digests below were recorded from the out-of-place hash and value
maps that preceded the in-place ones; a change to any stream, value
map or block reduction moves them."""

import functools
import hashlib
import itertools
import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from orthofield import (
    decoupled_product,
    generate_batch,
    iid_gaussian,
    iid_rademacher,
    iid_weibull,
    moving_average,
    product_rademacher,
    zero_field,
)
from orthofield import _rng, generators
from orthofield.generators import replica_stats, spec_to_dict, spec_to_json
from orthofield.lattice import _block_size
import scalar_hash

_MAKERS = {
    "iid_rademacher": iid_rademacher,
    "iid_gaussian": lambda d: iid_gaussian(d, sigma=1.5),
    "iid_weibull": lambda d: iid_weibull(d, 0.7),
    "product_rademacher": product_rademacher,
    "decoupled_rademacher": decoupled_product,
    "decoupled_gaussian": lambda d: decoupled_product(d, "gaussian", sigma=0.5),
    "decoupled_weibull": lambda d: decoupled_product(d, "weibull_symmetric", gamma=2.0),
    "moving_average_rademacher": lambda d: moving_average(d, axis=d),
    "moving_average_gaussian": lambda d: moving_average(d, axis=1, dist="gaussian", sigma=2.0),
    "moving_average_weibull": lambda d: moving_average(d, axis=d, dist="weibull_symmetric",
                                                       gamma=1.0),
    "zero": zero_field,
}
# each maker's spec at d = 2 as spec_to_dict gives it, and the variant
# and law tags its stream keys fold in
_VALUES = {
    "iid_rademacher": ("iid_symmetric", {"dist": "rademacher"}, 101, 201),
    "iid_gaussian": ("iid_symmetric", {"dist": "gaussian", "sigma": 1.5}, 101, 202),
    "iid_weibull": ("iid_symmetric", {"dist": "weibull_symmetric", "gamma": 0.7}, 101, 203),
    "product_rademacher": ("product_rademacher", {}, 102, 0),
    "decoupled_rademacher": ("decoupled_product", {"dist": "rademacher"}, 103, 201),
    "decoupled_gaussian": ("decoupled_product", {"dist": "gaussian", "sigma": 0.5}, 103, 202),
    "decoupled_weibull": ("decoupled_product", {"dist": "weibull_symmetric", "gamma": 2.0},
                          103, 203),
    "moving_average_rademacher": ("moving_average", {"axis": 2, "dist": "rademacher"}, 104, 201),
    "moving_average_gaussian": ("moving_average", {"axis": 1, "dist": "gaussian", "sigma": 2.0},
                                104, 202),
    "moving_average_weibull": ("moving_average", {"axis": 2, "dist": "weibull_symmetric",
                                                  "gamma": 1.0}, 104, 203),
    "zero": ("zero", {}, 105, 0),
}
# odd extents, an axis of extent 1, and negative offsets
_SHAPES = {1: ((7,), (-4,)), 2: ((5, 3), (-3, 2)), 3: ((3, 1, 5), (1, -2, -7))}
_STATS = [stats for k in (1, 2, 3) for stats in itertools.permutations(("max", "total", "slab"), k)]

_PINNED = {
    "decoupled_gaussian": "ff246e888a7b59b3efd7b098539f456b95eadd76ce300b331a6e63a7ba5ae2a3",
    "decoupled_rademacher": "7c57b71cdf224a38cdaafe346f28532502d64d5c7f171346db663749eda3a221",
    "decoupled_weibull": "777415f6882a82cf0ff948ba13956f4e52b37ab537e9ec154bdf7689e25d7892",
    "iid_gaussian": "c6cbb2da83fd74c7d16d5df5d307670cb7f34d89254594b2b0b3b472c1ed5b05",
    "iid_rademacher": "9d6ef0dc46d7f54cc392a7f3af450c068e4294ce33c9bd339ccefd5adc4da1d2",
    "iid_weibull": "196f7a6f317b827eb55daef5a33b0bf8ebdde15cdf5c0a9aeece5c5bd4b5e2aa",
    "moving_average_gaussian": "d717fe8468612a756ce3523e7699c924633ebdb97400e0320cd0070fcb60f34b",
    "moving_average_rademacher":
        "858276318911bf5489339e28c19b7e6aa19e08f17fad4c31536a588e99641518",
    "moving_average_weibull": "c7832049d6e7dcf3c385409830eece8f43f219be16bf2ca3c3b9ca56c25a09a3",
    "product_rademacher": "29db45f4845d7e02c0bbbc057415bb9974aad3b3c8661361e993d2b070c540fb",
    "zero": "5dc73234e7e625153628ffb1eafabef83937f059a3e0acfbd4c35e6e04a8fbfc",
}


def _digest(name: str) -> str:
    """sha256 over generate_batch with and without an offset, and over
    replica_stats for every stats tuple, at d = 1, 2, 3, starts 0 and
    10^6 and counts 1, 7 and 64."""
    sha = hashlib.sha256()
    for d, (shape, offset) in _SHAPES.items():
        spec = _MAKERS[name](d)
        for start, count in itertools.product((0, 10**6), (1, 7, 64)):
            for off in (None, offset):
                sha.update(generate_batch(spec, shape, 2024, start, count, offset=off).tobytes())
            for stats in _STATS:
                for values in replica_stats(spec, shape, 2024, start, count, stats):
                    sha.update(values.tobytes())
    return sha.hexdigest()


@pytest.mark.parametrize("name", sorted(_MAKERS))
def test_generation_bits_are_pinned(name):
    assert _digest(name) == _PINNED[name]


@pytest.mark.parametrize("name", sorted(_MAKERS))
def test_specs_stay_values(name):
    # a spec is a plain value: it survives pickling, equals and hashes
    # as a fresh one (so _base_key's cache meets it again), and its
    # params, dict, JSON and stream keys are those of its variant's and
    # law's names (product_rademacher names no law: no params, law tag 0)
    variant, params, variant_tag, law_tag = _VALUES[name]
    spec, fresh = _MAKERS[name](2), _MAKERS[name](2)
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec == fresh and hash(copy) == hash(spec) == hash(fresh)
    assert copy.params == tuple(sorted(params.items()))
    want = {"variant": variant, "d": 2, "params": params}
    assert spec_to_dict(copy) == want and spec_to_json(copy) == json.dumps(want, sort_keys=True)
    for axis in (0, 1, 2):
        assert generators._base_key(copy, 9, axis) == _rng.stream_key(9, variant_tag, law_tag,
                                                                       axis)


def _log_power_digest() -> str:
    """sha256 over the float64 log and powers the Weibull map takes, on a
    grid of uniforms: where numpy dispatches them to loops that round
    differently, this digest moves with the Weibull streams."""
    u = np.arange(1, 1 << 16) / float(1 << 16)
    sha = hashlib.sha256(np.log(u).tobytes())
    for p in (1.0 / 0.7, 0.5, 1.0):
        sha.update(np.power(u, p).tobytes())
    return sha.hexdigest()


def _lower_simd_levels() -> list:
    """The sets of dispatch targets to disable, one per level this CPU
    offers below the one numpy runs at here: every target from one of
    those numpy uses up to the highest."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    on = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
    return [tuple(on[i:]) for i in range(len(on))]


_CHILD = """
import json
from orthofield.bounds import recurse_constants
from test_generation_bits import _PINNED, _digest, _log_power_digest
print(json.dumps({"digests": {name: _digest(name) for name in _PINNED},
                  "d2": recurse_constants(2).to_dict(), "log_power": _log_power_digest()}))
"""


@functools.lru_cache(maxsize=None)
def _at_level(disabled: tuple) -> dict:
    """The pinned digests, the d = 2 constants and _log_power_digest,
    recomputed in a child process with the dispatch targets `disabled`
    turned off for the child alone."""
    env = dict(os.environ)
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(
        env.get("NPY_DISABLE_CPU_FEATURES", "").split() + list(disabled))
    src = os.path.dirname(os.path.dirname(os.path.abspath(_rng.__file__)))
    env["PYTHONPATH"] = os.pathsep.join([src, os.path.dirname(os.path.abspath(__file__))])
    done = subprocess.run([sys.executable, "-c", _CHILD], env=env, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout)


_LEVELS = [] if "NPY_ENABLE_CPU_FEATURES" in os.environ else _lower_simd_levels()
_WEIBULL = ("iid_weibull", "decoupled_weibull", "moving_average_weibull")


@pytest.mark.parametrize("name", sorted(_PINNED) + ["constants_d2"])
@pytest.mark.parametrize("disabled", _LEVELS or [None],
                         ids=lambda t: "without-" + t[0] if t else "none")
def test_pins_hold_at_lower_simd_levels(disabled, name, request):
    # numpy picks its float64 loops by CPU; the streams and the d = 2
    # constants must not depend on the pick.  The Weibull map's log and
    # power do (ROADMAP item 4): where they round differently from here,
    # its three pins are expected to fail.
    if disabled is None:
        pytest.skip("numpy runs no dispatch target above its baseline here (or "
                    "NPY_ENABLE_CPU_FEATURES is set), so there is no lower level to run")
    got = _at_level(disabled)
    if name == "constants_d2":
        from test_bounds import D2_CONSTANTS

        assert got["d2"] == D2_CONSTANTS
        return
    if name in _WEIBULL and got["log_power"] != _log_power_digest():
        request.applymarker(pytest.mark.xfail(
            strict=True, reason="numpy's log/power dispatch, ROADMAP item 4"))
    assert got["digests"][name] == _PINNED[name]


@pytest.mark.parametrize("seed", [0, -1, 2**63, 2**64 - 1])
def test_stream_key_equals_the_array_fold(seed):
    # stream_key on a seed, and the array fold of the same words from
    # mix64(seed + gamma) = fold(seed, 0) on, against the scalar reference
    labels = ("sheet-pairs", 7, "exponent-fit")
    words = [_rng._label_word(label) for label in labels]
    want = scalar_hash.stream_key(seed & scalar_hash.MASK, *words)
    h = _rng.fold(np.array([seed]), 0)
    for word in words:
        h = _rng.fold(h, np.uint64(word))
    assert int(h[0]) == want
    assert int(_rng.stream_key(seed, *labels)) == want


# one block of 4096-cell replicas, as replica_stats plans it
_BLOCK = _block_size(4096, "lattice")
_BLOCK_BYTES = _BLOCK * 4096 * 8


@pytest.mark.parametrize("shape", [(64, 64), (4096, 1), (1, 4096)], ids=lambda s: "%dx%d" % s)
@pytest.mark.parametrize("name", sorted(_MAKERS))
def test_a_block_holds_at_most_three_block_arrays(name, shape, peak_bytes):
    # one block of 4096-cell replicas: one block array, or twice that
    # where a moving average extends an axis of extent 1, and the
    # extended axis of 64x64 adds a sixty-fourth.  The fold, the value
    # maps, a product's factors and a moving average's sum run in place
    # on it (with a last axis of extent 1 the fold runs on its
    # block-sized rows), each with a scratch of at most a quarter block.
    # A quarter of a block covers what a call holds once whatever its
    # replicas: the site coordinates of an axis of 4096 or 4097 sites and
    # their premixed words, and the two 64 KiB buffers numpy's iterator
    # takes for a broadcast xor over a short last axis (on 4096x1, a
    # moving average's last fold holds its rows, its two-block result
    # and those buffers at once).
    spec = _MAKERS[name](2)
    axis = spec.param("axis")
    block = _BLOCK_BYTES * (2 if axis and shape[axis - 1] == 1 else 1)
    for stats in (None, ("total",), ("max", "total", "slab")):
        if stats is None:
            peak = peak_bytes(lambda: generate_batch(spec, shape, 5, 0, _BLOCK))
        else:
            peak = peak_bytes(lambda: replica_stats(spec, shape, 5, 0, _BLOCK, stats))
        assert peak <= 1.5 * block + _BLOCK_BYTES // 4, (stats, peak / block)


@pytest.mark.parametrize("shape", [(64, 64), (4096, 1), (1, 4096)], ids=lambda s: "%dx%d" % s)
@pytest.mark.parametrize("name", ["iid_gaussian", "iid_rademacher", "iid_weibull", "zero"])
def test_a_lone_total_holds_two_block_arrays(name, shape, peak_bytes):
    # the fold's words and scratch, or the values and a row slice's
    # running sum: batch_total drops a lattice axis of extent 1 rather
    # than copy the block, and on (4096, 1) the last fold runs in place
    # on the block-sized words of the axes before it
    peak = peak_bytes(lambda: replica_stats(_MAKERS[name](2), shape, 3, 0, _BLOCK, ("total",)))
    assert peak <= 1.5 * _BLOCK_BYTES, peak / _BLOCK_BYTES


def test_a_direct_call_is_bounded_by_its_blocks(peak_bytes):
    # 2000 replicas run in blocks of _BLOCK, so the peak is that of one
    # block and a span's row words, not of one 2000-replica array (62
    # block arrays)
    peak = peak_bytes(lambda: replica_stats(iid_gaussian(2), (64, 64), 3, 0, 2000, ("max",)))
    assert peak <= 1.5 * _BLOCK_BYTES, peak / _BLOCK_BYTES
