"""Random field generators on rectangular lattices.

All variants produce centered fields whose value at a site is a pure
function of (master seed, replica, variant stream, absolute site
coordinates), see _rng.  That buys three things at once: replicas are
reproducible under any batching, translated windows of the same
infinite field can be evaluated directly (generate_batch's offset,
which the README's Determinism section relies on), and the product
variants derive their per-axis factor streams in one routine
(_factor_streams), whose outer product is the field.

replica_stats is the one block reduction of the Monte Carlo
experiments: per replica it returns only the statistics of the partial
sums S_k its caller reads, out of max_k |S_k| ("max"), the signed S_n
("total") and max |S_k| over the last slab k_d = n_d ("slab").  It runs
any replica range in budgeted blocks, threaded or not through
lattice._map_blocks, so a direct call holds no more memory than one
block and one span's row words.  The words of a block come from _rng,
which owns the premix, in-place and top-bit contracts of the hash:
_rng.row_words folds the replica and every lattice axis but the last,
and _rng.last_fold spreads them over the last axis.  Since
every word is a pure function of its counters, an iid or moving-average
field's blocks run in spans of whole blocks (lattice._span_size): a
span folds the row words of all its replicas once, at most
_BLOCK_CELLS // 8 of them, and each block then runs only its last fold,
its value map and its reduction, so a block's numpy calls work on
arrays of the block's size (apart from its per-replica results and
batch_total's last-axis running sum), and two worker threads do not
trade the interpreter lock over small arrays.  The values take the float
path: lattice.batch_prefix when "max" or "slab" is asked for, and
lattice.batch_total when only "total" is.  An iid Rademacher field's
lone "total" is a sign count instead: S_n = cells - 2 #{sites of value
-1}, read off the top bits of the block's hash words without mapping
them to values (_rng.sign_total).  Every partial sum of +-1 terms is
an integer below 2^53, so the count equals batch_total's sum bit for
bit.

A caller that only asks whether max_k |S_k| exceeds thresholds t >= f
may pass the floor f: the "max" column is then max(f, max_k |S_k|) on
every route, which exceeds each such t exactly when max_k |S_k| does.
An iid Rademacher field's lone "max" uses the floor as a screen.  With
P_n and M_n the counts of +1 and -1 sites, every box sum lies in
[-M_n, P_n], so max_k |S_k| <= max(P_n, M_n) = (|n| + |S_n|) / 2.  A
block reads S_n off its top-bit words, as the lone "total" does, and
writes f for every replica whose bound is at most f; only the replicas
left open hash their row words again and take the float path.

Product fields factorize, S_k = prod_q P^(q)_(k_q) with P^(q) the
cumulative sum of axis q's factor stream, so their statistics are
products of per-axis ones, multiplied in axis order:

    max   = prod_q max |P^(q)|
    total = prod_q P^(q)_(n_q)
    slab  = (prod_(q<d) max |P^(q)|) |P^(d)_(n_d)|

which costs O(sum n_q) per replica instead of O(prod n_q).  With +-1
factors every term is an exact integer, so Rademacher products give the
float path's values bit for bit; Gaussian and Weibull decoupled products
round differently, by a few 1e-15 x max |S| per replica.

generate_batch is the one way to draw fields: a single replica is
generate_batch(spec, shape, seed, r, 1)[0].  zero_field, the all-zero
control a config can name, has no caller in the package.  The Monte
Carlo conditional-centering screen behind the field classes below is a
test oracle (tests/single_field.py).

Variants
--------
iid_symmetric       independent symmetric values at every site
                    (rademacher, gaussian(sigma), weibull_symmetric(gamma))
product_rademacher  X_i = prod_q eps^(q)_{i_q} with +-1 axis streams
decoupled_product   same product structure with a configurable base law
moving_average      X_i = eps_i + eps_{i-e_axis}; deliberately fails the
                    one-sided conditional-centering battery on that axis
                    (the screen's negative control)
zero                degenerate all-zero field (testing hook)

The weibull_symmetric law has survival P{|X| > s} = min(1, 2 exp(-s^gamma)),
so sup_s exp(s^gamma) P{|X| > s} = 2 exactly: it sits on the boundary of
the envelope class used by the large-deviation bound.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincc
from scipy.special import ndtri

from . import _rng
from .errors import InvalidInputError, InvalidRangeError, check_number, check_object
from .lattice import (
    _block_size,
    _map_blocks,
    _span_size,
    batch_prefix,
    batch_total,
    validate_shape,
    volume,
)

_VARIANTS = ("iid_symmetric", "product_rademacher", "decoupled_product", "moving_average", "zero")
_PRODUCTS = ("product_rademacher", "decoupled_product")
_STATS = ("max", "total", "slab")
_DISTS = ("rademacher", "gaussian", "weibull_symmetric")

# stream labels folded into every key; distinct per (variant, dist) so
# different generators at the same master seed are not coupled
_VARIANT_TAG = {name: 101 + k for k, name in enumerate(_VARIANTS)}
_DIST_TAG = {name: 201 + k for k, name in enumerate(_DISTS)}


@dataclass(frozen=True, eq=True)
class GeneratorSpec:
    variant: str
    d: int
    params: tuple = field(default=())  # sorted (key, value) pairs

    def param(self, key, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default


def _make_spec(variant: str, d: int, **params) -> GeneratorSpec:
    """The spec of one variant; a param the variant does not read is an error."""
    if variant not in _VARIANTS:
        raise InvalidInputError("unknown generator variant %r" % (variant,))
    check_number("field dimension d", d, lo=1, integer=True)
    read = {}
    if variant in ("iid_symmetric", "decoupled_product", "moving_average"):
        read["dist"] = dist = params.pop("dist", None)
        if dist not in _DISTS:
            raise InvalidInputError("variant %r needs dist in %r, got %r" % (variant, _DISTS, dist))
        if dist == "gaussian":
            read["sigma"] = float(check_number(
                "gaussian sigma", params.pop("sigma", 1.0), lo=0, above=True))
        if dist == "weibull_symmetric":
            read["gamma"] = float(check_number(
                "weibull_symmetric gamma", params.pop("gamma", None), lo=0, above=True))
    if variant == "moving_average":
        read["axis"] = int(check_number(
            "moving_average axis", params.pop("axis", 1), lo=1, hi=d, integer=True))
    check_object("generator %r params" % variant, params, optional=())
    return GeneratorSpec(variant, int(d), tuple(sorted(read.items())))


def iid_rademacher(d: int) -> GeneratorSpec:
    return _make_spec("iid_symmetric", d, dist="rademacher")


def iid_gaussian(d: int, sigma: float = 1.0) -> GeneratorSpec:
    return _make_spec("iid_symmetric", d, dist="gaussian", sigma=sigma)


def iid_weibull(d: int, gamma: float) -> GeneratorSpec:
    return _make_spec("iid_symmetric", d, dist="weibull_symmetric", gamma=gamma)


def product_rademacher(d: int) -> GeneratorSpec:
    return _make_spec("product_rademacher", d)


def decoupled_product(d: int, dist: str = "rademacher", **params) -> GeneratorSpec:
    return _make_spec("decoupled_product", d, dist=dist, **params)


def moving_average(d: int, axis: int = 1, dist: str = "rademacher", **params) -> GeneratorSpec:
    return _make_spec("moving_average", d, axis=axis, dist=dist, **params)


def zero_field(d: int) -> GeneratorSpec:
    return _make_spec("zero", d)


def spec_to_dict(spec: GeneratorSpec) -> dict:
    return {"variant": spec.variant, "d": spec.d, "params": dict(spec.params)}


def spec_to_json(spec: GeneratorSpec) -> str:
    return json.dumps(spec_to_dict(spec), sort_keys=True)


def spec_from_json(text) -> GeneratorSpec:
    """The spec a JSON text (or an already decoded object) describes."""
    try:
        raw = json.loads(text) if isinstance(text, str) else text
    except json.JSONDecodeError as exc:
        raise InvalidInputError("malformed generator spec: %r" % (text,)) from exc
    check_object("generator", raw, ("variant", "d"), ("params",))
    params = check_object("generator params", raw.get("params", {}))
    return _make_spec(raw["variant"], raw["d"], **params)


def weibull_tail_sample(gamma: float, u):
    """Inverse-CDF map from uniform(0,1) to the symmetric law with
    P{|X| > s} = min(1, 2 exp(-s^gamma)).  Accepts arrays."""
    if not gamma > 0:
        raise InvalidRangeError("gamma must be positive, got %r" % gamma)
    arr = np.array(u, dtype=np.float64)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise InvalidRangeError("u must lie strictly inside (0, 1)")
    out = _weibull_values(arr.reshape(-1), float(gamma)).reshape(arr.shape)
    return out if out.ndim else float(out)


def _weibull_values(u: np.ndarray, gamma: float) -> np.ndarray:
    """weibull_tail_sample of the uniforms u, unchecked and in place:
    the magnitude (-log min(u, 1 - u))^(1/gamma) takes one new array,
    and u, shifted to u - 0.5, gives it its sign."""
    m = np.subtract(1.0, u)
    np.minimum(u, m, out=m)
    np.log(m, out=m)
    np.negative(m, out=m)
    m **= 1.0 / gamma
    u -= 0.5
    return np.copysign(m, u, out=m)


def spec_variance(spec: GeneratorSpec) -> float:
    """Site variance of the field (product variants multiply across axes),
    a positive float.  InvalidRangeError names the parameter when the
    variance is 0 (the zero field) or not a positive float (a Gaussian
    sigma whose square under- or overflows, or a Weibull gamma below
    about 0.0117, where Gamma(1 + 2/gamma) overflows)."""
    dist = spec.param("dist")
    if spec.variant == "zero":
        raise InvalidRangeError("generator variant 'zero' has site variance 0: "
                                "its normal limit is degenerate")
    if spec.variant == "product_rademacher":
        return 1.0
    if spec.variant not in ("iid_symmetric", "decoupled_product", "moving_average"):
        raise InvalidInputError("unknown variant %r" % spec.variant)
    try:
        var = _dist_variance(dist, spec)
        if spec.variant == "decoupled_product":
            var = var**spec.d
        elif spec.variant == "moving_average":
            var = 2.0 * var
    except OverflowError:
        var = math.inf
    if not 0.0 < var < math.inf:
        name = "sigma" if dist == "gaussian" else "gamma"
        raise InvalidRangeError("%s %s %r gives a site variance of %r, not a positive float"
                                % (dist, name, spec.param(name), var))
    return var


def _dist_variance(dist: str, spec: GeneratorSpec) -> float:
    if dist == "rademacher":
        return 1.0
    if dist == "gaussian":
        return float(spec.param("sigma")) ** 2
    # |X| = (ln 2 + E)^(1/gamma) with E ~ Exp(1), so
    # E X^2 = 2 Gamma(1 + 2/gamma) Q(1 + 2/gamma, ln 2)
    gamma = float(spec.param("gamma"))
    a = 1.0 + 2.0 / gamma
    return float(2.0 * math.gamma(a) * gammaincc(a, math.log(2.0)))


def _axis_coords(shape, offset):
    """Absolute 1-based coordinates per axis, shifted by the offset."""
    if offset is None:
        offset = (0,) * len(shape)
    offset = tuple(int(k) for k in offset)
    if len(offset) != len(shape):
        raise InvalidInputError("offset %r does not match shape %r" % (offset, shape))
    return [np.arange(1, n + 1, dtype=np.int64) + k for n, k in zip(shape, offset)]


def _site_coords(spec: GeneratorSpec, coords) -> list:
    """The coordinates of the sites a block of spec's fields hashes: a
    moving average's axis gains the site before its first one."""
    if spec.variant != "moving_average":
        return coords
    q = int(spec.param("axis")) - 1
    return coords[:q] + [np.concatenate(([coords[q][0] - 1], coords[q]))] + coords[q + 1:]


def _draw(rows: np.ndarray, last: np.ndarray, spec: GeneratorSpec) -> np.ndarray:
    """A block of spec's iid or moving-average fields, or of one product
    axis's factor streams, from its row words and last word: the last
    fold, then the value map of the law, in place on the words.  A
    Rademacher draw reads only the top bit, so its words are top-bit
    words (see _rng).  The caller hands the rows over: where the fold
    runs in place on them (a last axis of extent 1), this frame then
    holds the words alone, and the del frees them before the Gaussian or
    Weibull map makes its array.  A moving average adds each site's
    value to the one before it on the extended axis."""
    dist = spec.param("dist", "rademacher")  # product_rademacher names no law
    h = _rng.last_fold(rows, last, dist == "rademacher")
    del rows
    if dist == "rademacher":
        vals = _rng.sign_pm1(h)
    else:
        vals = _rng.uniform01(h)
        del h
        if dist == "gaussian":
            ndtri(vals, out=vals)
            vals *= float(spec.param("sigma"))
        else:
            vals = _weibull_values(vals, float(spec.param("gamma")))
    if spec.variant != "moving_average":
        return vals
    axis = int(spec.param("axis"))
    lead = (slice(None),) * axis + (slice(1, None),)
    lag = (slice(None),) * axis + (slice(0, -1),)
    return vals[lead] + vals[lag]


def _base_key(spec: GeneratorSpec, master_seed: int, axis: int):
    dist = spec.param("dist")
    dist_tag = _DIST_TAG.get(dist, 0)
    return _rng.stream_key(master_seed, _VARIANT_TAG[spec.variant], dist_tag, axis)


def _factor_words(spec: GeneratorSpec, master_seed: int, coords) -> list:
    """The stream key and premixed last word of each axis of a product
    variant, as _factor_streams takes them."""
    return [(_base_key(spec, master_seed, q + 1), _rng.last_word([c]))
            for q, c in enumerate(coords)]


def _factor_streams(spec: GeneratorSpec, words, reps: np.ndarray) -> list:
    """The per-axis factors of a product variant, one (count, n_q) array
    per axis from its _factor_words; the field is their outer product."""
    return [_draw(_rng.row_words(key, reps, []), last, spec) for key, last in words]


def _check_block(spec: GeneratorSpec, shape, start: int, count: int) -> tuple:
    """The validated shape of a block of count >= 1 replicas from start >= 0
    (a negative index would alias replica 2^64 + start in the hash)."""
    shape = validate_shape(shape)
    if len(shape) != spec.d:
        raise InvalidInputError("spec has d=%d but shape is %r" % (spec.d, shape))
    if start < 0:
        raise InvalidInputError("replica start must be >= 0, got %r" % (start,))
    if count < 1:
        raise InvalidInputError("count must be >= 1")
    if spec.variant not in _VARIANTS:
        raise InvalidInputError("unknown generator variant %r" % (spec.variant,))
    return shape


def generate_batch(
    spec: GeneratorSpec,
    shape,
    master_seed: int,
    replica_start: int,
    count: int,
    offset=None,
) -> np.ndarray:
    """Fields for replicas [replica_start, replica_start + count) as an
    array of shape (count, n_1, ..., n_d).  With an offset k (one integer
    per axis) the window is [1 + k, n + k] of the same infinite field."""
    shape = _check_block(spec, shape, replica_start, count)
    reps = np.arange(replica_start, replica_start + count, dtype=np.int64)
    coords = _axis_coords(shape, offset)

    if spec.variant == "zero":
        return np.zeros((count,) + shape, dtype=np.float64)

    if spec.variant in _PRODUCTS:
        words = _factor_words(spec, master_seed, coords)
        out = np.ones((count,) + shape, dtype=np.float64)
        for q, vals in enumerate(_factor_streams(spec, words, reps)):
            shape_q = [1] * (spec.d + 1)
            shape_q[0] = count
            shape_q[q + 1] = shape[q]
            out *= vals.reshape(shape_q)
        return out

    coords = _site_coords(spec, coords)
    return _draw(_rng.row_words(_base_key(spec, master_seed, 0), reps, coords[:-1]),
                 _rng.last_word(coords), spec)


def _axis_product(factors) -> np.ndarray:
    """The product of per-replica arrays, multiplied in axis order."""
    out = factors[0].copy()
    for f in factors[1:]:
        out *= f
    return out


def replica_stats(spec: GeneratorSpec, shape, seed: int, start: int, count: int,
                  stats, threads: int = 1, floor=None) -> tuple:
    """The partial-sum statistics named in stats (a subset of "max",
    "total" and "slab", see the module docstring) of replicas
    [start, start + count), one array of count values per name in that
    order, gathered in block order from tasks run on up to `threads`
    threads.  A block is sized by its largest array per replica: sum n_q
    cells for the per-axis streams of a product field, |n| otherwise.
    A product field's task is one block; an iid or moving-average
    field's task is a span of blocks (lattice._span_size), which hashes
    its row words once and then runs each block's last fold and
    reduction.  The key, the coordinate words and the checks are taken
    once per call.  With a floor (a number, not NaN) the "max" column
    holds max(floor, max_k |S_k|), which exceeds any threshold t >= floor
    exactly when max_k |S_k| does; an iid Rademacher field's lone "max"
    then skips the prefix sums of replicas whose sign count bounds their
    maximum by the floor (the module docstring's screen)."""
    stats = tuple(stats)
    if not stats or any(name not in _STATS for name in stats):
        raise InvalidInputError("stats must name some of %r, got %r" % (_STATS, stats))
    if floor is not None and (isinstance(floor, bool) or not isinstance(floor, numbers.Real)
                              or math.isnan(floor)):
        raise InvalidInputError("floor must be a number, not %r" % (floor,))
    shape = _check_block(spec, shape, start, count)
    coords = _axis_coords(shape, None)
    if spec.variant in _PRODUCTS:
        words = _factor_words(spec, seed, coords)
        tasks = range(start, start + count, _block_size(sum(shape), "lattice"))
        run = lambda first, size: _product_stats(spec, words, first, size, stats)
    elif spec.variant == "zero":
        tasks = range(start, start + count, _block_size(volume(shape), "lattice"))
        run = lambda first, size: _field_stats(np.zeros((size,) + shape), stats)
    else:
        coords = _site_coords(spec, coords)
        key, last = _base_key(spec, seed, 0), _rng.last_word(coords)
        block = _block_size(volume(shape), "lattice")
        rows = volume(len(c) for c in coords[:-1])
        tasks = range(start, start + count, _span_size(block, rows, count))
        run = lambda first, size: _span_stats(spec, key, coords[:-1], last, block,
                                              first, size, stats, floor)
    parts = _map_blocks(run, tasks, threads)
    columns = tuple(np.concatenate(column) for column in zip(*parts))
    if floor is not None and "max" in stats:
        peaks = columns[stats.index("max")]
        np.maximum(peaks, floor, out=peaks)
    return columns


def _product_stats(spec: GeneratorSpec, words, start: int, count: int, stats: tuple) -> tuple:
    """replica_stats of one block of a product field, from the per-axis
    prefixes of its factor streams."""
    reps = np.arange(start, start + count, dtype=np.int64)
    prefixes = [batch_prefix(vals) for vals in _factor_streams(spec, words, reps)]
    peaks = [np.abs(p).max(axis=1) for p in prefixes]
    ends = [p[:, -1] for p in prefixes]
    factors = {"max": peaks, "total": ends, "slab": peaks[:-1] + [np.abs(ends[-1])]}
    return tuple(_axis_product(factors[name]) for name in stats)


def _span_stats(spec: GeneratorSpec, key, lead, last, block: int, start: int, count: int,
                stats: tuple, floor=None) -> tuple:
    """replica_stats of the span [start, start + count) of an iid or
    moving-average field: its row words once, then per block of `block`
    replicas the last fold, the values and their reduction.  An iid
    Rademacher field's lone "total" is the sign count of the module
    docstring, read off the top-bit words, and with a floor its lone
    "max" runs _screened_max, the module docstring's screen.  The span
    drops its own reference to the rows, so a span of one block hands
    them over to the block with its one view (see _draw)."""
    rows = _rng.row_words(key, np.arange(start, start + count, dtype=np.int64), lead)
    views = [rows[lo:lo + block] for lo in range(0, count, block)]
    del rows
    rademacher = spec.variant == "iid_symmetric" and spec.param("dist") == "rademacher"
    signs = rademacher and stats == ("total",)
    screen = rademacher and stats == ("max",) and floor is not None
    parts = []
    for first in range(start, start + count, block):
        if signs:
            parts.append((_rng.sign_total(_rng.last_fold(views.pop(0), last, True)),))
        elif screen:
            parts.append((_screened_max(spec, key, lead, last, views.pop(0), first, floor),))
        else:
            parts.append(_field_stats(_draw(views.pop(0), last, spec), stats))
    return tuple(np.concatenate(column) for column in zip(*parts))


def _screened_max(spec: GeneratorSpec, key, lead, last, rows: np.ndarray, first: int,
                  floor) -> np.ndarray:
    """The "max" of a block of iid Rademacher replicas first, first + 1,
    ... from their handed-over rows: the floor wherever the sign count's
    bound (|n| + |S_n|) / 2 on max_k |S_k| is at most the floor, and the
    float path's value for the replicas left open (replica_stats raises
    those to the floor).  The open replicas' rows are hashed again from
    the key, never read back: the last fold may have run in place on the
    rows given."""
    h = _rng.last_fold(rows, last, True)
    del rows
    bound = 0.5 * (h[0].size + np.abs(_rng.sign_total(h)))
    del h
    out = np.full(len(bound), floor, dtype=np.float64)
    open_ = np.flatnonzero(bound > floor)
    if open_.size:
        reps = first + open_.astype(np.int64)
        peaks, = _field_stats(_draw(_rng.row_words(key, reps, lead), last, spec), ("max",))
        out[open_] = peaks
    return out


def _field_stats(fields: np.ndarray, stats: tuple) -> tuple:
    """The statistics of a block of fields, over their prefix sums in
    place or, for a lone "total", batch_total.  Every array is a copy,
    so none keeps a block-sized array alive."""
    if stats == ("total",):
        return (batch_total(fields),)
    absp = batch_prefix(fields)
    out = {}
    if "total" in stats:
        out["total"] = absp[(slice(None),) + (-1,) * (absp.ndim - 1)].copy()
    np.abs(absp, out=absp)
    if "max" in stats:
        out["max"] = absp.max(axis=tuple(range(1, absp.ndim)))
    if "slab" in stats:
        out["slab"] = absp[..., -1].reshape(len(absp), -1).max(axis=1)
    return tuple(out[name] for name in stats)
