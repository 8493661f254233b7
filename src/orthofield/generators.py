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

The floor.  A caller that asks for a lone "max" or "total" and reads
only whether it exceeds thresholds t >= f may pass the floor f.  The
column then holds max(f, max_k |S_k|) or max(f, |S_n|) on every route,
which exceeds every such t exactly when the statistic does; a floor
with any other request is an InvalidInputError.  An iid field uses
the floor as a screen.  A block hashes top-bit words only (see _rng)
and bounds each replica's statistic from them; it writes f for every
replica whose bound is at most f, and only the replicas left open hash
their row words again and take the float path, so every value keeps
its bits.  Each screen decision has one rule: the floor sizes a
Rademacher maximum's sign count, the table's means alone decide
whether a Gaussian or Weibull block runs the chunk stage, and a span
stops screening after a block that clears fewer than 3/4 of its
replicas.  Each law has its own bounds:

- Rademacher maximum: among any m sites, with P and M the counts of
  +1 and -1 sites and S_m their sum, those sites add between -M and P
  to any box sum, and the other |n| - m add at most |n| - m in
  magnitude, so

      max_k |S_k| <= max(P, M) + (|n| - m) = (m + |S_m|) / 2 + (|n| - m).

  The screen counts the signs of a leading slab of whole rows of the
  last axis, about m = 2 (|n| - f) + 4 sqrt(|n|) sites (_sign_slab),
  all of them where that reaches |n|.  A replica stays open, and takes
  the float path, only if |S_m| passes 4 sqrt(|n|); below |n| sites
  that is at least four standard deviations of S_m, at most about 6e-5
  of replicas.  A floor f >= |n| hashes nothing, and a lone total is
  the sign count itself.
- Gaussian and Weibull: a bracket table (_brackets), built once per
  spec, holds for each bucket of words, their top _BUCKET_BITS bits,
  one complex entry c + i h: a midpoint c and a half-width h with
  |x - c| <= h for the value x of every word in it.  A block gathers
  each site's entry once, and with W the replica's sum of h, v the
  table's largest |c| + h, and fl S_k a prefix sum as batch_prefix
  rounds it, the fine bound is

      max_k |fl S_k(x)| <= M + W + eps_2,  M = max_k |fl S_k(c)|,
      eps_k = 2 g (k |n| v + W + M),  g = (|n| + 2) 2^-53,

  and the same holds for |S_n| as batch_total rounds it, with M the
  magnitude of the real part of the entries' complex sum, whose
  imaginary part is W.  eps_k covers the rounding of k sums of at most
  |n| terms: any summation of them errs by at most gamma_(|n|-1) times
  the sum of their magnitudes (Higham 2002, 4.2), which |n| v bounds
  for x, c and |c| alike; the factor 2 spares g (W + M) for the
  rounding of W, of eps and of the final additions.  The chunk stage
  of a maximum cuts a last axis that _CHUNK divides into chunks of
  _CHUNK sites.  With T and A the chunk sums of the midpoints and of
  their magnitudes, P_T the prefix array of T, and i' the sites of the
  other axes, a box ends inside some chunk a, and its part there lies
  in that chunk's strip, whose mass is sum_i' A(i', a), so

      max_k |fl S_k(x)| <= M + W + eps_3,
      M = max |fl P_T| + max_a fl sum_i' A(i', a).

  P_T sums a box's midpoints in another order, and the strip masses
  are sums of nonnegative terms, so with the float path's own sum the
  chunk bound carries three roundings.  It costs one gather per site,
  strided adds, and a prefix sum over one entry per chunk; only the
  replicas it leaves open gather their midpoints again for the fine
  bound's full prefix sums.  The strip mass keeps the chunk bound well
  above the fine one, so a block runs the chunk stage only where the
  floor passes the chunk bound of an average replica, read off the
  table's means (_bracket_screen); below that it would clear too few
  replicas to pay for itself.

Product fields factorize, S_k = prod_q P^(q)_(k_q) with P^(q) the
cumulative sum of axis q's factor stream, so their statistics are
products of per-axis ones, multiplied in axis order:

    max   = prod_q max |P^(q)|
    total = prod_q P^(q)_(n_q)
    slab  = (prod_(q<d) max |P^(q)|) |P^(d)_(n_d)|

which costs O(sum n_q) per replica instead of O(prod n_q).  With +-1
factors every term is an exact integer, so Rademacher products give the
float path's values bit for bit; Gaussian and Weibull decoupled products
round differently, by a few 1e-15 x max |S| per replica.  The zero
field's statistics are zero arrays, with no block built.

A GeneratorSpec checks itself when it is built, so everything here
takes a spec as valid; _per_site alone scales a law to a variant's site.

generate_batch is the one way to draw fields: a single replica is
generate_batch(spec, shape, seed, r, 1)[0].  zero_field, the all-zero
control a config can name, has no caller in the package.  The Monte
Carlo conditional-centering battery the variants below pass or fail is
a test oracle (tests/single_field.py), not part of the replica screen.

Variants
--------
iid_symmetric       independent symmetric values at every site
                    (rademacher, gaussian(sigma), weibull_symmetric(gamma))
product_rademacher  X_i = prod_q eps^(q)_{i_q} with +-1 axis streams
decoupled_product   same product structure with a configurable base law
moving_average      X_i = eps_i + eps_{i-e_axis}; deliberately fails the
                    one-sided conditional-centering battery on that axis
                    (the battery's negative control)
zero                degenerate all-zero field (testing hook)

The weibull_symmetric law has survival P{|X| > s} = min(1, 2 exp(-s^gamma)),
so sup_s exp(s^gamma) P{|X| > s} = 2 exactly: it sits on the boundary of
the envelope class used by the large-deviation bound.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincc
from scipy.special import ndtri

from . import _rng, lattice
from .errors import (
    InvalidInputError,
    InvalidRangeError,
    check_number,
    check_object,
    quote,
    read_json,
)
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

# The bracket screen's buckets are the top 12 bits of a hash word; any
# of the top 31 would be exact (see _rng: top-bit words keep bits 33-63).
# The sum W of a replica's half-widths shrinks about fourfold per two
# bits, and the table grows fourfold: at 10, 12 and 14 bits W is about
# 132, 33 and 8 on a 64x256 Gaussian replica, with complex tables of 16,
# 64 and 256 KiB.  At 12, W is small beside max_k |S_k| itself, and the
# table sits in L2 beside a block's 1 MiB arrays.
_BUCKET_BITS = 12
_BRACKET_ULPS = 16  # the half-widths' margin for value maps rounded out of order
_CHUNK = 8  # sites of the last axis per chunk of the chunk bound


@dataclass(frozen=True, eq=True)
class GeneratorSpec:
    """A variant, its dimension d and the params it reads (a mapping or
    (key, value) pairs), checked when built; params become sorted pairs."""

    variant: str
    d: int
    params: tuple = field(default=())  # sorted (key, value) pairs

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise InvalidInputError("unknown generator variant %s" % quote(self.variant))
        variant, d = self.variant, check_number("field dimension d", self.d, lo=1, integer=True)
        try:
            params = dict(self.params)
        except (TypeError, ValueError):
            raise InvalidInputError("generator %r params must be (key, value) pairs, not %s"
                                    % (variant, quote(self.params))) from None
        read = {}
        if variant in ("iid_symmetric", "decoupled_product", "moving_average"):
            read["dist"] = dist = params.pop("dist", None)
            if dist not in _DISTS:
                raise InvalidInputError("variant %r needs dist in %r, got %s"
                                        % (variant, _DISTS, quote(dist)))
            if dist == "gaussian":
                read["sigma"] = float(check_number(
                    "gaussian sigma", params.pop("sigma", 1.0), lo=0, above=True))
            if dist == "weibull_symmetric":
                read["gamma"] = float(check_number(
                    "weibull_symmetric gamma", params.pop("gamma", None), lo=0, above=True))
        if variant == "moving_average":
            read["axis"] = check_number(
                "moving_average axis", params.pop("axis", 1), lo=1, hi=d, integer=True)
        check_object("generator %r params" % variant, params, optional=())
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "params", tuple(sorted(read.items())))

    def param(self, key, default=None):
        return dict(self.params).get(key, default)


def iid_rademacher(d: int) -> GeneratorSpec:
    return GeneratorSpec("iid_symmetric", d, {"dist": "rademacher"})


def iid_gaussian(d: int, sigma: float = 1.0) -> GeneratorSpec:
    return GeneratorSpec("iid_symmetric", d, {"dist": "gaussian", "sigma": sigma})


def iid_weibull(d: int, gamma: float) -> GeneratorSpec:
    return GeneratorSpec("iid_symmetric", d, {"dist": "weibull_symmetric", "gamma": gamma})


def product_rademacher(d: int) -> GeneratorSpec:
    return GeneratorSpec("product_rademacher", d)


def decoupled_product(d: int, dist: str = "rademacher", **params) -> GeneratorSpec:
    return GeneratorSpec("decoupled_product", d, dict(params, dist=dist))


def moving_average(d: int, axis: int = 1, dist: str = "rademacher", **params) -> GeneratorSpec:
    return GeneratorSpec("moving_average", d, dict(params, axis=axis, dist=dist))


def zero_field(d: int) -> GeneratorSpec:
    return GeneratorSpec("zero", d)


def spec_to_dict(spec: GeneratorSpec) -> dict:
    return {"variant": spec.variant, "d": spec.d, "params": dict(spec.params)}


def spec_to_json(spec: GeneratorSpec) -> str:
    return json.dumps(spec_to_dict(spec), sort_keys=True)


def spec_from_json(text) -> GeneratorSpec:
    """The spec a JSON text (or an already decoded object) describes."""
    raw = read_json("generator spec", text) if isinstance(text, str) else text
    check_object("generator", raw, ("variant", "d"), ("params",))
    params = check_object("generator params", raw.get("params", {}))
    return GeneratorSpec(raw["variant"], raw["d"], params)


def _weibull_values(u: np.ndarray, gamma: float) -> np.ndarray:
    """The weibull_symmetric law's inverse-CDF map of the uniforms u in
    (0, 1), unchecked and in place, slice by slice (lattice._slices): a
    slice's magnitudes (-log min(u, 1 - u))^(1/gamma) take a scratch of
    its size, and the slice, shifted to u - 0.5, gives them their sign
    as they are copied back over it."""
    for part in lattice._slices(u):
        m = np.subtract(1.0, part)
        np.minimum(part, m, out=m)
        np.log(m, out=m)
        np.negative(m, out=m)
        m **= 1.0 / gamma
        part -= 0.5
        np.copysign(m, part, out=part)
        del m  # the next slice's scratch must not meet this one alive
    return u


def _law_values(u: np.ndarray, spec: GeneratorSpec) -> np.ndarray:
    """The value map of spec's Gaussian or Weibull law on the uniforms u,
    which it overwrites: sigma ndtri(u), or _weibull_values."""
    if spec.param("dist") == "gaussian":
        ndtri(u, out=u)
        u *= float(spec.param("sigma"))
        return u
    return _weibull_values(u, float(spec.param("gamma")))


def spec_variance(spec: GeneratorSpec) -> float:
    """Site variance of the field (_per_site of its law's variance), a
    positive float.  InvalidRangeError names the parameter when the
    variance is 0 (the zero field) or not a positive float (a Gaussian
    sigma whose square under- or overflows, or a Weibull gamma below
    about 0.0117, where Gamma(1 + 2/gamma) overflows)."""
    if spec.variant == "zero":
        raise InvalidRangeError("generator variant 'zero' has site variance 0: "
                                "its normal limit is degenerate")
    dist = spec.param("dist", "rademacher")  # product_rademacher names no law
    try:
        var = _per_site(spec, _dist_variance(dist, spec))
    except OverflowError:
        var = math.inf
    if not 0.0 < var < math.inf:
        name = "sigma" if dist == "gaussian" else "gamma"
        raise InvalidRangeError("%s %s %r gives a site variance of %r, not a positive float"
                                % (dist, name, spec.param(name), var))
    return var


def _per_site(spec: GeneratorSpec, x):
    """A law's variance or largest magnitude x at one site of spec's field."""
    if spec.variant in _PRODUCTS:
        return x**spec.d
    return 2 * x if spec.variant == "moving_average" else x


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
    return [np.arange(1, n + 1, dtype=np.int64) + int(k) for n, k in zip(shape, offset)]


def _site_coords(spec: GeneratorSpec, coords) -> list:
    """The coordinates of the sites a block of spec's fields hashes: a
    moving average's axis gains the site before its first one."""
    if spec.variant != "moving_average":
        return coords
    q = int(spec.param("axis")) - 1
    return coords[:q] + [np.concatenate(([coords[q][0] - 1], coords[q]))] + coords[q + 1:]


def _signs(spec: GeneratorSpec) -> bool:
    """Whether spec's law is Rademacher, whose draw reads only the top bit
    of its words, so that its last fold makes top-bit words (see _rng)."""
    return spec.param("dist", "rademacher") == "rademacher"  # product_rademacher names no law


def _draw(h: np.ndarray, spec: GeneratorSpec) -> np.ndarray:
    """A block of spec's iid or moving-average fields, or of one product
    axis's factor streams, from its words h, which the caller's last fold
    makes (_rng.last_fold, top-bit words where _signs(spec)): the value
    map of the law, in place on the words, with a scratch of at most a
    quarter block (lattice._slices).  The caller folds the rows it hands
    over inline, so no frame keeps them alive once the fold has read
    them.  A moving average adds each site's value to the one before it
    on the extended axis, in place over the row slices of the values
    (lattice._row_slices), each with a copy of its lagged values; the
    result is the view of its last n sites."""
    vals = _rng.sign_pm1(h) if _signs(spec) else _law_values(_rng.uniform01(h), spec)
    if spec.variant != "moving_average":
        return vals
    axis = int(spec.param("axis"))
    lead = (slice(None),) * axis + (slice(1, None),)
    lag = (slice(None),) * axis + (slice(0, -1),)
    for part in lattice._row_slices(vals):
        part[lead] += part[lag].copy()
    return vals[lead]


@functools.lru_cache(maxsize=64)
def _base_key(spec: GeneratorSpec, master_seed: int, axis: int):
    """The stream key of spec's fields (axis 0) or of a product's axis
    factors, hashed once per spec, seed and axis rather than per block."""
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
    return [_draw(_rng.last_fold(_rng.row_words(key, reps, []), last, _signs(spec)), spec)
            for key, last in words]


def _check_block(spec: GeneratorSpec, shape, seed: int, start: int, count: int,
                 offset=None) -> tuple:
    """The validated shape, and seed, start and count as ints, of a
    block of count >= 1 replicas from start >= 0 of seed 0 <= seed <
    2^64 (others alias in the hash), with start + count <= 2^63 for the
    int64 replica axis, an offset (if any) of one integer per axis, and
    on which no sum of site values passes the float range: a site's
    value is at most _per_site of the bracket table's largest magnitude
    v (1 for a Rademacher law)."""
    shape = validate_shape(shape)
    if len(shape) != spec.d:
        raise InvalidInputError("spec has d=%d but shape is %s" % (spec.d, quote(shape)))
    v = 1.0 if spec.param("dist", "rademacher") == "rademacher" else _brackets(spec)[1]
    with np.errstate(over="ignore", invalid="ignore"):
        top = _per_site(spec, np.float64(v)) * volume(shape)
    if not top < math.inf:
        raise InvalidRangeError("%s: its site values can sum past the float range on lattice %s"
                                % (spec_to_json(spec), quote(list(shape))))
    seed = check_number("master seed", seed, lo=0, hi=2**64 - 1, integer=True)
    start = check_number("replica start", start, lo=0, hi=2**63 - 1, integer=True)
    count = check_number("replica count", count, lo=1, hi=2**63 - start, integer=True)
    if offset is not None:
        if len(offset) != len(shape):
            raise InvalidInputError("offset %s does not match shape %s"
                                    % (quote(offset), quote(shape)))
        for n, k in zip(shape, offset):  # the window's coordinates k + 1 to k + n are int64
            check_number("offset entry", k, lo=-2**63, hi=2**63 - 1 - n, integer=True)
    return shape, seed, start, count


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
    shape, master_seed, replica_start, count = _check_block(
        spec, shape, master_seed, replica_start, count, offset)
    reps = np.arange(replica_start, replica_start + count, dtype=np.int64)
    coords = _axis_coords(shape, offset)

    if spec.variant == "zero":
        return np.zeros((count,) + shape, dtype=np.float64)

    if spec.variant in _PRODUCTS:
        words = _factor_words(spec, master_seed, coords)
        axes = [vals.reshape((count,) + (1,) * q + (-1,) + (1,) * (spec.d - q - 1))
                for q, vals in enumerate(_factor_streams(spec, words, reps))]
        return functools.reduce(_times, axes)

    coords = _site_coords(spec, coords)
    key, last = _base_key(spec, master_seed, 0), _rng.last_word(coords)
    return _draw(_rng.last_fold(_rng.row_words(key, reps, coords[:-1]), last, _signs(spec)), spec)


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b, in place on whichever of them already has the product's
    shape (a product field's factors, multiplied in axis order)."""
    shape = np.broadcast_shapes(a.shape, b.shape)
    return np.multiply(a, b, out=a if a.shape == shape else b if b.shape == shape else None)


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
    once per call.  A floor (a number, not NaN) needs a lone "max" or
    "total", whose column it raises to max(floor, |statistic|); the
    module docstring's floor states the rule.  An iid field then skips
    the value map and the prefix sums of every replica whose screen
    bound is at most the floor (the module docstring's screen), and
    only the replicas left open take the float path.  Each bound is
    sound: per replica, with fl S_k the float path's prefix sums,

        max_k |fl S_k| <= (m + |S_m|) / 2 + (|n| - m)        (Rademacher)
        max_k |fl S_k(x)| <= max_k |fl S_k(c)| + W + eps_2   (fine)
        max_k |fl S_k(x)| <= max |fl P_T| + max_a fl sum_i' A(i', a)
                             + W + eps_3                      (chunk)

    and |fl S_n(x)| <= |fl S_n(c)| + W + eps_2 for a lone total, with
    S_m the sign count of the slab's m sites, the bracket midpoints c,
    their chunk sums T and A, their half-widths' sum W and the rounding
    terms eps_k of the module docstring."""
    stats = tuple(stats)
    if not stats or any(name not in _STATS for name in stats):
        raise InvalidInputError("stats must name some of %r, got %s" % (_STATS, quote(stats)))
    if floor is not None and (isinstance(floor, bool) or not isinstance(floor, numbers.Real)
                              or math.isnan(floor) or stats not in (("max",), ("total",))):
        raise InvalidInputError("a floor is a number with a lone 'max' or 'total', not %s with %s"
                                % (quote(floor), quote(stats)))
    shape, seed, start, count = _check_block(spec, shape, seed, start, count)
    coords = _axis_coords(shape, None)
    if spec.variant in _PRODUCTS:
        words = _factor_words(spec, seed, coords)
        tasks = range(start, start + count, _block_size(sum(shape), "lattice"))
        run = lambda first, size: _product_stats(spec, words, first, size, stats)
    elif spec.variant == "zero":
        tasks = range(start, start + count, count)
        run = lambda first, size: tuple(np.zeros(size) for _ in stats)
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
    if floor is not None:
        np.abs(columns[0], out=columns[0])
        np.maximum(columns[0], floor, out=columns[0])
    return columns


def _product_stats(spec: GeneratorSpec, words, start: int, count: int, stats: tuple) -> tuple:
    """replica_stats of one block of a product field, from the per-axis
    prefixes of its factor streams."""
    reps = np.arange(start, start + count, dtype=np.int64)
    prefixes = [batch_prefix(vals) for vals in _factor_streams(spec, words, reps)]
    ends = [p[:, -1].copy() for p in prefixes]
    peaks = [np.abs(p, out=p).max(axis=1) for p in prefixes]
    factors = {"max": peaks, "total": ends, "slab": peaks[:-1] + [np.abs(ends[-1])]}
    return tuple(functools.reduce(np.multiply, factors[name]) for name in stats)


def _span_stats(spec: GeneratorSpec, key, lead, last, block: int, start: int, count: int,
                stats: tuple, floor=None) -> tuple:
    """replica_stats of the span [start, start + count) of an iid or
    moving-average field: its row words once, then per block of `block`
    replicas the last fold, the values and their reduction.  An iid
    Rademacher field's lone "total" is the sign count of the module
    docstring, read off the top-bit words.  With a floor, any other iid
    field is screened: _screen_bound bounds each replica's statistic
    from its top-bit words, and _screened takes the float path only for
    the replicas whose bound passes the floor.  An open replica pays
    for the screen and the float path both, so once a block's screen
    clears fewer than 3/4 of its replicas, the span's later blocks take
    the float path alone; the values are the same either way.  The span
    drops its own reference to the rows, so a span of one block hands
    them over to the block's last fold with its one view, and a view the
    fold has read is freed before its words are mixed (see _draw)."""
    rows = _rng.row_words(key, np.arange(start, start + count, dtype=np.int64), lead)
    views = [rows[lo:lo + block] for lo in range(0, count, block)]
    del rows
    iid = spec.variant == "iid_symmetric"
    signs = iid and spec.param("dist") == "rademacher" and stats == ("total",)
    screen = iid and not signs and floor is not None
    parts = []
    for first in range(start, start + count, block):
        if signs:
            parts.append((_rng.sign_total(_rng.last_fold(views.pop(0), last, True)),))
        elif screen:
            bound = _screen_bound(spec, views.pop(0), last, stats[0], floor)
            parts.append((_screened(spec, key, lead, last, first, bound, stats[0], floor),))
            screen = 4 * np.count_nonzero(bound <= floor) >= 3 * len(bound)
        else:
            h = _rng.last_fold(views.pop(0), last, _signs(spec))
            parts.append(_field_stats(_draw(h, spec), stats))
            del h  # the next block's words must not meet these alive
    return tuple(np.concatenate(column) for column in zip(*parts))


def _screen_bound(spec: GeneratorSpec, rows: np.ndarray, last, stat: str,
                  floor: float) -> np.ndarray:
    """Per replica of a block of an iid field, from its handed-over rows,
    an upper bound on the float path's max_k |S_k| (stat "max") or |S_n|
    ("total"), read off its top-bit words at the floor: a Rademacher
    maximum's partial sign count, or a Gaussian or Weibull field's
    bracket bound (chunk stage first where the floor admits it, see
    _bracket_screen).  A floor of -inf asks for the fine bound of every
    replica.  The words' buckets are their top _BUCKET_BITS bits, read
    as int64 in place."""
    if spec.param("dist") == "rademacher":
        return _sign_bound(rows, last, floor)
    h = _rng.last_fold(rows, last, True)
    del rows
    h >>= 64 - _BUCKET_BITS
    buckets = h.view(np.int64)
    del h
    return _bracket_screen(*_brackets(spec), buckets, stat, floor)


def _sign_slab(cells: int, floor: float) -> int:
    """The sites m of a Rademacher maximum's partial sign count at the
    floor f: 2 (|n| - f) + 4 sqrt(|n|), so that a replica stays open
    only if |S_m| passes 4 sqrt(|n|), four standard deviations of the
    full count; |n|, the full count, where m would reach it, and none
    once f >= |n|, which no maximum exceeds."""
    if floor >= cells:
        return 0
    m = 2.0 * (cells - floor) + 4.0 * math.sqrt(cells)
    return cells if m >= cells else math.ceil(m)


def _sign_bound(rows: np.ndarray, last, floor: float) -> np.ndarray:
    """_screen_bound of an iid Rademacher maximum: the partial sign
    count's bound (m + |S_m|) / 2 + (|n| - m) over a leading slab of
    whole rows of the last axis, about _sign_slab(|n|, floor) cells.
    The replicas it leaves above the floor take the float path."""
    count, lead, width = len(rows), rows[0].size, last.size
    cells = lead * width
    k = min(lead, -(-_sign_slab(cells, floor) // width))
    m = k * width
    if m == 0:
        return np.full(count, float(cells))
    h = _rng.last_fold(rows.reshape(count, lead, 1)[:, :k], last.reshape(1, 1, width), True)
    return 0.5 * (m + np.abs(_rng.sign_total(h))) + (cells - m)


def _bracket_screen(table: np.ndarray, vmax: float, means: tuple, buckets: np.ndarray,
                    stat: str, floor: float) -> np.ndarray:
    """_screen_bound of an iid Gaussian or Weibull field from its bracket
    table and the buckets (count, *shape) of a block, which it
    overwrites.  Each site's entry c + i h is gathered once, in pieces.
    A total's bound is |S_n(c)| + W + eps from the gathered sums alone.
    A maximum takes the chunk bound, given a last axis that _CHUNK
    divides, only where the floor passes an average replica's chunk
    bound as the table's means E|c|, E h and E c^2 put it: a strip mass
    of rows * _CHUNK * E|c|, a W of |n| E h, and for max |P_T| two
    standard deviations of S_n, 2 sqrt(|n| E c^2).  Below that floor
    the chunk stage clears fewer than the two thirds of a block it
    needs to pay for itself (measured on 1x256, 8x256, 64x64 and 64x256
    Gaussian lattices).  The full midpoint prefix then runs only for
    the replicas the chunk bound leaves open, whose entries are gathered
    again; its midpoints overwrite its buckets as they are gathered."""
    shape, count, cells = buckets.shape[1:], len(buckets), buckets[0].size
    buckets = buckets.reshape(count, cells)
    if stat == "total":
        sums = _bracket_sums(table, buckets)
        return _bracket_bound(np.abs(sums.real), sums.imag, cells, vmax, 2)
    bound, open_ = np.empty(count), np.arange(count)
    mass, half, square = means
    typical = (cells // shape[-1] * _CHUNK * mass + cells * half
               + 2.0 * math.sqrt(cells * square))
    if shape[-1] % _CHUNK == 0 and typical < floor:
        chunks, strips = _chunk_sums(table, buckets.reshape(-1))
        widths = np.add.reduce(chunks.imag.reshape(count, -1), axis=1)
        bound = _bracket_bound(_chunk_peaks(chunks.real, strips, count, shape), widths,
                               cells, vmax, 3)
        del chunks, strips
        open_ = np.flatnonzero(~(bound <= floor))
        if open_.size < count:  # the open replicas' buckets move to the front
            buckets[:open_.size] = buckets[open_]
    if open_.size:
        mids = buckets[:open_.size].view(np.float64)
        widths = _bracket_sums(table, buckets[:open_.size], mids).imag
        bound[open_] = _bracket_bound(_midpoint_peaks(mids, shape), widths, cells, vmax, 2)
    return bound


def _bracket_sums(table: np.ndarray, buckets: np.ndarray, mids=None) -> np.ndarray:
    """Per replica (row of buckets), the complex sum of its table entries,
    S_n(c) + i W, gathered in pieces of at most _piece_cells() entries
    (whole replicas, or pieces of one).  With mids (buckets's buffer as
    float64), each piece's midpoints overwrite its buckets once they are
    gathered, and the pieces are half as large, so that the fine bound of
    a maximum, which runs the float path's prefix sums on the midpoints,
    holds a block and a quarter like the float path; a total's sums alone
    take the larger pieces, which cost fewer calls.  np.take's clip mode
    leaves out the bounds check of every index, all of which, top
    _BUCKET_BITS bits, are in range."""
    count, cells = buckets.shape
    size = _piece_cells() if mids is None else max(1, _piece_cells() // 2)
    if cells <= size:
        step = size // cells
        pieces = [(slice(r, r + step), slice(None)) for r in range(0, count, step)]
    else:
        pieces = [(r, slice(c, c + size)) for r in range(count) for c in range(0, cells, size)]
    sums = np.zeros(count, dtype=np.complex128)
    for piece in pieces:
        values = np.take(table, buckets[piece], mode="clip")
        sums[piece[0]] += np.add.reduce(values, axis=-1)
        if mids is not None:
            mids[piece] = values.real
        del values
    return sums


def _chunk_sums(table: np.ndarray, buckets: np.ndarray) -> tuple:
    """Per chunk of _CHUNK sites of a block's flat buckets, the complex
    sum T + i W_a of its table entries and the sum A of its midpoints'
    magnitudes, by strided adds over pieces of whole chunks, at most
    _piece_cells() entries each, a piece's magnitudes taken in one call
    (fewer calls, less time at two threads).  T and A take 3 / _CHUNK of
    a block's bytes, so beside the buckets the stage holds at most 1.5
    block arrays."""
    chunks = np.empty(len(buckets) // _CHUNK, dtype=np.complex128)
    strips = np.empty(len(chunks))
    step = max(_CHUNK, _piece_cells() // _CHUNK * _CHUNK)
    for lo in range(0, len(buckets), step):
        values = np.take(table, buckets[lo:lo + step], mode="clip")
        t = chunks[lo // _CHUNK:(lo + step) // _CHUNK]
        a = strips[lo // _CHUNK:(lo + step) // _CHUNK]
        np.add(values[0::_CHUNK], values[1::_CHUNK], out=t)
        for k in range(2, _CHUNK):
            t += values[k::_CHUNK]
        magnitudes = np.abs(values.real)
        del values
        np.add(magnitudes[0::_CHUNK], magnitudes[1::_CHUNK], out=a)
        for k in range(2, _CHUNK):
            a += magnitudes[k::_CHUNK]
        del magnitudes
    return chunks, strips


def _piece_cells() -> int:
    """The entries the bracket screen gathers at once, a quarter of a
    block's cells: at 16 bytes each, half a block's float64 array."""
    return max(1, lattice._BLOCK_CELLS // 4)


def _chunk_peaks(t: np.ndarray, a: np.ndarray, count: int, shape) -> np.ndarray:
    """The chunk bound's max |fl P_T| + max_a fl sum_i' A(i', a) per
    replica of a block, from its chunk sums T and A (flat, in lattice
    order) on the lattice shape: P_T is T's prefix array, and the strip
    of chunk a sums A over every other axis."""
    chunks = shape[-1] // _CHUNK
    peaks = batch_prefix(t.reshape(count, *shape[:-1], chunks))
    np.abs(peaks, out=peaks)
    peaks = peaks.reshape(count, -1).max(axis=1)
    peaks += np.add.reduce(a.reshape(count, -1, chunks), axis=1).max(axis=1)
    return peaks


def _midpoint_peaks(mids: np.ndarray, shape) -> np.ndarray:
    """max_k |fl S_k(c)| per replica of a block of midpoints (count, |n|)
    on the lattice shape, as batch_prefix rounds it, in place."""
    return _field_stats(mids.reshape(len(mids), *shape), ("max",))[0]


def _screened(spec: GeneratorSpec, key, lead, last, first: int, bound: np.ndarray, stat: str,
              floor) -> np.ndarray:
    """The lone stat of a block of iid replicas first, first + 1, ...:
    the floor wherever their bound is at most the floor, and the float
    path's value for the replicas left open, a NaN bound among them
    (replica_stats raises those to the floor).  The open replicas' rows
    are hashed again from the key, never read back: the last fold may
    have run in place on the rows given."""
    out = np.full(len(bound), floor, dtype=np.float64)
    open_ = np.flatnonzero(~(bound <= floor))
    if open_.size:
        reps = first + open_.astype(np.int64)
        h = _rng.last_fold(_rng.row_words(key, reps, lead), last, _signs(spec))
        values, = _field_stats(_draw(h, spec), (stat,))
        out[open_] = values
    return out


@functools.lru_cache(maxsize=32)
def _brackets(spec: GeneratorSpec) -> tuple:
    """The bracket table of an iid Gaussian or Weibull spec: for each
    bucket of words (their top _BUCKET_BITS bits), one complex entry
    c + i h, a midpoint c and a half-width h whose interval holds the
    value of every word in it, the largest magnitude v of any such
    interval, and the means E|c|, E h and E c^2 of a site's entry (every
    bucket is equally likely).  The law's own value map, nondecreasing in the word, is
    evaluated at the bucket's two extreme words; the half-width gains
    _BRACKET_ULPS ulps of the larger end's magnitude, times 1 / gamma for
    a Weibull law, whose power multiplies the relative error of its log
    by 1 / gamma, so a value map that rounds a few ulps out of order
    stays inside.  The parts are written apart, so an infinite half-width
    leaves the midpoint as it is."""
    buckets = np.arange(1 << _BUCKET_BITS, dtype=np.uint64) << np.uint64(64 - _BUCKET_BITS)
    slack = _BRACKET_ULPS * 2.0**-52 * max(1.0, 1.0 / float(spec.param("gamma", 1.0)))
    table = np.empty(len(buckets), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        lo = _law_values(_rng.uniform01(buckets.copy()), spec)
        hi = _law_values(_rng.uniform01(buckets | np.uint64((1 << (64 - _BUCKET_BITS)) - 1)),
                         spec)
        table.real = mid = 0.5 * (lo + hi)
        half = np.maximum(hi - mid, mid - lo)
        half += slack * np.maximum(np.abs(lo), np.abs(hi))
        table.imag = half
        vmax = float(np.max(np.abs(mid) + half))
        means = (float(np.mean(np.abs(mid))), float(np.mean(half)), float(np.mean(mid * mid)))
    table.flags.writeable = False  # every caller shares the cached table
    return table, vmax, means


def _bracket_bound(peaks: np.ndarray, widths: np.ndarray, cells: int, vmax: float,
                   roundings: int) -> np.ndarray:
    """A bracket bound M + W + eps of the module docstring, in place on
    the per-replica M (peaks) of a block of |n| = cells sites, from their
    half-widths' sums W and the table's largest magnitude v, with
    eps = 2 g (k |n| v + W + M): k = roundings counts the sums of at most
    |n| terms, each bounded by |n| v, whose rounding separates M from
    the float path's statistic, and the factor 2 spares g (W + M) for the
    rounding of W, of M's last addition, of eps and of the final sum."""
    eps = 2.0 * (cells + 2) * 2.0**-53 * (roundings * cells * vmax + widths + peaks)
    peaks += widths
    peaks += eps
    return peaks


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
