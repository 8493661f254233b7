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
any replica range in budgeted blocks of lattice._map_blocks, threaded
or not, so a direct call holds no more memory than one block.  iid and
moving-average fields take the float path over the generated block:
lattice.batch_prefix when "max" or "slab" is asked for, and
lattice.batch_total when only "total" is.  An iid Rademacher field's
lone "total" is a sign count instead: S_n = cells - 2 #{sites of value
-1}, read off the top bits of the block's hash words without mapping
them to values.  Every partial sum of +-1 terms is an integer below
2^53, so the count equals batch_total's sum bit for bit.

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
generate_batch(spec, shape, seed, r, 1)[0].  Kept without a caller in
the package: orthomartingale_check, the Monte Carlo
conditional-centering screen behind the field classes below, and
zero_field, the all-zero control a config can name.

Variants
--------
iid_symmetric       independent symmetric values at every site
                    (rademacher, gaussian(sigma), weibull_symmetric(gamma))
product_rademacher  X_i = prod_q eps^(q)_{i_q} with +-1 axis streams
decoupled_product   same product structure with a configurable base law
moving_average      X_i = eps_i + eps_{i-e_axis}; deliberately fails the
                    one-sided conditional-centering battery on that axis
                    (negative control for orthomartingale_check)
zero                degenerate all-zero field (testing hook)

The weibull_symmetric law has survival P{|X| > s} = min(1, 2 exp(-s^gamma)),
so sup_s exp(s^gamma) P{|X| > s} = 2 exactly: it sits on the boundary of
the envelope class used by the large-deviation bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincc
from scipy.special import ndtri

from . import _rng
from .errors import InvalidInputError, InvalidRangeError, check_number, check_object
from .lattice import (
    _block_size,
    _map_blocks,
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


def spec_to_json(spec: GeneratorSpec) -> str:
    return json.dumps(
        {"variant": spec.variant, "d": spec.d, "params": dict(spec.params)},
        sort_keys=True,
    )


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
    """Site variance of the field (product variants multiply across axes)."""
    dist = spec.param("dist")
    if spec.variant == "zero":
        return 0.0
    if spec.variant == "product_rademacher":
        return 1.0
    var = _dist_variance(dist, spec)
    if spec.variant == "iid_symmetric":
        return var
    if spec.variant == "decoupled_product":
        return var**spec.d
    if spec.variant == "moving_average":
        return 2.0 * var
    raise InvalidInputError("unknown variant %r" % spec.variant)


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


def _grid_hash(key, replicas: np.ndarray, coords, top: bool = False) -> np.ndarray:
    """The words of a block, replica axis first; top-bit words (see
    _rng) when top is set."""
    d = len(coords)
    h = _rng.fold(key, replicas.reshape((-1,) + (1,) * d))
    for q, c in enumerate(coords):
        shape = [1] * (d + 1)
        shape[q + 1] = len(c)
        h = _rng.fold(h, c.reshape(shape), top and q == d - 1)
    return h


def _draw(key, replicas: np.ndarray, coords, dist: str, spec: GeneratorSpec) -> np.ndarray:
    """Values of law dist on a block, mapped from its words in place.  A
    Rademacher draw reads only the top bit, so its words are top-bit
    words (see _rng).  The words are a local of this frame alone, so the
    del frees them before the Gaussian or Weibull map makes its array."""
    rademacher = dist == "rademacher"
    h = _grid_hash(key, replicas, coords, rademacher)
    if rademacher:
        return _rng.sign_pm1(h)
    u = _rng.uniform01(h)
    del h
    if dist == "gaussian":
        ndtri(u, out=u)
        u *= float(spec.param("sigma"))
        return u
    return _weibull_values(u, float(spec.param("gamma")))


def _base_key(spec: GeneratorSpec, master_seed: int, axis: int):
    dist = spec.param("dist")
    dist_tag = _DIST_TAG.get(dist, 0)
    return _rng.stream_key(master_seed, _VARIANT_TAG[spec.variant], dist_tag, axis)


def _factor_streams(spec: GeneratorSpec, master_seed: int, reps: np.ndarray, coords) -> list:
    """The per-axis factors of a product variant, one (count, n_q) array
    per axis; the field is their outer product."""
    dist = "rademacher" if spec.variant == "product_rademacher" else spec.param("dist")
    return [_draw(_base_key(spec, master_seed, q + 1), reps, [coords[q]], dist, spec)
            for q in range(spec.d)]


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
    d = spec.d

    if spec.variant == "zero":
        return np.zeros((count,) + shape, dtype=np.float64)

    if spec.variant == "iid_symmetric":
        return _draw(_base_key(spec, master_seed, 0), reps, coords, spec.param("dist"), spec)

    if spec.variant in _PRODUCTS:
        out = np.ones((count,) + shape, dtype=np.float64)
        for q, vals in enumerate(_factor_streams(spec, master_seed, reps, coords)):
            shape_q = [1] * (d + 1)
            shape_q[0] = count
            shape_q[q + 1] = shape[q]
            out *= vals.reshape(shape_q)
        return out

    if spec.variant == "moving_average":
        axis = int(spec.param("axis")) - 1
        ext_coords = list(coords)
        ext_coords[axis] = np.concatenate(([coords[axis][0] - 1], coords[axis]))
        base = _draw(_base_key(spec, master_seed, 0), reps, ext_coords, spec.param("dist"), spec)
        lead = [slice(None)] * (d + 1)
        lag = [slice(None)] * (d + 1)
        lead[axis + 1] = slice(1, None)
        lag[axis + 1] = slice(0, -1)
        return base[tuple(lead)] + base[tuple(lag)]

    raise InvalidInputError("unknown generator variant %r" % (spec.variant,))


def _axis_product(factors) -> np.ndarray:
    """The product of per-replica arrays, multiplied in axis order."""
    out = factors[0].copy()
    for f in factors[1:]:
        out *= f
    return out


def replica_stats(spec: GeneratorSpec, shape, seed: int, start: int, count: int,
                  stats, threads: int = 1) -> tuple:
    """The partial-sum statistics named in stats (a subset of "max",
    "total" and "slab", see the module docstring) of replicas
    [start, start + count), one array of count values per name in that
    order, gathered in block order from blocks run on up to `threads`
    threads.  A block is sized by its largest array per replica: sum n_q
    cells for the per-axis streams of a product field, |n| otherwise."""
    stats = tuple(stats)
    if not stats or any(name not in _STATS for name in stats):
        raise InvalidInputError("stats must name some of %r, got %r" % (_STATS, stats))
    shape = _check_block(spec, shape, start, count)
    cells = sum(shape) if spec.variant in _PRODUCTS else volume(shape)
    blocks = range(start, start + count, _block_size(cells, "lattice"))
    parts = _map_blocks(lambda first, size: _block_stats(spec, shape, seed, first, size, stats),
                        blocks, threads)
    return tuple(np.concatenate(column) for column in zip(*parts))


def _block_stats(spec: GeneratorSpec, shape: tuple, seed: int, start: int, count: int,
                 stats: tuple) -> tuple:
    """replica_stats of one block, on checked inputs.  Every array is a
    copy, so none keeps a block-sized array alive."""
    if spec.variant in _PRODUCTS:
        reps = np.arange(start, start + count, dtype=np.int64)
        prefixes = [np.cumsum(vals, axis=1)
                    for vals in _factor_streams(spec, seed, reps, _axis_coords(shape, None))]
        peaks = [np.abs(p).max(axis=1) for p in prefixes]
        ends = [p[:, -1] for p in prefixes]
        factors = {"max": peaks, "total": ends, "slab": peaks[:-1] + [np.abs(ends[-1])]}
        return tuple(_axis_product(factors[name]) for name in stats)

    if (stats == ("total",) and spec.variant == "iid_symmetric"
            and spec.param("dist") == "rademacher"):
        # the sign count of the module docstring
        reps = np.arange(start, start + count, dtype=np.int64)
        h = _grid_hash(_base_key(spec, seed, 0), reps, _axis_coords(shape, None), top=True)
        h >>= 63
        return (volume(shape) - 2.0 * h.reshape(count, -1).sum(axis=1),)

    fields = generate_batch(spec, shape, seed, start, count)
    if stats == ("total",):
        return (batch_total(fields),)
    absp = batch_prefix(fields)
    out = {}
    if "total" in stats:
        out["total"] = absp[(slice(None),) + (-1,) * len(shape)].copy()
    np.abs(absp, out=absp)
    if "max" in stats:
        out["max"] = absp.max(axis=tuple(range(1, absp.ndim)))
    if "slab" in stats:
        out["slab"] = absp[..., -1].reshape(count, -1).max(axis=1)
    return tuple(out[name] for name in stats)


@dataclass(frozen=True)
class MartingaleRow:
    axis: int
    site: tuple
    test: str
    mean: float
    se: float
    z: float


@dataclass(frozen=True)
class OrthomartingaleResult:
    rows: tuple
    passed: bool
    replicas: int
    z_threshold: float


def _default_check_sites(shape):
    corner = tuple(shape)
    mid = tuple(max(2, (n + 1) // 2) for n in shape)
    sites = [corner]
    if mid != corner:
        sites.append(mid)
    return sites


def orthomartingale_check(
    spec: GeneratorSpec,
    shape,
    seed: int,
    replicas: int = 2000,
) -> OrthomartingaleResult:
    """Monte Carlo battery for one-direction conditional centering, over
    replicas [0, replicas) of the master seed `seed`.

    For each axis q and site i (the far corner and a middle site),
    estimates E[X_i g(past)] for g in {1, sign(past sum), clipped past
    sum} where the past sum runs over the box [1, i - e_q].  Each mean
    must sit within 4 standard errors of zero.  The battery cannot prove
    the property; it is a screen with an analytic negative control
    (moving_average fails on its own axis because E[X_i X_{i-e_axis}] =
    Var(eps) > 0).
    """
    shape = validate_shape(shape)
    if len(shape) != spec.d:
        raise InvalidInputError("spec has d=%d but shape %r has d=%d"
                                % (spec.d, shape, len(shape)))
    if replicas < 1000:
        raise InvalidInputError("need at least 1000 replicas for the 4-se screen")
    d = spec.d
    axes = range(1, d + 1)
    sites = _default_check_sites(shape)
    for s in sites:
        for a in axes:
            if s[a - 1] < 2:
                raise InvalidInputError("site %r has empty past on axis %d" % (s, a))

    tests = ("const", "sign", "clip")
    keys = [(a, s, t) for a in axes for s in sites for t in tests]

    def work(start, count):
        fields = generate_batch(spec, shape, seed, start, count)
        out = []
        for a in axes:
            for s in sites:
                x_here = fields[(slice(None),) + tuple(c - 1 for c in s)]
                past_box = [slice(0, c) for c in s]
                past_box[a - 1] = slice(0, s[a - 1] - 1)
                past = fields[(slice(None),) + tuple(past_box)].sum(
                    axis=tuple(range(1, d + 1))
                )
                for t in tests:
                    if t == "const":
                        vals = x_here
                    elif t == "sign":
                        vals = x_here * np.sign(past)
                    else:
                        vals = x_here * np.clip(past, -1.0, 1.0)
                    out.append((vals.sum(), (vals * vals).sum()))
        return np.array(out)

    blocks = range(0, replicas, _block_size(volume(shape), "lattice"))
    totals = sum(_map_blocks(work, blocks, 1))

    rows = []
    passed = True
    for (a, s, t), (total, sq_total) in zip(keys, totals.tolist()):
        mean = total / replicas
        var = max(0.0, sq_total / replicas - mean * mean)
        se = math.sqrt(var / replicas)
        z = 0.0 if se == 0.0 else mean / se
        if abs(z) > 4.0:
            passed = False
        rows.append(MartingaleRow(a, s, t, mean, se, z))
    return OrthomartingaleResult(tuple(rows), passed, replicas, 4.0)
