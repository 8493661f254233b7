"""The single-field layer, kept as a test oracle.

These are the terms the source paper states its results in, for one
lattice field at a time: box sums over a prefix array, the partial-sum
process W of one field evaluated point by point, dyadic sites, the
pyramid basis, Schauder coefficients and the sequential norm of any
evaluator, the increment inequality of Lemma 11, the conditional
centering screen of the field classes and the Brownian sheet sampled
at the nodes.  No experiment needs them: the package measures W through
lattice.batch_prefix, sumprocess.eval_W_grid and holder.grid_seq_norms,
block by block.  The tests check those against this layer (the oracle
eval_W_batch and rect_sum share lattice._corner_sum with eval_W_grid,
so their comparisons are bit for bit) and the acceptance criteria 01
and 06 check this layer itself.

Not a test module (no test_ prefix): the test modules import it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from orthofield.errors import (
    InvalidInputError,
    InvalidRangeError,
    OrthofieldError,
    TooLargeError,
)
from orthofield.generators import GeneratorSpec, generate_batch, iid_gaussian
from orthofield.holder import Modulus, full_grid_count, modulus_eval
from orthofield.lattice import (
    _block_size,
    _corner_sum,
    _map_blocks,
    batch_prefix,
    padded_prefix,
    validate_shape,
    volume,
)
from orthofield.sumprocess import _cell


class InvalidSiteError(OrthofieldError, ValueError):
    """Dyadic site outside its level grid, or not in the level set."""


class NoParentsError(OrthofieldError, ValueError):
    """Corner sites of a level-0 grid have no parent pair."""


# ---------------------------------------------------------------- lattice

MultiIndex = tuple  # d-tuple of 1-based ints


def dominated(i: MultiIndex, j: MultiIndex) -> bool:
    """Coordinatewise order: i <= j on every axis."""
    if len(i) != len(j):
        raise InvalidInputError("indices of different dimension: %r vs %r" % (i, j))
    return all(a <= b for a, b in zip(i, j))


def validate_index(index: MultiIndex, shape) -> tuple:
    try:
        index = tuple(operator.index(k) for k in index)
    except TypeError as exc:
        raise InvalidInputError("lattice indices must be integers: %r" % (index,)) from exc
    if len(index) != len(shape):
        raise InvalidInputError(
            "index %r has dimension %d, lattice has %d" % (index, len(index), len(shape))
        )
    for k, n in zip(index, shape):
        if not 1 <= k <= n:
            raise InvalidInputError("index %r outside lattice of shape %r" % (index, shape))
    return index


def _as_values(field) -> np.ndarray:
    """A field as a float64 array of a valid lattice shape."""
    arr = np.asarray(field, dtype=np.float64)
    validate_shape(arr.shape)
    return arr


def rect_sum(prefix: np.ndarray, lo: MultiIndex, hi: MultiIndex) -> float:
    """Sum of the underlying field over the closed box [lo, hi] (1-based),
    recovered from the prefix array by inclusion-exclusion over the 2^d
    corners.  Only the corner entries are gathered and padded (S at
    lo_q - 1 and hi_q on each axis, the zero face standing in for
    lo_q = 1), so the cost does not grow with the prefix array."""
    prefix = np.asarray(prefix, dtype=np.float64)
    lo = validate_index(lo, prefix.shape)
    hi = validate_index(hi, prefix.shape)
    if not dominated(lo, hi):
        raise InvalidInputError("rect_sum needs lo <= hi, got %r, %r" % (lo, hi))
    rows = [[h - 1] if l == 1 else [l - 2, h - 1] for l, h in zip(lo, hi)]
    corners = padded_prefix(prefix[np.ix_(*rows)])
    # in the padded corner array S at hi_q is the last entry, S at lo_q - 1 the one before
    pairs = [((np.array(len(r)), 1.0), (np.array(len(r) - 1), -1.0)) for r in rows]
    return float(_corner_sum(corners[None], pairs)[0])


# ------------------------------------------------------------- sumprocess


@dataclass(frozen=True)
class PartialSumProcess:
    field: np.ndarray
    padded: np.ndarray
    sqrt_vol: float

    @property
    def shape(self) -> tuple:
        return self.field.shape

    @property
    def d(self) -> int:
        return self.field.ndim


def from_field(field) -> PartialSumProcess:
    values = _as_values(field)
    return PartialSumProcess(
        field=values,
        padded=padded_prefix(batch_prefix(values[None].copy())[0]),
        sqrt_vol=math.sqrt(volume(values.shape)),
    )


def _validate_point(t, d) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    if t.shape[0] != d:
        raise InvalidInputError("point %r has wrong dimension, expected %d" % (t, d))
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise InvalidRangeError("point %r outside [0, 1]^%d" % (t, d))
    return t


def eval_W(p: PartialSumProcess, t) -> float:
    """W(t) by direct contraction over the support box."""
    t = _validate_point(t, p.d)
    weights = []
    for n_q, t_q in zip(p.shape, t):
        cells = min(n_q, int(math.ceil(n_q * t_q)))
        if cells <= 0:
            return 0.0
        weights.append(np.clip(n_q * t_q - np.arange(cells), 0.0, 1.0))
    acc = p.field[tuple(slice(0, len(w)) for w in weights)]
    for w in weights:
        acc = np.tensordot(w, acc, axes=(0, 0))
    return float(acc) / p.sqrt_vol


def eval_W_batch(p: PartialSumProcess, points) -> np.ndarray:
    """W at many points via multiaffine interpolation of the prefix array."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != p.d:
        raise InvalidInputError("points must have shape (m, %d)" % p.d)
    if np.any(pts < 0.0) or np.any(pts > 1.0):
        raise InvalidRangeError("points outside [0, 1]^%d" % p.d)
    corners = [_cell(pts[:, q], n) for q, n in enumerate(p.shape)]
    return _corner_sum(p.padded[None], corners)[0] / p.sqrt_vol


def grid_value(p: PartialSumProcess, k) -> float:
    """S_k / sqrt(|n|) at the 1-based grid index k (k_q = 0 allowed)."""
    k = tuple(int(v) for v in k)
    if len(k) != p.d or any(not 0 <= v <= n for v, n in zip(k, p.shape)):
        raise InvalidInputError("grid index %r outside lattice %r" % (k, p.shape))
    return float(p.padded[k]) / p.sqrt_vol


def delta_q(p: PartialSumProcess, q: int, t: float, t_prime: float, s) -> float:
    """|W(..., t', ...) - W(..., t, ...)| moving only coordinate q, the
    other coordinates pinned at s (a (d-1)-vector)."""
    if not 1 <= q <= p.d:
        raise InvalidInputError("axis %d outside 1..%d" % (q, p.d))
    s = np.asarray(s, dtype=np.float64).reshape(-1)
    if s.shape[0] != p.d - 1:
        raise InvalidInputError("s must have dimension %d" % (p.d - 1))
    a = np.empty(p.d)
    b = np.empty(p.d)
    rest = [i for i in range(p.d) if i != q - 1]
    a[rest] = s
    b[rest] = s
    a[q - 1] = t
    b[q - 1] = t_prime
    pts = np.vstack([a, b])
    vals = eval_W_batch(p, pts)
    return float(abs(vals[1] - vals[0]))


def _snap_floor(x: float) -> int:
    """floor with a snap for grid values reached through float division."""
    r = round(x)
    if abs(x - r) < 1e-9:
        return int(r)
    return int(math.floor(x))


def _node_grid(shape_rest) -> np.ndarray:
    """All grid nodes (k_l / n_l) over the listed axes, shape (m, len)."""
    axes = [np.arange(n + 1, dtype=np.float64) / n for n in shape_rest]
    mesh = np.meshgrid(*axes, indexing="ij") if axes else []
    if not mesh:
        return np.zeros((1, 0))
    return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass(frozen=True)
class Lemma11Result:
    lhs: float
    rhs: float
    block_term: float
    slice_term: float
    indicator: int
    ramp: float
    holds: bool


def lemma11_check(p: PartialSumProcess, t: float, t_prime: float) -> Lemma11Result:
    """Deterministic increment bound along the first coordinate.

    lhs = sqrt(|n|) sup_s |W(t', s) - W(t, s)| (the sup over s is exact
    on the node grid because the increment is multiaffine in s), and

    rhs = 3^d [ 1{t' - t >= 1/n_1} max_k' |block sum| +
                min(1, n_1 (t' - t)) max_{i_1} max_k' |slice prefix| ]

    where the block runs over i_1 in ([n_1 t]+1, ..., [n_1 t']) and the
    slice prefix is the per-hyperplane partial sum over the other axes.
    """
    if not 0.0 <= t < t_prime <= 1.0:
        raise InvalidRangeError("need 0 <= t < t' <= 1, got %r, %r" % (t, t_prime))
    n1 = p.shape[0]
    s_grid = _node_grid(p.shape[1:])
    pts_lo = np.column_stack([np.full(len(s_grid), t), s_grid])
    pts_hi = np.column_stack([np.full(len(s_grid), t_prime), s_grid])
    lhs = p.sqrt_vol * float(
        np.max(np.abs(eval_W_batch(p, pts_hi) - eval_W_batch(p, pts_lo)))
    )

    three_d = 3.0**p.d
    a = _snap_floor(n1 * t)
    b = _snap_floor(n1 * t_prime)
    gap = n1 * (t_prime - t)
    indicator = 1 if gap >= 1.0 - 1e-9 else 0

    block_term = 0.0
    if indicator and b > a:
        block = p.padded[b] - p.padded[a]
        block_term = float(np.max(np.abs(block)))

    slices = np.abs(np.diff(p.padded, axis=0))
    slice_term = float(np.max(slices))

    ramp = min(1.0, gap)
    rhs = three_d * (indicator * block_term + ramp * slice_term)
    holds = lhs <= rhs + 1e-9 * max(1.0, abs(rhs))
    return Lemma11Result(lhs, rhs, three_d * indicator * block_term,
                         three_d * ramp * slice_term, indicator, ramp, holds)


# ----------------------------------------------------------------- holder


@dataclass(frozen=True)
class DyadicSite:
    """Node k 2^-j of the level-j grid, stored as integers (j, k)."""

    j: int
    k: tuple

    def __post_init__(self):
        if self.j < 0:
            raise InvalidSiteError("level must be >= 0")
        k = tuple(map(int, self.k))
        if k and (min(k) < 0 or max(k) > 1 << self.j):
            raise InvalidSiteError("site %r outside level-%d grid" % (k, self.j))
        object.__setattr__(self, "k", k)

    @property
    def coords(self) -> np.ndarray:
        return np.asarray(self.k, dtype=np.float64) / (1 << self.j)


def in_level_set(site: DyadicSite) -> bool:
    """Membership in V_j: every corner at level 0, odd-coordinate nodes after."""
    if site.j == 0:
        return True
    return any(v % 2 == 1 for v in site.k)


def level_set_count(j: int, d: int) -> int:
    """|V_j| = (2^j + 1)^d - (2^(j-1) + 1)^d for j >= 1, (2^0+1)^d at 0."""
    if j == 0:
        return 2**d
    return full_grid_count(j, d) - full_grid_count(j - 1, d)


def _level_k_array(j: int, d: int) -> np.ndarray:
    """Integer k rows of V_j, shape (|V_j|, d)."""
    if j < 0 or d < 1:
        raise InvalidRangeError("need j >= 0 and d >= 1")
    # the grid has at least 2^(max(j, 1) d) cells; that exponent is bounded
    # before (2^j + 1)^d, a huge integer for a huge j or d, is built, as a
    # grid of 2^64 cells is over any budget
    bits = max(j, 1) * d
    if bits >= 64:
        raise TooLargeError("level grid at j=%d, d=%d has at least 2^%d cells, beyond the "
                            "block budget" % (j, d, bits))
    _block_size(full_grid_count(j, d), "level grid")
    if j == 0:
        axes = [np.array([0, 1])] * d
    else:
        axes = [np.arange(2**j + 1)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    k = np.stack([m.ravel() for m in mesh], axis=1)
    if j == 0:
        return k
    keep = (k % 2 == 1).any(axis=1)
    return k[keep]


def dyadic_sites(j: int, d: int) -> list:
    """V_j as DyadicSite objects (use the array form in hot loops)."""
    return [DyadicSite(j, row) for row in _level_k_array(j, d).tolist()]


def pyramid_eval(site: DyadicSite, t):
    """Lambda(2^j (t - v)) for one site; t is a point or an (m, d) array."""
    pts = np.asarray(t, dtype=np.float64)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != len(site.k):
        raise InvalidInputError("points have dimension %d, site has %d"
                                % (pts.shape[1], len(site.k)))
    # one contiguous row per coordinate: numpy reduces over the d rows
    # elementwise, several times faster than along the short axis of (m, d)
    y = pts * float(1 << site.j) - np.asarray(site.k, dtype=np.float64)
    y = np.ascontiguousarray(y.T)
    pos = np.maximum(0.0, y.max(axis=0))
    neg = np.maximum(0.0, -y.min(axis=0))
    out = np.maximum(0.0, 1.0 - pos - neg)
    return float(out[0]) if single else out


def vpm(site: DyadicSite) -> tuple:
    """The parent pair (v-, v+): odd coordinates move one grid step."""
    if site.j == 0:
        raise NoParentsError("level-0 corners have no parent pair")
    if not in_level_set(site):
        raise InvalidSiteError("site %r is not in V_%d" % (site.k, site.j))
    lo = tuple(v - 1 if v % 2 == 1 else v for v in site.k)
    hi = tuple(v + 1 if v % 2 == 1 else v for v in site.k)
    return DyadicSite(site.j, lo), DyadicSite(site.j, hi)


def schauder_coeff(x, site: DyadicSite) -> float:
    """lambda_{j,v}(x) for a vectorized evaluator x: (m, d) -> (m,)."""
    if site.j == 0:
        return float(np.asarray(x(site.coords[None, :])).reshape(-1)[0])
    lo, hi = vpm(site)
    pts = np.stack([site.coords, lo.coords, hi.coords])
    vals = np.asarray(x(pts), dtype=np.float64).reshape(-1)
    return float(vals[0] - 0.5 * (vals[1] + vals[2]))


def _level_coeffs(x, j: int, d: int) -> np.ndarray:
    k = _level_k_array(j, d)
    v = k.astype(np.float64) / (1 << j)
    if j == 0:
        return np.asarray(x(v), dtype=np.float64).reshape(-1)
    odd = k % 2 == 1
    lo = (k - odd).astype(np.float64) / (1 << j)
    hi = (k + odd).astype(np.float64) / (1 << j)
    vals = np.asarray(x(np.concatenate([v, lo, hi], axis=0)), dtype=np.float64)
    m = len(k)
    return vals[:m] - 0.5 * (vals[m : 2 * m] + vals[2 * m :])


@dataclass(frozen=True)
class SeqNormResult:
    norm: float
    level: int
    per_level: tuple  # (j, max_abs_coeff, scaled) rows


def seq_norm(x, rho: Modulus, j_max: int) -> SeqNormResult:
    """Truncated coefficient seminorm of a vectorized evaluator."""
    if j_max < 0:
        raise InvalidRangeError("j_max must be >= 0")
    rows = []
    best = -1.0
    best_level = 0
    for j in range(j_max + 1):
        coeffs = _level_coeffs(x, j, rho.d)
        peak = float(np.max(np.abs(coeffs)))
        scaled = peak / modulus_eval(rho, 2.0**-j)
        rows.append((j, peak, scaled))
        if scaled > best:
            best = scaled
            best_level = j
    return SeqNormResult(best, best_level, tuple(rows))


# ------------------------------------------------------------- generators


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


# ---------------------------------------------------------------- harness


def brownian_sheet_sim(resolution, seed: int, replicas: int = 1, threads: int = 1) -> np.ndarray:
    """Brownian sheets at the grid nodes k/res, one per replica, padded
    with the zero face (k_q = 0): prefix sums of independent centered
    Gaussian cells whose variance is the cell volume 1/|res|, the field
    sheet-cov draws."""
    res = validate_shape(resolution)
    spec = iid_gaussian(len(res), sigma=math.sqrt(1.0 / volume(res)))

    def work(start, count):
        return padded_prefix(batch_prefix(generate_batch(spec, res, seed, start, count)), lead=1)

    blocks = range(0, replicas, _block_size(volume(n + 1 for n in res), "padded lattice"))
    return np.concatenate(_map_blocks(work, blocks, threads))
