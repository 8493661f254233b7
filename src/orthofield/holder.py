"""Holder-scale moduli and the dyadic pyramid expansion on [0, 1]^d.

A modulus here is rho(h) = h^(1/2) (ln(c/h))^(d/2) L(1/h) with L one of
a small family of slowly varying factors.  Functions on [0, 1]^d are
measured through the coefficient seminorm

    sup_j rho(2^-j)^{-1} max_{v in V_j} |lambda_{j,v}(x)|,

where V_j are the new dyadic nodes at level j, lambda_{0,v}(x) = x(v),
and for j >= 1 lambda_{j,v}(x) = x(v) - (x(v-) + x(v+)) / 2 with v-+
the two neighbors obtained by moving every odd coordinate of v one
step down / up at resolution 2^-j.  The pyramid function

    Lambda(t) = max(0, 1 - max_{t_i > 0} t_i - max_{t_i < 0} (-t_i))

(empty maxima read as zero) reproduces itself under these coefficients:
its own level yields exactly 1 at its center node and coarser levels
yield exactly 0.  At finer levels in d = 1 the coefficients vanish by
affineness; in d >= 2 they are measured, not asserted.

The level sets are truncated at a caller-chosen J_max.  For the
partial-sum process of an (n_1, ..., n_d) lattice the truncation is
exact once J_max covers log2(max n_q): beyond that resolution the
process is multiaffine on every dyadic cell and new coefficients
vanish in d = 1 / stay at rounding scale in the measured cases.

seq_norm measures any vectorized evaluator x: (m, d) -> (m,) site by
site; it is the definition, and the per-site objects it is built from
(DyadicSite, dyadic_sites, level_set_count, vpm, pyramid_eval,
schauder_coeff) are the terms the source paper states its results in,
which the acceptance suite checks exactly.  grid_seq_norms is the same
norm for the partial-sum process of a whole block of replicas: every
level-j node and both its parents are nodes of the level-J_max dyadic
grid, so W is evaluated once per grid node (sumprocess.eval_W_grid)
and level j is the grid's every 2^(J_max - j)-th node, its coefficients
slice arithmetic, each parity slice's in one buffer.  eval_W_grid and
eval_W_batch share one corner-sum kernel, so the norms equal
seq_norm's over eval_W_batch bit for bit.  A level grid is held to the
block budget of the lattice layer (lattice._block_size) like a
lattice: the holder-norm experiment sizes its replica blocks by the
larger of its padded lattice and its level-J_max grid, so
grid_seq_norms evaluates the whole block it is given at once.  Those
blocks own their arrays, so they run its two steps themselves
(eval_W_grid, then _grid_norms) and free the padded prefix arrays in
between; on an aligned lattice a block then peaks at about two arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateModulusError,
    InvalidInputError,
    InvalidRangeError,
    InvalidSiteError,
    NoParentsError,
    TooLargeError,
    check_kind,
    check_number,
    check_object,
)
from .lattice import _block_size
from .sumprocess import eval_W_grid

# ---------------------------------------------------------------- moduli


@dataclass(frozen=True)
class SlowlyVarying:
    kind: str
    beta: float = 1.0
    c0: float = 1.0

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        if np.any(t < 1.0):
            raise InvalidRangeError("slowly varying factors are evaluated on t >= 1")
        if self.kind == "log_power":
            out = (1.0 + np.log1p(t)) ** self.beta
        elif self.kind == "iter_log":
            out = 1.0 + np.log1p(np.log1p(t))
        elif self.kind == "const":
            out = np.full_like(t, self.c0)
        else:
            raise InvalidInputError("unknown slowly varying kind %r" % self.kind)
        return out if out.ndim else float(out)


def log_power(beta: float) -> SlowlyVarying:
    if beta < 0:
        raise InvalidRangeError("log_power exponent must be >= 0")
    return SlowlyVarying("log_power", beta=float(beta))


def iter_log() -> SlowlyVarying:
    return SlowlyVarying("iter_log")


def const_factor(c0: float) -> SlowlyVarying:
    if c0 <= 0:
        raise InvalidRangeError("const factor must be positive")
    return SlowlyVarying("const", c0=float(c0))


@dataclass(frozen=True)
class Modulus:
    c: float
    d: int
    L: SlowlyVarying


_SVARYING_KINDS = {"log_power": ("beta",), "iter_log": (), "const": ("c0",)}


def svarying_from_dict(data: dict) -> SlowlyVarying:
    """The factor a JSON object describes: {"kind": "log_power", "beta": b},
    {"kind": "iter_log"} or {"kind": "const", "c0": c}, b and c
    defaulting to 1."""
    kind = check_kind("slowly varying factor", data, _SVARYING_KINDS, optional=True)
    if kind == "log_power":
        return log_power(check_number("log_power beta", data.get("beta", 1.0)))
    if kind == "const":
        return const_factor(check_number("const factor c0", data.get("c0", 1.0)))
    return iter_log()


def modulus_from_dict(data: dict, d: int) -> Modulus:
    """The modulus in dimension d (the field's) that a JSON object
    describes: {"c": c, "L": factor}, L defaulting to the constant 1."""
    check_object("modulus", data, ("c",), ("L",))
    L = svarying_from_dict(data.get("L", {"kind": "const", "c0": 1.0}))
    return modulus(check_number("modulus c", data["c"]), d, L)


_MODULUS_LEVELS = 40  # the finest dyadic level at which the package evaluates a modulus


def modulus(c: float, d: int, L: SlowlyVarying) -> Modulus:
    """Build a modulus, verifying it increases along the dyadic grid
    h = 2^-j, j = 0.._MODULUS_LEVELS."""
    if c <= 1.0:
        raise InvalidRangeError("need c > 1 so ln(c/h) > 0 on (0, 1]")
    if d < 1:
        raise InvalidRangeError("dimension must be >= 1")
    rho = Modulus(float(c), int(d), L)
    values = [modulus_eval(rho, 2.0**-j) for j in range(_MODULUS_LEVELS + 1)]
    for a, b in zip(values[1:], values[:-1]):
        if not a < b:
            raise DegenerateModulusError(
                "modulus is not increasing on the dyadic grid (c=%g too small?)" % c
            )
    return rho


def modulus_eval(rho: Modulus, h) -> float:
    h_arr = np.asarray(h, dtype=np.float64)
    if np.any(h_arr <= 0.0) or np.any(h_arr > 1.0):
        raise InvalidRangeError("modulus is defined on h in (0, 1]")
    out = np.sqrt(h_arr) * np.log(rho.c / h_arr) ** (rho.d / 2.0) * rho.L(1.0 / h_arr)
    return out if out.ndim else float(out)


# --------------------------------------------------------- dyadic levels


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


def full_grid_count(j: int, d: int) -> int:
    return (2**j + 1) ** d


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


def _grid_peaks(grid: np.ndarray, j: int, J: int) -> np.ndarray:
    """max_{v in V_j} |lambda_{j,v}| of each replica from its level-J grid.

    Level j is every 2^(J-j)-th node; for j >= 1 each nonzero parity
    pattern (odd on the axes it marks, even on the rest) is one slice of
    sites, and their parents v-+ are the same slice moved one node down
    / up on the odd axes."""
    d = grid.ndim - 1
    level = grid[(slice(None),) + (slice(None, None, 1 << (J - j)),) * d]
    axes = tuple(range(1, d + 1))
    if j == 0:
        return np.abs(level).max(axis=axes)
    peak = np.zeros(len(grid))
    even = slice(None, None, 2)
    for pattern in range(1, 1 << d):
        odd = [pattern >> q & 1 for q in range(d)]
        c = (slice(None),) + tuple(slice(1, None, 2) if o else even for o in odd)
        lo = (slice(None),) + tuple(slice(None, -1, 2) if o else even for o in odd)
        hi = (slice(None),) + tuple(slice(2, None, 2) if o else even for o in odd)
        # one buffer: (lo + hi) * -0.5 + c has the bits of c - 0.5 * (lo + hi)
        coeffs = level[lo] + level[hi]
        coeffs *= -0.5
        coeffs += level[c]
        np.abs(coeffs, out=coeffs)
        np.maximum(peak, coeffs.max(axis=axes), out=peak)
        del coeffs  # the next slice's buffer must not meet this one alive
    return peak


def grid_seq_norms(padded, rho: Modulus, j_max: int) -> np.ndarray:
    """seq_norm(W, rho, j_max).norm of the partial-sum process W of each
    replica in a block of padded prefix arrays (replica axis first, as
    lattice.padded_prefix(prefix, lead=1) gives them), bit for bit.

    W is evaluated once per node of the level-j_max dyadic grid for the
    whole block (sumprocess.eval_W_grid, which reads the nodes of an
    aligned axis straight off the prefix), into a new array: padded is
    left as it was.  A caller sizes the block so that its grid fits the
    block budget (lattice._block_size)."""
    padded = np.asarray(padded, dtype=np.float64)
    d = padded.ndim - 1
    if d != rho.d:
        raise InvalidInputError("prefix arrays have dimension %d, modulus has %d" % (d, rho.d))
    # compared before the grid's cell count is built
    if not 0 <= j_max <= _MODULUS_LEVELS:
        raise InvalidRangeError("j_max must be in 0..%d, the levels a modulus is checked on"
                                % _MODULUS_LEVELS)
    _block_size(full_grid_count(j_max, d), "level grid")
    return _grid_norms(eval_W_grid(padded, j_max), rho, j_max)


def _grid_norms(grid: np.ndarray, rho: Modulus, j_max: int) -> np.ndarray:
    """grid_seq_norms from the level-j_max grid of W itself, so that a
    caller owning the padded prefix arrays (the holder-norm blocks) can
    free them before the coefficients are built."""
    scales = [modulus_eval(rho, 2.0**-j) for j in range(j_max + 1)]
    return np.max([_grid_peaks(grid, j, j_max) / s for j, s in enumerate(scales)], axis=0)
