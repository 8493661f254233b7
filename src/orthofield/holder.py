"""Holder-scale moduli and the dyadic pyramid expansion on [0, 1]^d.

A modulus here is rho(h) = h^(1/2) (ln(c/h))^(d/2) L(1/h) with L one of
a small family of slowly varying factors, each type checked when it is
built.  A factor kind is one row of _FACTOR_TABLE (its parameter, that
parameter's name in messages and limits, and L), and no code outside it
compares a kind's name, so a new kind is one row.  A Modulus keeps the
values rho(2^-j), j <= MODULUS_LEVELS, that its check computes, and
grid_seq_norms and tightness read them.  Functions on [0, 1]^d are
measured through the coefficient seminorm

    sup_j rho(2^-j)^{-1} max_{v in V_j} |lambda_{j,v}(x)|,

where V_j are the new dyadic nodes at level j, lambda_{0,v}(x) = x(v),
and for j >= 1 lambda_{j,v}(x) = x(v) - (x(v-) + x(v+)) / 2 with v-+
the two neighbors obtained by moving every odd coordinate of v one
step down / up at resolution 2^-j.  These are the coefficients of
the expansion in pyramid functions Lambda(2^j (t - v)); the pyramid
basis, the dyadic sites and the site-by-site seminorm of any evaluator
are the test oracle of tests/single_field.py.

The level sets are truncated at a caller-chosen J_max.  For the
partial-sum process of an (n_1, ..., n_d) lattice the truncation is
exact once J_max covers log2(max n_q): beyond that resolution the
process is multiaffine on every dyadic cell and new coefficients
vanish in d = 1 / stay at rounding scale in the measured cases.

grid_seq_norms gives that norm for the partial-sum process of each
replica in a block: every level-j node and both its parents are nodes
of the level-J_max dyadic grid, so W is evaluated once per grid node
(sumprocess.eval_W_grid) and level j is the grid's every
2^(J_max - j)-th node, its coefficients slice arithmetic, each parity
slice's in one buffer.  The tests check it bit for bit against the
site-by-site seminorm, whose evaluator of W shares eval_W_grid's
corner-sum kernel.  A level grid is held to the block budget of the
lattice layer (lattice._block_size) like a lattice, and grid_seq_norms
evaluates the whole block it is given at once.  The padded prefix
arrays and the grid are alive together, so a caller sizes the block
for both (harness._w_blocks gives _block_size their two cells); once the
grid is built grid_seq_norms drops its reference to the padded arrays,
which a caller that hands them over frees there.  A grid read straight
off the prefix is one gather; an interpolated one adds a quarter-block
corner at most (lattice._corner_sum).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace as _Row

import numpy as np

from .errors import (
    DegenerateModulusError,
    InvalidInputError,
    InvalidRangeError,
    check_kind,
    check_number,
    check_object,
    quote,
)
from .sumprocess import eval_W_grid

# ---------------------------------------------------------------- moduli


def _finite_array(what: str, x) -> np.ndarray:
    """x (a number or an array) as float64 once every entry is a finite
    integer or float: NaN, infinities, booleans and strings are an
    InvalidInputError."""
    arr = np.asarray(x)
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        shown = repr(x) if arr.ndim == 0 else "an array of %s" % arr.dtype
        raise InvalidInputError("%s must be finite numbers, not %s" % (what, shown))
    return arr.astype(np.float64)


# The factor table: each kind's parameters (a field of SlowlyVarying, or
# none), the parameter's name in messages and its limits, and L(t) of an
# array t >= 1 and the parameter's value.  Rows are namespaces, as in
# bounds' tables.
_FACTOR_TABLE = {
    "log_power": _Row(params=("beta",), name="log_power beta", limits={"lo": 0},
                      factor=lambda t, beta: (1.0 + np.log1p(t)) ** beta),
    "iter_log": _Row(params=(), name=None, limits={},
                     factor=lambda t: 1.0 + np.log1p(np.log1p(t))),
    "const": _Row(params=("c0",), name="const factor c0", limits={"lo": 0, "above": True},
                  factor=lambda t, c0: np.full_like(t, c0)),
}


@dataclass(frozen=True)
class SlowlyVarying:
    """L(t) on t >= 1: (1 + ln(1 + t))^beta ("log_power"),
    1 + ln(1 + ln(1 + t)) ("iter_log") or c0 ("const")."""

    kind: str
    beta: float = 1.0
    c0: float = 1.0

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _FACTOR_TABLE:
            raise InvalidInputError("unknown slowly varying factor kind %s" % quote(self.kind))
        row = _FACTOR_TABLE[self.kind]
        for param in row.params:
            value = check_number(row.name, getattr(self, param), **row.limits)
            object.__setattr__(self, param, float(value))

    def __call__(self, t):
        t = _finite_array("slowly varying factor argument t", t)
        if np.any(t < 1.0):
            raise InvalidRangeError("slowly varying factors are evaluated on t >= 1")
        row = _FACTOR_TABLE[self.kind]
        out = row.factor(t, *(getattr(self, param) for param in row.params))
        return out if out.ndim else float(out)


def log_power(beta: float) -> SlowlyVarying:
    return SlowlyVarying("log_power", beta=beta)


def iter_log() -> SlowlyVarying:
    return SlowlyVarying("iter_log")


def const_factor(c0: float) -> SlowlyVarying:
    return SlowlyVarying("const", c0=c0)


MODULUS_LEVELS = 40  # the finest dyadic level at which the package evaluates a modulus


@dataclass(frozen=True)
class Modulus:
    """rho(h) = h^(1/2) (ln(c/h))^(d/2) L(1/h), with c > 1 so that ln(c/h) > 0,
    finite and increasing along the dyadic grid h = 2^-j, j <= MODULUS_LEVELS."""

    c: float
    d: int
    L: SlowlyVarying
    # rho(2^-j) for j = 0..MODULUS_LEVELS, as __post_init__ checked them
    _levels: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = check_number("modulus c", self.c, lo=1, above=True)
        d = check_number("modulus dimension d", self.d, lo=1, integer=True)
        if not isinstance(self.L, SlowlyVarying):
            raise InvalidInputError("modulus L must be a SlowlyVarying, not %s" % quote(self.L))
        object.__setattr__(self, "c", float(c))
        object.__setattr__(self, "d", d)
        values = tuple(modulus_eval(self, 2.0**-j) for j in range(MODULUS_LEVELS + 1))
        if not all(a < b < np.inf for a, b in zip(values[1:], values[:-1])):
            raise DegenerateModulusError("modulus is not finite and increasing on the dyadic grid "
                                         "(c=%g too small, or L past the float range?)" % self.c)
        object.__setattr__(self, "_levels", values)


def modulus(c: float, d: int, L: SlowlyVarying) -> Modulus:
    return Modulus(c, d, L)


def svarying_from_dict(data: dict) -> SlowlyVarying:
    """The factor a JSON object describes: {"kind": "log_power", "beta": b},
    {"kind": "iter_log"} or {"kind": "const", "c0": c}, b and c
    defaulting to 1."""
    check_kind("slowly varying factor", data,
               {k: row.params for k, row in _FACTOR_TABLE.items()}, optional=True)
    return SlowlyVarying(**data)


def modulus_from_dict(data: dict, d: int) -> Modulus:
    """The modulus in dimension d (the field's) that a JSON object
    describes: {"c": c, "L": factor}, L defaulting to the constant 1."""
    check_object("modulus", data, ("c",), ("L",))
    return Modulus(data["c"], d, svarying_from_dict(data.get("L", {"kind": "const"})))


def modulus_eval(rho: Modulus, h) -> float:
    h_arr = _finite_array("modulus argument h", h)
    if np.any(h_arr <= 0.0) or np.any(h_arr > 1.0):
        raise InvalidRangeError("modulus is defined on h in (0, 1]")
    with np.errstate(over="ignore"):
        ratio, inverse = rho.c / h_arr, 1.0 / h_arr
    if not np.isfinite((ratio, inverse)).all():
        raise InvalidRangeError("modulus argument h = %r is so small that c/h or 1/h overflows"
                                % (float(np.min(h_arr)),))
    with np.errstate(over="ignore"):  # inf, which building a Modulus rejects
        out = np.sqrt(h_arr) * np.log(ratio) ** (rho.d / 2.0) * rho.L(inverse)
    return out if out.ndim else float(out)


# --------------------------------------------------------- dyadic levels


def full_grid_count(j: int, d: int) -> int:
    return (2**j + 1) ** d


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
    """The coefficient seminorm, truncated at level j_max, of the
    partial-sum process W of each replica in a block of padded prefix
    arrays (replica axis first, as lattice.padded_prefix(prefix, lead=1)
    gives them).

    W is evaluated once per node of the level-j_max dyadic grid for the
    whole block (sumprocess.eval_W_grid, which reads the nodes of an
    aligned axis straight off the prefix), into a new array: padded is
    left as it was, and freed before the coefficients are built when
    the caller keeps no reference to it.  A caller sizes the block so
    that its padded arrays and its grid together fit the block budget
    (lattice._block_size with the cells of both)."""
    padded = np.asarray(padded, dtype=np.float64)
    d = padded.ndim - 1
    if d != rho.d:
        raise InvalidInputError("prefix arrays have dimension %d, modulus has %d" % (d, rho.d))
    # the levels a modulus is checked on; eval_W_grid checks the grid's own bounds
    check_number("j_max", j_max, hi=MODULUS_LEVELS)
    grid = eval_W_grid(padded, j_max)
    del padded
    return np.max([_grid_peaks(grid, j, j_max) / s for j, s in enumerate(rho._levels[:j_max + 1])],
                  axis=0)

