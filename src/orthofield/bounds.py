"""Deviation-bound evaluators with numerically traced constants.

The central object is the two-term tail bound for the normalized
maximum of multiparameter partial sums,

    A exp(-(x/y)^(2/d)) + B int_1^inf P{|X| > y u C} u (log(1+u))^p du,

whose constants (A, B, C, p) are produced by an explicit recursion on
the dimension.  The d = 1 constants are read off the one-parameter
maximal inequality; each induction step composes a Doob-type step with
a one-parameter application, and the bookkeeping reduces to one planar
integral

    I(t) = int int_{[1,inf)^2} v (log(1+v))^{p_prev}
           / (f_{d/2}(u) f_{1/2}(v))^2  1{f_{d/2}(u) f_{1/2}(v) < t} du dv

with f_q(t) = t (1 + 2 ln t)^(-q).  The step needs I(t) <= K (log(1+t))^p
on t >= 1 with p = p_prev + 2; K is realized numerically as 1.05 times
a grid sup over a log-spaced t in [1, 1e8], with a stabilization check
on the running sup over the last decade.  The substitution that
produces I(t) also reaches a sliver t < 1 because min_u f_{d/2}(u) < 1;
its Jacobian factor 1/(f f)^2 is majorized there by M = (min f f)^(-2),
which is the extra factor carried into B.  The only numeric step in
I(t) is the outer integral over v: the section boundaries are level
sets of f_q, whose roots are closed forms in the two real branches of
the Lambert W function, evaluated to rounding in real arithmetic (a
branch-point series, or a fixed number of Halley steps; _level_v), so
the inner integral over u is exact.  The outer integral is a fixed
Gauss-Legendre rule in y = ln v, evaluated for a whole array of t at
once, on two panels split where the u-section leaves u = 1; on the
second panel, where the inner mass vanishes like a square root at the
end y_max, y = y_max - (y_max - y_kink) w^2 makes the integrand smooth
in w.  M
is closed form too, since min f_q = e^(q - 1/2) (2q)^(-q).
All realized (K, M) pairs are recorded per level so reports can
reproduce the trace.

Every integral here is taken by one rule family, with one convergence
test (_converged): the value at 2n nodes, its distance to the n-node
value as the error estimate, and NumericFailureError when that exceeds
max(_ABS_FLOOR, |value| _REL_TOL).  The tail integral of the two-term
bound and of the Lemma 3 moments is a Gauss-Legendre rule in x = ln u
over [0, ln u_max], u_max the point past which the tail times its
weight (u^2 (log(1+u))^p, or u^3 for Lemma 3) is negligible, on panels
split where the tail's min(1, .) switches (for the Weibull envelope at
u = (ln 2)^(1/gamma) / scale) and at most _PANEL_X long.  The Gaussian-product tail
P{|X_1...X_m| > s} = E[erfc(s e^-Y / sqrt 2)], Y = ln|X_1...X_(m-1)|,
takes the density of Y by m - 2 discrete convolutions of the density of
ln|X| on a uniform grid, and the expectation by the trapezoid rule on
that grid, whose error decays exponentially in 1/h for an integrand
that is smooth and decays fast at both ends (Trefethen and Weideman,
"The exponentially convergent trapezoidal rule", SIAM Review 2014);
the n and 2n rules are the steps 2h and h.  Tests pin it to the exact
Meijer-G form of the product's distribution (Springer and Thompson,
"The distribution of products of Beta, Gamma and Gaussian random
variables", SIAM J. Appl. Math. 1970).

Everything here evaluates formulas; only exponent_fit fits data.
verify_values is the one parser of the verify-bound experiment's bound
object, and names the replica statistic and scale it is read on.  Logs
are natural throughout.  unit_tail, whose moment integrals diverge, is
kept as the lemma-checks tail kind "unit".
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import erfc

from .errors import (
    InsufficientDataError,
    InvalidInputError,
    InvalidRangeError,
    NumericFailureError,
    build_kind,
    check_kind,
    check_number,
)
from .lattice import _block_size, volume

_E9 = math.exp(9.0)
_ABS_FLOOR = 1e-16
_REL_TOL = 1e-6
_LN_FLOAT_MAX = math.log(sys.float_info.max)


def _converged(rule, n: int, what: str, where):
    """rule(2 n), with its distance to rule(n) as the error estimate.

    An infinite value, one that overflows the float range, raises
    InvalidRangeError; an estimate above max(_ABS_FLOOR, |value| _REL_TOL),
    or one that is not finite, raises NumericFailureError.  Both name
    `what` and where(i), for i the flat index of the first such value."""
    with np.errstate(over="ignore", invalid="ignore"):
        val = np.asarray(rule(2 * n))
        err = np.abs(val - rule(n))
    over = np.isinf(val)
    if np.any(over):
        raise InvalidRangeError("%s exceeds the float range at %s"
                                % (what, where(int(np.argmax(over)))))
    bad = ~(err <= np.maximum(_ABS_FLOOR, np.abs(val) * _REL_TOL))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise NumericFailureError("%s did not converge at %s (error estimate %g)"
                                  % (what, where(i), err.flat[i]))
    return val


# ------------------------------------------------------------ tail models


@dataclass(frozen=True)
class TailModel:
    """Survival function model for |X|; tail_eval evaluates P{|X| > s}."""

    kind: str
    value: float = 0.0


def bounded_by(k: float) -> TailModel:
    return TailModel("bounded", value=float(check_number("tail K", k, lo=0, above=True)))


def weibull_envelope(gamma: float) -> TailModel:
    return TailModel("weibull", value=float(check_number("tail gamma", gamma, lo=0, above=True)))


# with m <= 16 the grid of ln|X_1...X_(m-1)| in _gauss_prod_tail stays
# above -675, so e^-Y is finite
_MAX_FACTORS = 16


def gaussian_product(m: int) -> TailModel:
    return TailModel("gaussian_product",
                     value=float(check_number("tail m", m, lo=1, hi=_MAX_FACTORS, integer=True)))


def unit_tail() -> TailModel:
    """tail = 1 everywhere (testing hook for divergence detection)."""
    return TailModel("unit")


# each kind's constructor, then the JSON keys of its arguments
_TAIL_KINDS = {"bounded": (bounded_by, "K"), "weibull": (weibull_envelope, "gamma"),
               "gaussian_product": (gaussian_product, "m"), "unit": (unit_tail,)}


def tail_from_dict(data: dict) -> TailModel:
    """The model a JSON object describes: {"kind": "bounded", "K": k},
    {"kind": "weibull", "gamma": g}, {"kind": "gaussian_product", "m": m}
    or {"kind": "unit"}."""
    return build_kind("tail model", data, _TAIL_KINDS)


_LN_Y_LO, _LN_Y_HI = -45.0, 3.0  # ln|X| for a standard normal X lies here but for e^-45 mass
_PROD_STEPS = 600


def _by_rows(rule, rows: int, cells: int) -> np.ndarray:
    """rule(sl) over slices sl of [0, rows), concatenated: a slice holds
    as many rows of `cells` values as a replica block (lattice._block_size),
    so rule's arrays stay within the block budget.  rule sums each row on
    its own, so the slices do not change a bit of the result."""
    step = _block_size(cells, "a row of a numeric rule")
    return np.concatenate([rule(slice(lo, lo + step)) for lo in range(0, max(rows, 1), step)])


def _gauss_prod_tail(m: int, s):
    """P{|X_1...X_m| > s} for independent standard normals, elementwise.

    With Y = ln|X_1...X_(m-1)| the tail is E[erfc(s e^-Y / sqrt 2)].  The
    density of ln|X|, sqrt(2/pi) e^(y - e^(2y)/2), is sampled on a uniform
    grid and convolved with itself m - 2 times for the density of Y; the
    expectation is then a trapezoid sum on that grid, taken for the
    values of s in row chunks (_by_rows)."""
    s = np.asarray(np.maximum(s, 0.0))
    if m == 1:
        return erfc(s / math.sqrt(2.0))
    flat = s.reshape(-1)

    def rule(n):
        y, h = np.linspace(_LN_Y_LO, _LN_Y_HI, n + 1, retstep=True)
        f = math.sqrt(2.0 / math.pi) * np.exp(y - 0.5 * np.exp(2.0 * y))
        density = f
        for _ in range(m - 2):
            density = np.convolve(density, f) * h
        y = np.linspace((m - 1) * _LN_Y_LO, (m - 1) * _LN_Y_HI, density.size)
        e = np.exp(-y)
        return _by_rows(lambda rows: (erfc(flat[rows, None] * e / math.sqrt(2.0))
                                      * density).sum(axis=-1) * h,
                        flat.size, density.size).reshape(s.shape)

    return np.minimum(1.0, _converged(rule, _PROD_STEPS, "Gaussian-product tail",
                                      lambda i: "s=%g, m=%d" % (s.flat[i], m)))


def tail_eval(model: TailModel, s):
    """P{|X| > s}; accepts scalars or arrays, clipped to [0, 1]."""
    arr = np.asarray(s, dtype=np.float64)
    if model.kind == "bounded":
        out = np.where(arr < model.value, 1.0, 0.0)
    elif model.kind == "weibull":
        with np.errstate(over="ignore"):  # s^gamma = inf has the exact tail exp(-inf) = 0
            out = np.minimum(1.0, 2.0 * np.exp(-np.maximum(arr, 0.0) ** model.value))
    elif model.kind == "unit":
        out = np.ones_like(arr)
    elif model.kind == "gaussian_product":
        out = _gauss_prod_tail(int(model.value), arr)
    else:
        raise InvalidInputError("unknown tail model %r" % model.kind)
    out = np.asarray(out, dtype=np.float64)
    return out if out.ndim else float(out)


# the level below which the integrand of a tail integral, in x = ln u,
# counts as negligible
_LN_NEGLIGIBLE = math.log(_ABS_FLOOR) - 4.0


def _tail_log_knots(model: TailModel, level: float = _LN_NEGLIGIBLE) -> list:
    """ln s where the tail's min(1, .) switches, if it does, then ln s
    where ln tail(s) has fallen to `level`: ln K for bounded, whose tail
    is 0 beyond K, and inf for unit, which never falls."""
    if model.kind == "bounded":
        return [math.log(model.value)]
    if model.kind == "weibull":
        # 2 exp(-s^gamma) = 1, and = e^level
        return [math.log(math.log(2.0)) / model.value,
                math.log(math.log(2.0) - level) / model.value]
    if model.kind == "gaussian_product":
        m = int(model.value)
        # the product tail's exponent is -m s^(2/m) / 2; its prefactor,
        # at most e^2.6 (m = 16), is inside the e^-4 margin of _LN_NEGLIGIBLE
        return [0.5 * m * math.log(-2.0 * level / m)]
    return [math.inf]


# --------------------------------------------------------- the constants


@dataclass(frozen=True)
class BoundConstants:
    d: int
    A: float
    B: float
    C: float
    p: int
    K_levels: tuple = ()  # rows (level, K, M, t_at_sup, last_decade_drift)

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "A": self.A,
            "B": self.B,
            "C": self.C,
            "p": self.p,
            "K_levels": [list(row) for row in self.K_levels],
        }


def base_constants() -> BoundConstants:
    """One-parameter constants in the two-term shape.

    The one-parameter maximal inequality gives coefficients 2 and 4 with
    exponent -(x/y)^2/2 and tail threshold y u / 2; replacing y by
    y / sqrt(2) matches the exponent shape above and moves the whole
    threshold factor into C = 1 / (2 sqrt(2)) with p = 2.
    """
    return BoundConstants(d=1, A=2.0, B=4.0, C=1.0 / (2.0 * math.sqrt(2.0)), p=2)


def _shape_fn_min(q: float) -> float:
    """min over t >= 1 of f_q; the minimizer is t = e^((2q-1)/2) for q >= 1/2."""
    if q <= 0.5:
        return 1.0
    return math.exp((2.0 * q - 1.0) / 2.0) * (2.0 * q) ** (-q)


def _poly_exp_integral(deg: int, x_lo, x_hi):
    """int_{x_lo}^{x_hi} (1 + 2x)^deg e^(-x) dx, exactly; accepts arrays.

    Repeated integration by parts: the antiderivative is
    -e^(-x) sum_k 2^k deg!/(deg-k)! (1+2x)^(deg-k), a polynomial in
    1 + 2x evaluated by Horner's rule.
    """

    def anti(x):
        z = 1.0 + 2.0 * x
        acc = 0.0
        coeff = 1.0
        for k in range(deg + 1):
            acc = acc * z + coeff
            coeff *= 2.0 * (deg - k)
        return -np.exp(-x) * acc

    out = anti(np.asarray(x_hi, dtype=np.float64)) - anti(np.asarray(x_lo, dtype=np.float64))
    return out if out.ndim else float(out)


# W + 1 next to the branch point z = -1/e of the Lambert W function is
# p - p^2/3 + 11 p^3/72 - ... in p = -+sqrt(2 (1 + e z)) (Corless et al.,
# "On the Lambert W function", Adv. Comput. Math. 5, 1996); these are its
# coefficients of p^6 down to p.  Where p^2 < _BRANCH_P2, the first term
# left out, 0.0153 p^7, is below 3e-19.
_BRANCH_SERIES = (-221.0 / 8505.0, 769.0 / 17280.0, -43.0 / 540.0, 11.0 / 72.0,
                  -1.0 / 3.0, 1.0)
_BRANCH_P2 = 1e-5
# from the starts of _level_v two steps leave at most 3e-10 relative error,
# which the third cubes away
_HALLEY_STEPS = 3


def _level_v(a, rising: bool):
    """v >= 0 (rising) or -1 < v <= 0 (falling) with v - log1p(v) = a,
    for a >= 0 (an a below 0 gives v = 0); accepts arrays.

    v = -(W + 1), with W_{-1} (rising) or W_0 (falling) at z = -exp(-a - 1),
    where both branches are real.  Where p^2 = 2 (1 + e z) < _BRANCH_P2
    the branch-point series gives v to rounding.  Elsewhere v takes
    _HALLEY_STEPS Halley steps in real arithmetic, which these two real
    branches allow (as in Fritsch, Shafer and Crowley, CACM 16, 1973,
    Algorithm 443), started from that series for a < 1 and from the
    large-a asymptote beyond.  The rising root iterates on v, from
    v = a + log1p(a).  The falling root iterates on y = -log1p(v), which
    solves y + expm1(-y) = a, from y = 1 + a; v = expm1(-y) keeps its
    precision as v -> -1, where log1p(v) loses it."""
    a = np.asarray(a, dtype=np.float64)
    shape = a.shape
    a = a.reshape(-1)
    p = np.expm1(-a)
    p *= -2.0
    np.maximum(p, 0.0, out=p)  # p^2
    far = p >= _BRANCH_P2
    np.sqrt(p, out=p)
    if rising:
        np.negative(p, out=p)
    # v = -(W + 1) from the series, by Horner's rule
    v = np.full_like(p, -_BRANCH_SERIES[0])
    for c in _BRANCH_SERIES[1:]:
        v *= p
        v -= c
    v *= p
    del p
    # the Halley steps, on the entries off the series' mask only, each
    # written as z -= f f' / (f'^2 - f f'' / 2) with its temporaries in place
    a, w = a[far], v[far]
    if rising:
        # f(w) = w - log1p(w) - a, f' = w / (1 + w), f'' = 1 / (1 + w)^2,
        # so z -= f (w + w^2) / (w^2 - f / 2)
        asymptote = np.log1p(a)
        asymptote += a
        np.copyto(w, asymptote, where=a >= 1.0)
        del asymptote
        for _ in range(_HALLEY_STEPS):
            f = np.log1p(w)
            np.subtract(w, f, out=f)
            f -= a
            den = w * w
            num = den + w
            num *= f
            f *= -0.5
            den += f
            num /= den
            w -= num
    else:
        # f(y) = y + expm1(-y) - a with e = expm1(-y): f' = -e and
        # f'' = 1 + e, so y += f e / (e^2 - f (1 + e) / 2)
        y = np.log1p(w, out=w)
        np.negative(y, out=y)
        np.copyto(y, 1.0 + a, where=a >= 1.0)
        for _ in range(_HALLEY_STEPS):
            e = np.negative(y)
            np.expm1(e, out=e)
            f = y + e
            f -= a
            num = f * e
            f += num
            f *= -0.5
            e *= e
            e += f
            num /= e
            y += num
        np.negative(y, out=y)
        w = np.expm1(y, out=y)
    v[far] = w
    v = v.reshape(shape)
    return v if v.ndim else float(v)


def _level_x(q: float, s, rising: bool):
    """x = ln t with f_q(e^x) = s, for q >= 1/2 and s >= min f_q; accepts arrays.

    Written around the minimizer x* = q - 1/2 as x = x* + q v, the level
    set is v - log1p(v) = a with a = (ln s - ln min f_q) / q, solved by
    _level_v; the rising root has v >= 0 and the falling one v <= 0.  An
    s below min f_q by rounding only is treated as the minimum.
    """
    a = np.log(np.asarray(s, dtype=np.float64))
    a -= math.log(_shape_fn_min(q))
    a /= q
    x = _level_v(a, rising)
    x *= q
    x += q - 0.5
    return x


_GL_NODES = 64
_CUTOFF_STEPS = 32  # fixed-point steps for the end of a tail integral
# the longest panel of a tail integral in x = ln u: a Weibull integrand
# with gamma near 0.01 peaks at x ~ 500 with a width of ~6, which one
# 64-node panel over [0, x_max] does not resolve
_PANEL_X = 32.0


@functools.lru_cache(maxsize=4)
def _gauss_legendre01(n: int):
    """Gauss-Legendre nodes and weights for int_0^1 (read-only arrays).

    Newton's method on P_n from the three-term recurrence, started at
    cos(pi (i - 1/4) / (n + 1/2)).  Unlike numpy's leggauss it makes no
    LAPACK call, whose first use costs about 1 MB of resident memory,
    and its weights are closer to a 40-digit reference (within 3e-13
    relative at n = 128, against 1e-11 for leggauss)."""
    x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p_prev, p = np.ones_like(x), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = n * (x * p - p_prev) / (x * x - 1.0)  # P_n'(x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    nodes, weights = 0.5 * (x + 1.0), 1.0 / ((1.0 - x * x) * dp * dp)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _I_rule(t, d: int, y_kink, y_max, n: int):
    """The n-node Gauss-Legendre value of I(t) in y = ln v, for columns
    t, y_kink, y_max of shape (m, 1); returns shape (m,).

    Panel 1, y in [0, y_kink]: the u-section starts at u = 1.  Panel 2,
    y in [y_kink, y_max]: both ends of the u-section are level sets and
    the inner mass vanishes like sqrt(y_max - y), which the substitution
    y = y_max - (y_max - y_kink) w^2 makes smooth in w."""
    q = d / 2.0
    xi, wi = _gauss_legendre01(n)

    def integrand(y, lower_level_set):
        # the integrand in v times dv/dy = v, with the u-section's level
        # s = t / f_{1/2}(v) and its exact inner mass
        s = t * np.sqrt(1.0 + 2.0 * y) * np.exp(-y)
        x_lo = _level_x(q, s, rising=False) if lower_level_set else 0.0
        mass = _poly_exp_integral(d, x_lo, _level_x(q, s, rising=True))
        return np.log1p(np.exp(y)) ** (2 * d - 2) * (1.0 + 2.0 * y) * mass

    span = y_max - y_kink
    panel1 = integrand(y_kink * xi, False) * (y_kink * wi)
    panel2 = integrand(y_max - span * xi**2, True) * (span * 2.0 * xi * wi)
    return (panel1 + panel2).sum(axis=1)


def I_integral(t, dprev: int):
    """The induction-step planar integral at level d = dprev + 1; accepts
    an array of t.

    Each value is the 2n-node rule of _I_rule (n = _GL_NODES); its
    distance to the n-node rule is the error estimate, which must stay
    within max(_ABS_FLOOR, |I| _REL_TOL) at every t.  The rules run over
    slices of t (_by_rows); the 161-point grid of _level_K is one."""
    check_number("dprev", dprev, lo=1, hi=5, integer=True)
    ts = np.asarray(t)
    if ts.dtype.kind not in "iuf":
        raise InvalidInputError("t must be a number or an array of numbers, not %r" % (t,))
    ts = ts.astype(np.float64)
    if not np.all((ts > 0) & (ts < math.inf)):
        raise InvalidRangeError("t must be positive and finite")
    d = dprev + 1
    col = ts.reshape(-1, 1)
    # f_{1/2} rises from 1 at y = ln v = 0: the u-section is nonempty while
    # f_{1/2}(v) < t / min f_{d/2} (y < y_max) and starts at u = 1 while
    # f_{1/2}(v) <= t (y <= y_kink); y_max = 0 makes I(t) = 0, and
    # y_kink = 0 for t <= 1
    y_max = _level_x(0.5, np.maximum(col / _shape_fn_min(d / 2.0), 1.0), rising=True)
    y_kink = _level_x(0.5, np.maximum(col, 1.0), rising=True)

    def rule(n):
        return _by_rows(lambda r: _I_rule(col[r], d, y_kink[r], y_max[r], n), len(col), n)

    val = _converged(rule, _GL_NODES, "I(t) quadrature",
                     lambda i: "t=%g, d=%d" % (col[i, 0], d))
    val = val.reshape(ts.shape)
    return val if val.ndim else float(val)


_GRID_PER_DECADE = 20
_T_MAX = 1.0e8


def _level_K(d: int) -> tuple:
    """Realize K_d = 1.05 sup_grid I(t)/(log(1+t))^{p_d} plus the sliver
    majorant M_d, with a running-sup stabilization check; returns the
    K_levels row (d, K_d, M_d, t at the sup, last-decade drift)."""
    p_d = 2 * d
    decades = int(round(math.log10(_T_MAX)))
    ts = np.logspace(0.0, math.log10(_T_MAX), decades * _GRID_PER_DECADE + 1)
    I_vals = I_integral(ts, d - 1)
    ratios = I_vals / np.log1p(ts) ** p_d
    running = np.maximum.accumulate(ratios)
    sup_full = float(running[-1])
    if sup_full <= 0:
        raise NumericFailureError("grid sup for K_%d vanished" % d)
    cut = np.searchsorted(ts, _T_MAX / 10.0)
    sup_before = float(running[min(cut, len(ts) - 1)])
    drift = (sup_full - sup_before) / sup_full
    if drift > 0.01:
        raise NumericFailureError(
            "grid sup for K_%d still moving over the last decade (%.3f%%)" % (d, 100 * drift)
        )
    # the sliver majorant 1 / (min over u, v >= 1 of f_{d/2}(u) f_{1/2}(v))^2
    # in closed form (f_{1/2} has its minimum 1 at v = 1)
    return (d, 1.05 * sup_full, _shape_fn_min(d / 2.0) ** -2.0,
            float(ts[int(np.argmax(ratios))]), drift)


def recurse_constants(d: int) -> BoundConstants:
    """Constants for dimension d via the level-by-level recursion

        A'_d = A_{d-1}/5 + 2 B_{d-1}          (the (uv)^-2 integral is 1)
        A_d  = max(e^9, A'_d)
        C_d  = C_{d-1} / (4 sqrt(2))
        p_d  = p_{d-1} + 2
        B_d  = 4 B_{d-1} K_d M_d

    with K_d realized numerically and M_d in closed form, both recorded
    per level.  Each level is computed once per process."""
    return _constants(int(check_number("constants dimension d", d, lo=1, hi=6, integer=True)))


@functools.lru_cache(maxsize=None)
def _constants(d: int) -> BoundConstants:
    if d == 1:
        return base_constants()
    prev = _constants(d - 1)
    level = _level_K(d)
    _, K, M = level[:3]
    return BoundConstants(
        d=d,
        A=max(_E9, prev.A / 5.0 + 2.0 * prev.B),
        B=4.0 * prev.B * K * M,
        # C_1 / (4 sqrt(2))^(d-1) with C_1 = 2^(-3/2): a power of two, exact
        C=2.0 ** (1 - 2.5 * d),
        p=prev.p + 2,
        K_levels=prev.K_levels + (level,),
    )


# ------------------------------------------------------- bound evaluators


@dataclass(frozen=True)
class BoundValue:
    value: float
    exp_term: float
    integral_term: float
    vacuous: bool
    y_star: float = None  # thm2_rhs's optimizing y and equivalent deviation
    x_equiv: float = None


def _tail_integral(model: TailModel, scale: float, g, where: str) -> float:
    """int_1^inf tail(scale u) u g(u) du, for g vectorized and increasing,
    up to the point u_max = e^x_max past which its integrand in x = ln u,
    tail(scale u) u^2 g(u), is negligible; an unconverged rule is
    reported with `where`, the term it is.

    x_max solves ln tail(scale e^x) = _LN_NEGLIGIBLE - ln(e^(2x) g(e^x)),
    by fixed-point iteration from x = 0, which rises to it because both
    sides grow with x; the weight grows polynomially in u and the tail
    falls faster, so the steps shrink geometrically.  The integral is
    taken over [0, x_max], split into panels where the tail's min(1, .)
    switches and into equal ones at most _PANEL_X long, with the
    Gauss-Legendre rules of I_integral on each panel."""
    knots = _tail_log_knots(model)
    if knots[-1] == math.inf:
        raise InvalidInputError("tail model %r has no integrable support" % model.kind)
    if not scale > 0.0:
        raise InvalidRangeError("tail integral at scale=%g, %s: the scale underflows to 0"
                                % (scale, where))
    x_max = 0.0
    for _ in range(_CUTOFF_STEPS):
        x = max(x_max, 0.0)
        log_weight = 2.0 * x + math.log(g(math.exp(x)))
        x_max = _tail_log_knots(model, _LN_NEGLIGIBLE - log_weight)[-1] - math.log(scale)
        if x_max > _LN_FLOAT_MAX:
            raise InvalidRangeError("tail integral exceeds the float range at scale=%g, %s: "
                                    "its integrand is not negligible before u = e^%g"
                                    % (scale, where, x_max))
    if x_max <= 0.0:
        return 0.0
    kinks = [k - math.log(scale) for k in knots[:-1]]
    breaks = [0.0] + [k for k in kinks if 0.0 < k < x_max] + [x_max]
    edges = np.concatenate([np.linspace(lo, hi, math.ceil((hi - lo) / _PANEL_X) + 1)[:-1]
                            for lo, hi in zip(breaks, breaks[1:])] + [[x_max]])
    lengths = np.diff(edges)

    def rule(n):
        xi, wi = _gauss_legendre01(n)
        u = np.exp(edges[:-1, None] + lengths[:, None] * xi)  # one row of nodes per panel
        panels = np.sum(tail_eval(model, scale * u) * u * u * g(u) * wi, axis=1)
        return float(np.sum(lengths * panels))

    return float(_converged(rule, _GL_NODES, "tail integral",
                            lambda i: "scale=%g, %s" % (scale, where)))


def _exp_term(A: float, ratio: float, d: int) -> float:
    """A exp(-ratio^(2/d)), 0 once ratio^(2/d) passes the float range."""
    try:
        return A * math.exp(-(ratio ** (2.0 / d)))
    except OverflowError:
        return 0.0


def thm1_rhs(x, y: float, model: TailModel, consts: BoundConstants):
    """The two-term bound at deviation x (in units of sqrt(|n|)) and free
    parameter y.  Values above 1 are reported as-is with vacuous=True.
    For a sequence of x it returns a list, one BoundValue per x, and
    takes the integral term, which x does not enter, once."""
    xs = [check_number("x", v, lo=0, above=True) for v in ([x] if np.ndim(x) == 0 else x)]
    check_number("bound y", y, lo=0, above=True)
    p, scale = consts.p, y * consts.C
    integral = consts.B * _tail_integral(model, scale, lambda u: np.log1p(u) ** p, "p=%d" % p)
    if math.isinf(integral):  # a finite tail integral times B
        raise InvalidRangeError("integral term exceeds the float range at scale=%g, p=%d"
                                % (scale, p))
    out = []
    for v in xs:
        exp_term = _exp_term(consts.A, v / y, consts.d)
        value = exp_term + integral
        out.append(BoundValue(value, exp_term, integral, value >= 1.0))
    return out if np.ndim(x) else out[0]


def bounded_rhs(x: float, k: float, consts: BoundConstants) -> BoundValue:
    """Single-exponential form for |X| <= k at y = k / C; valid for
    x >= 3^(d/2) k / C, otherwise the trivial bound 1 with a flag."""
    check_number("x", x, lo=0, above=True)
    check_number("bound K", k, lo=0, above=True)
    threshold = 3.0 ** (consts.d / 2.0) * k / consts.C
    if x < threshold:
        return BoundValue(1.0, 1.0, 0.0, True)
    value = _exp_term(consts.A, consts.C * x / k, consts.d)
    return BoundValue(value, value, 0.0, value >= 1.0)


def thm2_rhs(x: float, shape, gamma: float) -> BoundValue:
    """Bound on P{|S_N| / |N| > x} under the exp(s^gamma) envelope, on a
    lattice of the given shape (d = len(shape) axes).

    Applies the two-term bound at the equivalent normalized deviation
    x |N|^(1/2) with the optimizing y* = |N|^(1/(2+d gamma)) x^(2/(2+d gamma)),
    which balances the two terms and yields the advertised stretched
    exponent gamma/(2 + d gamma) in |N|."""
    check_number("x", x, lo=0, above=True)
    # weibull_envelope(gamma), with gamma checked as the bound's
    envelope = TailModel("weibull", float(check_number("bound gamma", gamma, lo=0, above=True)))
    shape = tuple(check_number("shape extent", n, lo=1, integer=True) for n in shape)
    d = len(shape)
    n_cells = math.prod(shape)
    if n_cells > sys.float_info.max:
        raise InvalidRangeError("lattice of about 2^%.0f cells exceeds the float range"
                                % math.log2(n_cells))
    consts = recurse_constants(d)
    y_star = n_cells ** (1.0 / (2.0 + d * gamma)) * x ** (2.0 / (2.0 + d * gamma))
    x_equiv = x * math.sqrt(n_cells)
    return replace(thm1_rhs(x_equiv, y_star, envelope, consts), y_star=y_star, x_equiv=x_equiv)


# the keys each kind of bound reads: its evaluator's number, then two-term's tail
_BOUND_KINDS = {"bounded": ("K",), "two-term": ("y", "tail"), "large-deviation": ("gamma",)}


def verify_values(bound: dict, shape, x_grid) -> tuple:
    """What verify-bound compares with, for a JSON bound object
    ({"kind": "bounded", "K": k}, {"kind": "two-term", "y": y, "tail": tail}
    or {"kind": "large-deviation", "gamma": g}) on a lattice of the given
    shape: the replica statistic and the scale of x in it ("max", max |S_k|,
    and sqrt(|n|); "total", S_n, and |n| for the large-deviation kind), the
    constants of d = len(shape), and one BoundValue per x in x_grid from
    the evaluator of the kind, which checks the bound's numbers."""
    kind = check_kind("bound", bound, _BOUND_KINDS)
    param = bound[_BOUND_KINDS[kind][0]]
    model = tail_from_dict(bound["tail"]) if kind == "two-term" else None
    consts = recurse_constants(len(shape))
    if kind == "large-deviation":
        return "total", volume(shape), consts, [thm2_rhs(x, shape, param) for x in x_grid]
    if kind == "bounded":
        values = [bounded_rhs(x, param, consts) for x in x_grid]
    else:  # one call, so the integral term (x-free) is taken once
        values = thm1_rhs(x_grid, param, model, consts)
    return "max", math.sqrt(volume(shape)), consts, values


# ------------------------------------------------ summability diagnostics


# the deepest dyadic level of the summability diagnostics: 2^j and the
# sum 2^1 + ... + 2^j stay below the float maximum 2^1024
_MAX_LEVEL = 1022


def _factor_at_level(L: "SlowlyVarying", j: int) -> float:
    """L(2^j), checked to be a positive float: a factor past the float
    range would make 2^j / L(2^j) zero and L(2^j) * a infinite."""
    with np.errstate(over="ignore"):
        value = float(L(2.0**j))
    if not 0.0 < value < math.inf:
        raise InvalidRangeError("the slowly varying factor L(2^%d) = %r is not a positive float"
                                % (j, value))
    return value


def cond_wip_check(L: "SlowlyVarying", model: TailModel, a: float, j_max: int) -> dict:
    """Partial sums of sum_j 2^j tail(L(2^j) * a); converged when the last
    ten levels contribute below 1e-12 of the total."""
    check_number("a", a, lo=0, above=True)
    check_number("j_max", j_max, lo=1, hi=_MAX_LEVEL, integer=True)
    terms = []
    for j in range(1, j_max + 1):
        terms.append(2.0**j * float(tail_eval(model, _factor_at_level(L, j) * a)))
    partial = np.cumsum(terms)
    total = float(partial[-1])
    tail_part = float(sum(terms[-min(10, len(terms)) :]))
    converged = total > 0 and tail_part <= 1e-12 * total or total == 0.0
    return {
        "terms": [float(t) for t in terms],
        "partial_sums": [float(s) for s in partial],
        "total": total,
        "converged": bool(converged),
    }


def lemma_svarying_partial_sum(L: "SlowlyVarying", k_max: int) -> dict:
    """Ratios r_k = (sum_{j<=k} 2^j / L(2^j)) / (2^k / L(2^k)); their max
    is the realized comparison constant."""
    check_number("k_max", k_max, lo=1, hi=_MAX_LEVEL, integer=True)
    ratios = []
    acc = 0.0
    for k in range(1, k_max + 1):
        term = 2.0**k / _factor_at_level(L, k)
        acc += term
        if acc == math.inf:
            raise InvalidRangeError("the sum of 2^j / L(2^j) exceeds the float range by j=%d" % k)
        ratios.append(acc / term)
    return {"ratios": ratios, "C_L": max(ratios)}


def lemma3_moment_sum(L: "SlowlyVarying", model: TailModel, c: float, j_max: int) -> dict:
    """Partial sums of sum_j 2^j int_1^inf tail(L(2^j) u c) u^2 du.  Every
    term diverges when the tail never falls to a negligible level (unit,
    the only such kind), and every other term is finite."""
    check_number("c", c, lo=0, above=True)
    check_number("j_max", j_max, lo=1, hi=_MAX_LEVEL, integer=True)
    levels = range(1, j_max + 1)
    if _tail_log_knots(model)[-1] == math.inf:
        return {"terms": [math.inf] * j_max, "total": math.inf,
                "diverged_levels": list(levels), "converged": False}
    terms = [2.0**j * _tail_integral(model, _factor_at_level(L, j) * c, lambda u: u, "j=%d" % j)
             for j in levels]
    total = float(sum(terms))
    if math.isinf(total):
        raise InvalidRangeError("the moment sum exceeds the float range by j=%d" % j_max)
    tail_part = sum(terms[-min(10, len(terms)):])
    return {
        "terms": terms,
        "total": total,
        "diverged_levels": [],
        "converged": total == 0.0 or tail_part <= 1e-9 * total,
    }


# ------------------------------------------------------- tail exponent fit


@dataclass(frozen=True)
class ExponentFit:
    gamma_hat: float
    window: tuple
    grid: tuple  # (x, p_hat) pairs used in the fit


def exponent_fit(samples, window=(0.90, 0.999), grid_points: int = 24) -> ExponentFit:
    """Least-squares slope of log(-log P{|Y| > x}) against log x.

    The empirical tail is read off the sorted magnitudes on a log-spaced
    x grid between the two window quantiles.  Deeper windows are less
    biased when -log P carries slowly varying corrections; the caller
    chooses the depth its sample size supports."""
    lo_q, hi_q = (float(check_number("window", window[i])) for i in (0, 1))
    if not 0.5 <= lo_q < hi_q < 1.0:
        raise InvalidRangeError("window must satisfy 0.5 <= lo < hi < 1")
    _block_size(check_number("grid_points", grid_points, lo=4, integer=True), "exponent-fit grid")
    mags = np.sort(np.abs(np.asarray(samples, dtype=np.float64)))
    n = mags.size
    if n < 1000:
        raise InsufficientDataError("exponent fit needs at least 1000 samples")
    x_lo = float(np.quantile(mags, lo_q))
    x_hi = float(np.quantile(mags, hi_q))
    if not 0.0 < x_lo < x_hi:
        raise InsufficientDataError("degenerate sample window [%g, %g]" % (x_lo, x_hi))
    grid = np.geomspace(x_lo, x_hi, grid_points)
    p_hat = (n - np.searchsorted(mags, grid, side="right")) / n
    if np.any(p_hat <= 0.0) or np.any(p_hat >= 1.0):
        raise InsufficientDataError("empirical tail leaves (0, 1) inside the window")
    slope, _ = np.polyfit(np.log(grid), np.log(-np.log(p_hat)), 1)
    return ExponentFit(float(slope), (lo_q, hi_q), tuple(zip(grid.tolist(), p_hat.tolist())))
