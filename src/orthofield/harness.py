"""Monte Carlo experiment driver with machine-readable reports.

Every experiment is described by an ExperimentConfig, checked against
its row of _SCHEMA (the end of this module), and run by run_experiment,
the one way to run one.  It calls the experiment's private runner,
which returns only the payload parts it has (its rows and, where it has
them, its constants, tolerances and counts), and builds the Report,
whose payload is a pure function of the config.  The verdict comes from
the rows by one rule: INFO when no row carries an "ok" key, otherwise
PASS when every "ok" holds and FAIL when one does not.  The constants
runner alone names its verdict (see _constants).

Replicas are counter-addressed through the generator layer, so the same
config yields the same numbers however many threads run the replica
blocks of the lattice layer's driver; reductions walk the blocks in
index order and a row's "ok" only looks at precomputed intervals.  Each
experiment asks the generator layer's one replica reduction
(replica_stats, which plans, threads and gathers its own blocks) for
only the per-replica statistics it reads: deviation the maximum |S_k|,
verify-bound the one bounds.verify_values names for its bound, fdd and
exponent-fit (of a one-site decoupled Gaussian product) the total S_n,
induction-check the maximum and the last-slab maximum, and tightness the
maximum, once per dyadic level.  Tails are counted in one function,
_tail_rows (hits, share and Wilson interval per threshold), which
induction-check calls on its maxima and deviation, verify-bound and
tightness through _exceedances, the one caller that hands replica_stats
a floor: the smallest threshold, under the floor rule of the generators
module docstring, so an iid field skips the value map and the prefix
sums of replicas that cannot reach it.  The partial-sum process W itself
is sampled in one loop, _w_blocks, which draws, pads, sizes and drives
the blocks of padded prefix arrays that sheet-cov gathers its nodes
from and holder-norm takes its norms of.  A row number that is not
finite, which strict JSON cannot hold, is an InvalidRangeError naming
the experiment, the row and the key.

Reports separate the reproducible payload (config echo, rows, verdicts,
constants trace, tolerances) from the timing block (timestamp, wall
clock); canonical_json serializes the payload alone with sorted keys,
which is what reproducibility comparisons hash.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field as dc_field, make_dataclass
from datetime import datetime, timezone

import numpy as np

from . import bounds, holder
from .errors import InvalidInputError, InvalidRangeError, check_number, check_object, quote
from .generators import (
    GeneratorSpec,
    decoupled_product,
    generate_batch,
    iid_gaussian,
    replica_stats,
    spec_from_json,
    spec_to_dict,
    spec_variance,
    stream_uniforms,
)
from .lattice import (
    _block_size,
    _map_blocks,
    batch_prefix,
    padded_prefix,
    validate_shape,
    volume,
)
from .stats import ks_normal, wilson_interval

_KS_ALLOWANCE = 0.015

# ------------------------------------------------------------- report


@dataclass(frozen=True)
class Report:
    experiment: str
    config: dict
    verdict: str  # PASS | FAIL | INFO
    rows: tuple
    constants: dict = None
    tolerances: dict = dc_field(default_factory=dict)
    counts: dict = dc_field(default_factory=dict)
    wall_clock_s: float = 0.0
    timestamp: str = ""

    def payload(self) -> dict:
        return {"experiment": self.experiment, "config": self.config, "verdict": self.verdict,
                "rows": [dict(r) for r in self.rows], "constants": self.constants,
                "tolerances": self.tolerances, "counts": self.counts}

    def canonical_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True)

    def to_json(self) -> str:
        obj = self.payload()
        obj["timing"] = {"timestamp": self.timestamp, "wall_clock_s": self.wall_clock_s}
        return json.dumps(obj, sort_keys=True, indent=2)


def _tail_rows(values: np.ndarray, thresholds) -> list:
    """Per threshold, the values that exceed it: a row of their count,
    their share and its Wilson interval."""
    rows = []
    for threshold in thresholds:
        hits = int(np.count_nonzero(values > threshold))
        lo, hi = wilson_interval(hits, values.size)
        rows.append({"hits": hits, "p_hat": hits / values.size, "ci_lo": lo, "ci_hi": hi})
    return rows


def _exceedances(config: ExperimentConfig, shape, stat: str, thresholds, start: int = 0) -> list:
    """_tail_rows of the lone statistic stat of the replicas [start,
    start + config.replicas) of config's generator on the lattice shape;
    replica_stats gets the smallest threshold as its floor."""
    values, = replica_stats(config.generator, shape, config.seed, start, config.replicas,
                            (stat,), config.threads, floor=min(thresholds))
    return _tail_rows(values, thresholds)


def _w_blocks(config: ExperimentConfig, spec: GeneratorSpec, shape, held: int, reduce):
    """The per-replica values that reduce returns for the blocks of W
    of config's replicas of spec on the lattice shape, concatenated in
    block order: the padded prefix arrays of each block's fields
    (generate_batch, batch_prefix, padded_prefix with lead=1).  reduce
    gets the call draw() that makes them, so a reduce that hands draw()
    straight on holds them only as an argument, and grid_seq_norms frees
    them once its grid is built.  A block holds the padded arrays beside
    the larger of the lattice they are copied from and the `held` cells
    per replica that reduce keeps, and is sized for both."""
    def block(start, count):
        return reduce(lambda: padded_prefix(batch_prefix(generate_batch(
            spec, shape, config.seed, start, count)), lead=1))

    cells = (volume(n + 1 for n in shape), max(volume(shape), held))
    blocks = range(0, config.replicas, _block_size(cells, "largest W block array"))
    return np.concatenate(_map_blocks(block, blocks, config.threads))


# --------------------------------------------------------- experiments


def _deviation(config: ExperimentConfig) -> dict:
    """Estimate P{max |S_i| > x sqrt(|n|)} over the configured x grid."""
    scale = math.sqrt(volume(config.shape))
    rows = _exceedances(config, config.shape, "max", [x * scale for x in config.x_grid])
    for row, x in zip(rows, config.x_grid):
        row["x"] = x
    return {"rows": rows}


def _verify_bound(config: ExperimentConfig) -> dict:
    """Overlay Monte Carlo tail estimates with the bound values, on the
    statistic and scale of x that bounds.verify_values names.

    A row is ok when the Wilson upper limit sits at or below the bound,
    or when the point is vacuous (bound >= 1): vacuous points are echoed
    but cannot fail."""
    stat, scale, consts, values = bounds.verify_values(config.bound, config.shape, config.x_grid)
    rows = _exceedances(config, config.shape, stat, [x * scale for x in config.x_grid])
    for row, x, bv in zip(rows, config.x_grid, values):
        row.update(x=x, bound=bv.value, exp_term=bv.exp_term, integral_term=bv.integral_term,
                   vacuous=bv.vacuous, ok=bv.vacuous or row["ci_hi"] <= bv.value)
        row.update((key, getattr(bv, key)) for key in ("y_star", "x_equiv")
                   if getattr(bv, key) is not None)
    counts = {"replicas": config.replicas,
              "informative_points": sum(not r["vacuous"] for r in rows)}
    return {"rows": rows, "constants": consts.to_dict(), "counts": counts}


def _induction_check(config: ExperimentConfig) -> dict:
    """Doob-step comparison: the full-lattice maximum tail should sit
    below the integrated tail of the last-slab maximum,

        P{M > x sqrt(|n|)} <= int_1^inf P{M' > x sqrt(|n|) u / 2} du,

    where M' maximizes over the first d-1 axes with the last axis summed
    out.  The right side is the exact integral of the empirical step
    tail: mean over replicas of max(0, 2 M' / (x sqrt(|n|)) - 1)."""
    shape = config.shape
    if len(shape) < 2:
        raise InvalidRangeError("induction check needs d >= 2")
    m_all, m_slab = replica_stats(config.generator, shape, config.seed, 0, config.replicas,
                                  ("max", "slab"), config.threads)
    scale = math.sqrt(volume(shape))
    n = config.replicas
    rows = []
    for x, tail in zip(config.x_grid, _tail_rows(m_all, [x * scale for x in config.x_grid])):
        p_lhs = tail["p_hat"]
        se_lhs = math.sqrt(max(p_lhs * (1 - p_lhs), 0.0) / n) + 1.0 / n
        with np.errstate(over="ignore", invalid="ignore"):  # run_experiment refuses inf
            integrand = np.maximum(0.0, 2.0 * m_slab / (x * scale) - 1.0)
            rhs = float(np.mean(integrand))
            # the spread of the integrand scaled by the power of two at its
            # largest value, so its squares stay in range; a power of two
            # keeps every bit of a spread whose squares were in range
            top = float(np.max(integrand))
            shift = math.frexp(top)[1] if 0.0 < top < math.inf else 0
            se_rhs = math.ldexp(float(np.std(np.ldexp(integrand, -shift))), shift) / math.sqrt(n)
        ok = p_lhs <= rhs + 2.0 * (se_lhs + se_rhs)
        rows.append({"x": x, "p_lhs": p_lhs, "se_lhs": se_lhs, "rhs": rhs,
                     "se_rhs": se_rhs, "ok": ok})
    return {"rows": rows, "tolerances": {"margin": "2 * (se_lhs + se_rhs)"}}


def _sheet_cov(config: ExperimentConfig) -> dict:
    """Empirical node covariance of simulated Brownian sheets against the
    product of coordinate minima; a pair is ok within 3 standard errors.

    The sheets at the grid nodes k/res are W blocks of independent
    centered Gaussian cells of variance 1/|res|, the cell volume, so
    E[W(t) W(t')] = prod min(t_q, t'_q) at the nodes, and the zero face
    holds k_q = 0.  The node pairs are drawn first, and each block keeps
    only its (count, pairs, 2) values at those nodes."""
    res = config.shape
    d = len(res)
    _block_size(2 * d * config.pairs, "node pair draws")
    _block_size(2 * config.pairs * config.replicas, "sheet-cov node values")
    draws = stream_uniforms(config.seed, "sheet-pairs", 2 * d * config.pairs)
    nodes = 1 + (draws.reshape(config.pairs, 2, d) * np.array(res)).astype(np.int64)
    sites = (slice(None),) + tuple(nodes[:, :, q] for q in range(d))
    spec = iid_gaussian(d, sigma=math.sqrt(1.0 / volume(res)))
    values = _w_blocks(config, spec, res, 2 * config.pairs, lambda draw: draw()[sites])
    rows = []
    for idx in range(config.pairs):
        k1, k2 = (tuple(int(k) for k in nodes[idx, side]) for side in range(2))
        prod = values[:, idx, 0] * values[:, idx, 1]
        emp = float(np.mean(prod))
        se = float(np.std(prod)) / math.sqrt(config.replicas)
        true = math.prod(min(a, b) / r for a, b, r in zip(k1, k2, res))
        z = 0.0 if se == 0 else (emp - true) / se
        rows.append({"node_a": list(k1), "node_b": list(k2), "empirical": emp,
                     "expected": true, "se": se, "z": z, "ok": abs(z) <= 3.0})
    return {"rows": rows, "tolerances": {"z_max": 3.0}}


def _fdd(config: ExperimentConfig) -> dict:
    """Kolmogorov-Smirnov comparison of W_n(t) replicas against the
    centered normal with variance Var(X) prod t_q.

    t must be a lattice-aligned point (every n_q t_q an integer) so the
    sampled value is an exact normalized partial sum; interpolated
    points would mix lattice cells and bias the test."""
    shape = config.shape
    point = tuple(float(v) for v in config.t_point)
    if len(point) != len(shape):
        raise InvalidInputError("t must have one coordinate per axis")
    k = []
    for t_q, n_q in zip(point, shape):
        # the box [1, k] needs a node k_q >= 1 on every axis; t_q is
        # checked before t_q n_q is rounded, which a huge t_q overflows
        k_q = round(t_q * n_q) if 0.0 < t_q <= 1.0 else 0
        if k_q < 1 or abs(t_q * n_q - k_q) > 1e-9:
            raise InvalidInputError("t must be grid aligned with 1 / n_q <= t_q <= 1, not %s"
                                    % quote(list(point)))
        k.append(k_q)
    sigma2 = spec_variance(config.generator) * math.prod(point)
    # counter-mode sites: the box [1, k] alone holds the same values as
    # that box of the full lattice, and its total is S_k
    samples, = replica_stats(config.generator, k, config.seed, 0, config.replicas,
                             ("total",), config.threads)
    ks = ks_normal(samples / math.sqrt(volume(shape)), sigma2)
    threshold = 1.36 / math.sqrt(samples.size) + _KS_ALLOWANCE
    rows = [{"t": list(point), "k": k, "ks_stat": ks, "threshold": threshold,
             "sigma2": sigma2, "ok": ks <= threshold}]
    return {"rows": rows, "tolerances": {"ks": "1.36/sqrt(R) + %g" % _KS_ALLOWANCE}}


def _holder_norm(config: ExperimentConfig) -> dict:
    """Distribution of the sequential norm of W_n across replicas, per
    lattice size; quantile stability across growing n is the tightness
    proxy reported."""
    rho = holder.modulus_from_dict(config.modulus, config.generator.d)
    rows = []
    for shape in config.shapes:
        levels = max(math.ceil(math.log2(max(shape))), 1) if config.j_max is None else config.j_max
        norms = _w_blocks(config, config.generator, shape,
                          holder.full_grid_count(levels, len(shape)),
                          lambda draw: holder.grid_seq_norms(draw(), rho, levels))
        qs = np.quantile(norms, [0.25, 0.5, 0.75, 0.9])
        rows.append({"shape": list(shape), "j_max": levels, "max": float(np.max(norms)),
                     **{key: float(q) for key, q in zip(("q25", "median", "q75", "q90"), qs)}})
    return {"rows": rows}


def _tightness(config: ExperimentConfig) -> dict:
    """Monte Carlo estimate of the dyadic tightness sum

        sum_{j=J}^{m_q} 2^j P{ max_k |S_k| > eps rho(2^-j) prod_u 2^(m_u/2) }

    where the max runs over the box with axis-q extent 2^(m_q - j) and
    full extent 2^(m_u) on the other axes, and its tail sums for every
    starting level J from j_from on; the sums are nonincreasing in J by
    construction.  Level j reads replicas [j R, (j + 1) R) of the R
    configured, so levels never share a field; the scaled standard error
    is 2^j times the Wilson half-width, so zero-hit levels still carry an
    honest width."""
    m, q, j_from, n = config.exponents, config.axis_q, config.j_from, config.replicas
    rho = holder.modulus_from_dict(config.modulus, len(m))
    if q > len(m):
        raise InvalidRangeError("axis_q=%d outside 1..%d" % (q, len(m)))
    if j_from > m[q - 1]:
        raise InvalidRangeError("need j_from <= m_q, got j_from=%d, m_q=%d" % (j_from, m[q - 1]))
    # the normalizer prod_u 2^(m_u / 2) overflows a float once sum(m)
    # reaches 2048, and the level-j_from lattice, of 2^(sum(m) - j_from)
    # cells, is the largest one built; the sum is compared first, so the
    # cell count is never a huge integer
    if sum(m) >= 2048:
        raise InvalidRangeError("exponents %s sum to %d; the normalizer 2^(sum / 2) needs "
                                "a sum below 2048" % (quote(m), sum(m)))
    _block_size(2 ** (sum(m) - j_from), "lattice")
    sqrt_full = math.prod(2.0 ** (mu / 2.0) for mu in m)
    rows = []
    for j in range(j_from, m[q - 1] + 1):
        shape = tuple(2 ** (mu - j) if u == q - 1 else 2**mu for u, mu in enumerate(m))
        # rho(2^-j) as the modulus keeps it, on the levels it is checked on
        scale = rho._levels[j] if j <= holder.MODULUS_LEVELS else holder.modulus_eval(rho, 2.0**-j)
        threshold = config.eps * scale * sqrt_full
        row, = _exceedances(config, shape, "max", [threshold], j * n)
        lo, hi = row.pop("ci_lo"), row.pop("ci_hi")
        rows.append({"j": j, "shape": list(shape), "threshold": threshold, **row,
                     "scaled": 2.0**j * row["p_hat"], "scaled_se": 2.0**j * 0.5 * (hi - lo)})
    scaled = [r["scaled"] for r in rows]
    sums = {str(r["j"]): float(sum(scaled[i:])) for i, r in enumerate(rows)}
    rows.append({"tail_sums": sums, "total": float(sum(scaled))})
    return {"rows": rows}


def _constants(config: ExperimentConfig) -> dict:
    """The constants table of levels 1..d, one row per level.  The rows
    are level tables with no "ok", and the verdict is PASS by name: a
    table exists only when bounds._level_K has found every level's
    last-decade drift within 0.01, since it raises NumericFailureError
    above that."""
    table = [bounds.recurse_constants(level).to_dict() for level in range(1, config.d + 1)]
    return {"rows": table, "verdict": "PASS", "constants": table[-1],
            "tolerances": {"last_decade_drift": 0.01}}


def _lemma_checks(config: ExperimentConfig) -> dict:
    """Run the three slowly-varying summability diagnostics with one
    factor L and one tail model; their rows are ok when the comparison
    ratios are trend-free and when each series converges."""
    L = holder.svarying_from_dict(config.svarying)
    model = bounds.tail_from_dict(config.tail)
    ratios = bounds.lemma_svarying_partial_sum(L, config.k_max)
    last = ratios["ratios"][-min(10, config.k_max):]
    slope = float(np.polyfit(np.arange(len(last)), last, 1)[0]) if len(last) > 1 else 0.0
    trend_free = slope <= 1e-3 * max(1.0, float(np.mean(last)))
    wip = bounds.cond_wip_check(L, model, config.a, config.j_max)
    moments = bounds.lemma3_moment_sum(L, model, config.c, config.j_max)
    rows = [
        {"check": "svarying_partial_sum", "C_L": ratios["C_L"], "last_slope": slope,
         "ok": trend_free},
        {"check": "cond_wip", "total": wip["total"], "ok": wip["converged"]},
        {"check": "moment_sum", "total": _json_float(moments["total"]),
         "diverged_levels": moments["diverged_levels"], "ok": moments["converged"]},
    ]
    return {"rows": rows}


def _exponent_fit(config: ExperimentConfig) -> dict:
    """Tail-exponent fit for |X_1 ... X_d|, d independent standard
    normals drawn as a one-site decoupled Gaussian product; the exponent
    should sit near 2/d, and the optional band gives the row its "ok"."""
    d = config.d
    prod, = replica_stats(decoupled_product(d, "gaussian"), (1,) * d, config.seed, 0,
                          config.replicas, ("total",), config.threads)
    fit = bounds.exponent_fit(prod, window=config.window, grid_points=config.grid_points)
    row = {"d": d, "gamma_hat": fit.gamma_hat, "target": 2.0 / d,
           "window": list(fit.window)}
    if config.band is not None:
        lo, hi = config.band
        row.update(band=[lo, hi], ok=lo <= fit.gamma_hat <= hi)
    return {"rows": [row]}


def _json_float(x: float):
    return x if math.isfinite(x) else ("inf" if x > 0 else "-inf")


# ------------------------------------------------------------- config


def _integer(lo, hi=math.inf):
    return functools.partial(check_number, lo=lo, hi=hi, integer=True)


_positive = functools.partial(check_number, lo=0, above=True)


def _budgeted(check, what):
    """check, then the block budget on the float64 array of that many
    values the field sizes (lattice._block_size)."""
    def checked(name, value):
        value = check(name, value)
        _block_size(value, what)
        return value
    return checked


def _list_of(item, n=None):
    def check(name, value):
        if not isinstance(value, (list, tuple)) or not value or n not in (None, len(value)):
            raise InvalidInputError("%s must be a list of %s, not %s"
                                    % (name, n or "1 or more", quote(value)))
        return tuple(item(name, v) for v in value)
    return check


def _generator(name, value):
    return value if isinstance(value, GeneratorSpec) else spec_from_json(check_object(name, value))


def _shape(name, value):
    return validate_shape(_list_of(_integer(1))(name, value))


def _band(name, value):
    band = _list_of(check_number, 2)(name, value)
    if not band[0] < band[1]:
        raise InvalidInputError("band must be [lo, hi] with lo < hi, not %r" % (list(band),))
    return band


def _x_grid(name, value):
    grid = tuple(float(x) for x in _list_of(_positive)(name, value))
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidInputError("x_grid must be strictly increasing")
    return grid


_REQUIRED = object()
_GENERATOR, _SHAPE, _X_GRID, _OBJECT = (
    (check, _REQUIRED) for check in (_generator, _shape, _x_grid, check_object))

# Each experiment's runner and fields, a field as name: (check, default).
# check(name, value as given) returns the value the runner reads or
# raises; _REQUIRED marks a field without a default.  The spec parsers
# read object fields (bound, modulus, tail, svarying) when the
# experiment runs.
# every experiment keeps at least one float64 per replica
_COMMON = {"replicas": (_budgeted(_integer(1), "per-replica results"), 1),
           "seed": (_integer(0, 2**64 - 1), 0), "threads": (_integer(1), 1)}
# fdd and sheet-cov gate on sampled spreads, which one replica cannot
# give: fdd's KS threshold 1.36 / sqrt(R) + _KS_ALLOWANCE is below 1, the
# largest KS distance, only from R = 2, and sheet-cov's standard errors
# are all 0 at R = 1
_SPREAD_REPLICAS = (_budgeted(_integer(2), "per-replica results"), _REQUIRED)
_SCHEMA = {
    "deviation": (_deviation, {"generator": _GENERATOR, "shape": _SHAPE, "x_grid": _X_GRID}),
    "verify-bound": (_verify_bound, {"generator": _GENERATOR, "shape": _SHAPE,
                                     "x_grid": _X_GRID, "bound": _OBJECT}),
    "induction-check": (_induction_check, {"generator": _GENERATOR, "shape": _SHAPE,
                                           "x_grid": _X_GRID}),
    "tightness": (_tightness, {
        "generator": _GENERATOR, "exponents": (_list_of(_integer(0)), _REQUIRED),
        "eps": (_positive, _REQUIRED), "axis_q": (_integer(1), _REQUIRED),
        "j_from": (_integer(0), _REQUIRED), "modulus": _OBJECT}),
    "fdd": (_fdd, {"generator": _GENERATOR, "shape": _SHAPE,
                   "t_point": (_list_of(check_number), _REQUIRED), "replicas": _SPREAD_REPLICAS}),
    "sheet-cov": (_sheet_cov, {"shape": _SHAPE, "pairs": (_integer(1), 10),
                               "replicas": _SPREAD_REPLICAS}),
    "holder-norm": (_holder_norm, {
        "generator": _GENERATOR, "shapes": (_list_of(_shape), _REQUIRED), "modulus": _OBJECT,
        "j_max": (_integer(0, holder.MODULUS_LEVELS), None)}),
    "constants": (_constants, {"d": (_integer(1, 6), 6)}),
    "lemma-checks": (_lemma_checks, {
        "svarying": _OBJECT, "tail": _OBJECT, "k_max": (_integer(1, bounds._MAX_LEVEL), 40),
        "j_max": (_integer(1, bounds._MAX_LEVEL), 40), "a": (_positive, 1.0),
        "c": (_positive, 1.0)}),
    "exponent-fit": (_exponent_fit, {
        "d": (_integer(1, bounds._MAX_FACTORS), _REQUIRED),
        "window": (_list_of(check_number, 2), (0.90, 0.999)),
        "grid_points": (_budgeted(_integer(4), "exponent-fit grid"), 24),
        "band": (_band, None)}),
}
EXPERIMENTS = tuple(_SCHEMA)
_FIELD_NAMES = sorted(set(_COMMON).union(*(table for _, table in _SCHEMA.values())))


def _validate(config):
    if config.experiment not in EXPERIMENTS:
        raise InvalidInputError("unknown experiment %r" % (config.experiment,))
    table = {**_COMMON, **_SCHEMA[config.experiment][1]}
    given = {name: getattr(config, name) for name in _FIELD_NAMES
             if getattr(config, name) is not None}
    check_object("experiment %r" % config.experiment, given, optional=table)
    for name, (check, default) in table.items():
        if name not in given and default is _REQUIRED:
            raise InvalidInputError("experiment %r needs %r" % (config.experiment, name))
        object.__setattr__(config, name, check(name, given[name]) if name in given else default)
    object.__setattr__(config, "given", tuple(given))
    # every lattice has the generator's axes, checked before any runner
    # builds something of the lattice's dimension, such as a modulus
    if config.generator is not None:
        lattices = [("shape", config.shape), ("exponents", config.exponents)]
        lattices += [("shapes entry", shape) for shape in config.shapes or ()]
        for name, lattice in lattices:
            if lattice is not None and len(lattice) != config.generator.d:
                raise InvalidInputError("%s %s: %d axes, but the generator has d=%d"
                                        % (name, quote(list(lattice)), len(lattice),
                                           config.generator.d))


def _to_dict(config) -> dict:
    out = {"experiment": config.experiment, "replicas": config.replicas, "seed": config.seed,
           "threads": config.threads, **{name: getattr(config, name) for name in config.given}}
    if config.generator is not None:
        out["generator"] = spec_to_dict(config.generator)
    return out


ExperimentConfig = make_dataclass(
    "ExperimentConfig",
    [("experiment", str, None)] + [(name, object, None) for name in _FIELD_NAMES]
    + [("given", tuple, dc_field(default=(), init=False, repr=False, compare=False))],
    namespace={"__module__": __name__, "__post_init__": _validate, "to_dict": _to_dict},
    frozen=True,
)
ExperimentConfig.__doc__ = """One experiment run: its name and, as keywords, the fields _SCHEMA
lists for it.  Validation fills in the defaults and keeps the names
given in `given`, which the report echo (to_dict) holds with replicas
and seed."""

def config_from_dict(data: dict) -> ExperimentConfig:
    check_object("config", data, optional=["experiment"] + _FIELD_NAMES)
    return ExperimentConfig(**data)


def run_experiment(config: ExperimentConfig) -> Report:
    """Run the experiment and build its report, with the verdict from
    the rows (see the module docstring); the config echo leaves out
    threads, since execution resources must not change the payload."""
    t0 = time.perf_counter()
    parts = {"counts": {"replicas": config.replicas}, **_SCHEMA[config.experiment][0](config)}
    rows = tuple(parts.pop("rows"))
    for index, row in enumerate(rows):
        for key, value in row.items():
            try:  # strict JSON has no Infinity or NaN
                json.dumps(value, allow_nan=False)
            except ValueError:
                raise InvalidRangeError("experiment %r: row %d's %r holds a number that is not "
                                        "finite" % (config.experiment, index, key)) from None
    if "verdict" not in parts:
        decided = [row["ok"] for row in rows if "ok" in row]
        parts["verdict"] = "INFO" if not decided else "PASS" if all(decided) else "FAIL"
    echo = config.to_dict()
    del echo["threads"]
    return Report(experiment=config.experiment, config=echo, rows=rows,
                  wall_clock_s=time.perf_counter() - t0,
                  timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"), **parts)
