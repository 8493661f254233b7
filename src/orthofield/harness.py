"""Monte Carlo experiment driver with machine-readable reports.

Every experiment is described by an ExperimentConfig, checked against
its row of _SCHEMA (the end of this module), and produces a Report
whose payload is a pure function of the config.  Replicas are
counter-addressed through the generator layer, so the same config
yields the same numbers however many threads run the replica blocks of
the lattice layer's driver; reductions walk the blocks in index order
and verdict logic only looks at precomputed intervals.  Each experiment
asks the generator layer's one block reduction (replica_stats) for
only the per-replica statistics it reads: deviation and the bounded and
two-term bounds the maximum |S_k|, the large-deviation bound and fdd
the total S_n, and induction-check the maximum and the last-slab
maximum.

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
from scipy.special import ndtri

from . import bounds, holder
from ._rng import fold, stream_key, uniform01
from .errors import InvalidInputError, InvalidRangeError, check_kind, check_number, check_object
from .generators import (
    GeneratorSpec,
    generate_batch,
    iid_gaussian,
    replica_stats,
    spec_from_json,
    spec_to_json,
    spec_variance,
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
        return {
            "experiment": self.experiment,
            "config": self.config,
            "verdict": self.verdict,
            "rows": [dict(r) for r in self.rows],
            "constants": self.constants,
            "tolerances": self.tolerances,
            "counts": self.counts,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True)

    def to_json(self) -> str:
        obj = self.payload()
        obj["timing"] = {"timestamp": self.timestamp, "wall_clock_s": self.wall_clock_s}
        return json.dumps(obj, sort_keys=True, indent=2)


def _finish(experiment, config, verdict, rows, t0, constants=None, tolerances=None, counts=None):
    echo = config.to_dict()
    echo.pop("threads", None)  # execution resources must not change the payload
    return Report(
        experiment=experiment,
        config=echo,
        verdict=verdict,
        rows=tuple(rows),
        constants=constants,
        tolerances=tolerances or {},
        counts=counts or {"replicas": config.replicas},
        wall_clock_s=time.perf_counter() - t0,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )


# ---------------------------------------------------- replica reductions


def _replica_stats(spec, shape, seed, replicas, threads, stats):
    """replica_stats of every replica, one array per name in stats,
    gathered from the blocks in block order."""
    work = functools.partial(replica_stats, spec, shape, seed, stats=stats)
    blocks = range(0, replicas, _block_size(volume(shape), "lattice"))
    parts = _map_blocks(work, blocks, threads)
    return tuple(np.concatenate([p[i] for p in parts]) for i in range(len(stats)))


# --------------------------------------------------------- experiments


def mc_deviation(config: ExperimentConfig) -> Report:
    """Estimate P{max |S_i| > x sqrt(|n|)} over the configured x grid."""
    t0 = time.perf_counter()
    m_all, = _replica_stats(config.generator, config.shape, config.seed, config.replicas,
                            config.threads, ("max",))
    scale = math.sqrt(volume(config.shape))
    rows = []
    for x in config.x_grid:
        hits = int(np.count_nonzero(m_all > x * scale))
        lo, hi = wilson_interval(hits, config.replicas)
        rows.append({"x": x, "hits": hits, "p_hat": hits / config.replicas,
                     "ci_lo": lo, "ci_hi": hi})
    return _finish("deviation", config, "INFO", rows, t0)


def verify_bound(config: ExperimentConfig) -> Report:
    """Overlay Monte Carlo tail estimates with the matching bound values.

    PASS means the Wilson upper limit sits at or below the bound at every
    informative grid point (bound < 1); vacuous points are echoed but
    excluded from the verdict."""
    t0 = time.perf_counter()
    shape = config.shape
    kind = check_kind("bound", config.bound, _BOUND_KINDS)
    key = _BOUND_KINDS[kind][0]
    param = _positive("bound " + key, config.bound[key])
    model = bounds.tail_from_dict(config.bound["tail"]) if kind == "two-term" else None
    d = len(shape)
    consts = bounds.recurse_constants(d)
    # large-deviation reads |S_n|, the other kinds max |S_k|
    stat = np.abs(_replica_stats(config.generator, shape, config.seed, config.replicas,
                                 config.threads, ("total",) if kind == "large-deviation"
                                 else ("max",))[0])
    n_cells = volume(shape)
    rows = []
    for x in config.x_grid:
        if kind == "bounded":
            threshold = x * math.sqrt(n_cells)
            bv = bounds.bounded_rhs(x, param, consts)
            extra = {}
        elif kind == "two-term":
            threshold = x * math.sqrt(n_cells)
            bv = bounds.thm1_rhs(x, param, model, consts)
            extra = {}
        else:  # large-deviation
            threshold = x * n_cells
            ld = bounds.thm2_rhs(x, shape, param, d)
            bv = bounds.BoundValue(ld.value, ld.exp_term, ld.integral_term, ld.vacuous)
            extra = {"y_star": ld.y_star, "x_equiv": ld.x_equiv}
        hits = int(np.count_nonzero(stat > threshold))
        lo, hi = wilson_interval(hits, config.replicas)
        ok = bv.vacuous or hi <= bv.value
        row = {"x": x, "hits": hits, "p_hat": hits / config.replicas, "ci_lo": lo,
               "ci_hi": hi, "bound": bv.value, "exp_term": bv.exp_term,
               "integral_term": bv.integral_term, "vacuous": bv.vacuous, "ok": ok}
        row.update(extra)
        rows.append(row)
    informative = [r for r in rows if not r["vacuous"]]
    verdict = "PASS" if all(r["ok"] for r in rows) else "FAIL"
    counts = {"replicas": config.replicas, "informative_points": len(informative)}
    return _finish("verify-bound", config, verdict, rows, t0,
                   constants=consts.to_dict(), counts=counts)


def induction_step_check(config: ExperimentConfig) -> Report:
    """Doob-step comparison: the full-lattice maximum tail should sit
    below the integrated tail of the last-slab maximum,

        P{M > x sqrt(|n|)} <= int_1^inf P{M' > x sqrt(|n|) u / 2} du,

    where M' maximizes over the first d-1 axes with the last axis summed
    out.  The right side is the exact integral of the empirical step
    tail: mean over replicas of max(0, 2 M' / (x sqrt(|n|)) - 1)."""
    t0 = time.perf_counter()
    shape = config.shape
    if len(shape) < 2:
        raise InvalidRangeError("induction check needs d >= 2")
    m_all, m_slab = _replica_stats(config.generator, shape, config.seed, config.replicas,
                                   config.threads, ("max", "slab"))
    scale = math.sqrt(volume(shape))
    n = config.replicas
    rows = []
    for x in config.x_grid:
        hits = int(np.count_nonzero(m_all > x * scale))
        p_lhs = hits / n
        se_lhs = math.sqrt(max(p_lhs * (1 - p_lhs), 0.0) / n) + 1.0 / n
        integrand = np.maximum(0.0, 2.0 * m_slab / (x * scale) - 1.0)
        rhs = float(np.mean(integrand))
        se_rhs = float(np.std(integrand)) / math.sqrt(n)
        ok = p_lhs <= rhs + 2.0 * (se_lhs + se_rhs)
        rows.append({"x": x, "p_lhs": p_lhs, "se_lhs": se_lhs, "rhs": rhs,
                     "se_rhs": se_rhs, "ok": ok})
    verdict = "PASS" if all(r["ok"] for r in rows) else "FAIL"
    return _finish("induction-check", config, verdict, rows, t0,
                   tolerances={"margin": "2 * (se_lhs + se_rhs)"})


def _sheet_block(res, seed: int, start: int, count: int) -> np.ndarray:
    """Brownian sheets of replicas [start, start + count) at the grid
    nodes k/res, padded with the zero face (k_q = 0).

    Cell increments are independent centered Gaussians with variance
    equal to the cell volume, prefix-summed, so E[W(t) W(t')] =
    prod min(t_q, t'_q) at the nodes."""
    spec = iid_gaussian(len(res), sigma=math.sqrt(1.0 / volume(res)))
    return padded_prefix(batch_prefix(generate_batch(spec, res, seed, start, count)), lead=1)


def brownian_sheet_sim(resolution, seed: int, replicas: int = 1, threads: int = 1) -> np.ndarray:
    """Sheets sampled at grid nodes k/res, one per replica (_sheet_block)."""
    res = validate_shape(resolution)
    work = functools.partial(_sheet_block, res, seed)
    blocks = range(0, replicas, _block_size(volume(n + 1 for n in res), "padded lattice"))
    return np.concatenate(_map_blocks(work, blocks, threads))


def sheet_cov_check(config: ExperimentConfig) -> Report:
    """Empirical node covariance of simulated sheets against the product
    of coordinate minima; PASS when every sampled pair is within 3
    standard errors.  The node pairs are drawn first, and each block of
    sheets keeps only its values at those nodes."""
    t0 = time.perf_counter()
    res = config.shape
    d = len(res)
    _block_size(2 * d * config.pairs, "node pair draws")
    key = stream_key(config.seed, "sheet-pairs")
    draws = uniform01(fold(key, np.arange(2 * d * config.pairs, dtype=np.uint64)))
    nodes = 1 + (draws.reshape(config.pairs, 2, d) * np.array(res)).astype(np.int64)
    sites = (slice(None),) + tuple(nodes[:, :, q] for q in range(d))

    def work(start, count):
        return _sheet_block(res, config.seed, start, count)[sites]

    # a block holds its padded sheets, then their (count, pairs, 2) node values
    cells = max(volume(n + 1 for n in res), 2 * config.pairs)
    blocks = range(0, config.replicas, _block_size(cells, "sheet block"))
    values = np.concatenate(_map_blocks(work, blocks, config.threads))
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
    verdict = "PASS" if all(r["ok"] for r in rows) else "FAIL"
    return _finish("sheet-cov", config, verdict, rows, t0, tolerances={"z_max": 3.0})


def fdd_compare(config: ExperimentConfig) -> Report:
    """Kolmogorov-Smirnov comparison of W_n(t) replicas against the
    centered normal with variance Var(X) prod t_q.

    t must be a lattice-aligned point (every n_q t_q an integer) so the
    sampled value is an exact normalized partial sum; interpolated
    points would mix lattice cells and bias the test."""
    t0 = time.perf_counter()
    shape = config.shape
    point = tuple(float(v) for v in config.t_point)
    if len(point) != len(shape):
        raise InvalidInputError("t must have one coordinate per axis")
    k = []
    for t_q, n_q in zip(point, shape):
        k_q = t_q * n_q
        if abs(k_q - round(k_q)) > 1e-9 or not 0 < t_q <= 1:
            raise InvalidInputError("t must be grid aligned with 0 < t_q <= 1")
        k.append(int(round(k_q)))
    sigma2 = spec_variance(config.generator) * math.prod(point)
    # counter-mode sites: the box [1, k] alone holds the same values as
    # that box of the full lattice, and its total is S_k
    samples, = _replica_stats(config.generator, k, config.seed, config.replicas,
                              config.threads, ("total",))
    ks = ks_normal(samples / math.sqrt(volume(shape)), sigma2)
    threshold = 1.36 / math.sqrt(samples.size) + _KS_ALLOWANCE
    verdict = "PASS" if ks <= threshold else "FAIL"
    rows = [{"t": list(point), "k": k, "ks_stat": ks, "threshold": threshold,
             "sigma2": sigma2, "ok": verdict == "PASS"}]
    return _finish("fdd", config, verdict, rows, t0,
                   tolerances={"ks": "1.36/sqrt(R) + %g" % _KS_ALLOWANCE})


def holder_norm_of_Wn(config: ExperimentConfig) -> Report:
    """Distribution of the sequential norm of W_n across replicas, per
    lattice size; quantile stability across growing n is the tightness
    proxy reported."""
    t0 = time.perf_counter()
    rows = []
    for shape in config.shapes:
        rho_s = holder.modulus_from_dict(config.modulus, len(shape))
        finest = max(int(math.ceil(math.log2(max(shape)))), 1)
        levels = finest if config.j_max is None else config.j_max

        def work(start, count, shape=shape, rho_s=rho_s, levels=levels):
            prefix = batch_prefix(generate_batch(config.generator, shape, config.seed, start,
                                                 count))
            return holder.grid_seq_norms(padded_prefix(prefix, lead=1), rho_s, levels)

        # a block holds its padded prefix arrays and their level-j_max grids
        cells = max(volume(n + 1 for n in shape), holder.full_grid_count(levels, len(shape)))
        blocks = range(0, config.replicas, _block_size(cells, "level grid"))
        norms = np.concatenate(_map_blocks(work, blocks, config.threads))
        qs = np.quantile(norms, [0.25, 0.5, 0.75, 0.9])
        rows.append({"shape": list(shape), "j_max": levels,
                     "q25": float(qs[0]), "median": float(qs[1]),
                     "q75": float(qs[2]), "q90": float(qs[3]),
                     "max": float(np.max(norms))})
    return _finish("holder-norm", config, "INFO", rows, t0)


def tightness_experiment(config: ExperimentConfig) -> Report:
    """Dyadic tail sums of the tightness criterion for a range of
    starting levels J; the reported sums are nonincreasing in J by
    construction (common replicas per level)."""
    t0 = time.perf_counter()
    m = config.exponents
    rho = holder.modulus_from_dict(config.modulus, len(m))
    result = holder.tightness_sum_estimate(
        config.generator, rho, config.eps, config.axis_q, config.j_from, m,
        config.replicas, config.seed, config.threads,
    )
    rows = [r.to_dict() for r in result.rows]
    sums = {str(j): result.tail_sum(j) for j in range(config.j_from, m[config.axis_q - 1] + 1)}
    rows.append({"tail_sums": sums, "total": result.total})
    return _finish("tightness", config, "INFO", rows, t0)


def constants_experiment(config: ExperimentConfig) -> Report:
    t0 = time.perf_counter()
    table = [bounds.recurse_constants(level).to_dict() for level in range(1, config.d + 1)]
    drift_ok = all(row[4] <= 0.01 for level in table for row in level["K_levels"])
    return _finish("constants", config, "PASS" if drift_ok else "FAIL", table, t0,
                   constants=table[-1], tolerances={"last_decade_drift": 0.01})


def lemma_checks(config: ExperimentConfig) -> Report:
    """Run the three slowly-varying summability diagnostics with one
    factor L and one tail model; PASS when the comparison ratios are
    trend-free and both series converge."""
    t0 = time.perf_counter()
    L = holder.svarying_from_dict(config.svarying)
    model = bounds.tail_from_dict(config.tail)
    ratios = bounds.lemma_svarying_partial_sum(L, config.k_max)
    last = ratios["ratios"][-min(10, config.k_max):]
    slope = float(np.polyfit(np.arange(len(last)), last, 1)[0]) if len(last) > 1 else 0.0
    trend_free = slope <= 1e-3 * max(1.0, float(np.mean(last)))
    wip = bounds.cond_wip_check(L, model, config.a, config.j_max)
    moments = bounds.lemma3_moment_sum(L, model, config.c, config.j_max)
    ok = trend_free and wip["converged"] and moments["converged"]
    rows = [
        {"check": "svarying_partial_sum", "C_L": ratios["C_L"], "last_slope": slope,
         "ok": trend_free},
        {"check": "cond_wip", "total": wip["total"], "ok": wip["converged"]},
        {"check": "moment_sum", "total": _json_float(moments["total"]),
         "diverged_levels": moments["diverged_levels"], "ok": moments["converged"]},
    ]
    return _finish("lemma-checks", config, "PASS" if ok else "FAIL", rows, t0)


def exponent_fit_experiment(config: ExperimentConfig) -> Report:
    """Tail-exponent fit for the product of d independent standard
    normal magnitudes; the stretched-exponential rate should sit near
    2/d, and the optional band turns the report into a verdict."""
    t0 = time.perf_counter()
    d = config.d
    key = stream_key(config.seed, "exponent-fit")
    prod = np.ones(config.replicas)
    for axis in range(d):
        h = fold(fold(key, np.uint64(axis)), np.arange(config.replicas, dtype=np.uint64))
        prod *= np.abs(ndtri(uniform01(h)))
    fit = bounds.exponent_fit(prod, window=config.window, grid_points=config.grid_points)
    row = {"d": d, "gamma_hat": fit.gamma_hat, "target": 2.0 / d,
           "window": list(fit.window)}
    verdict = "INFO"
    if config.band is not None:
        lo, hi = config.band
        row["band"] = [lo, hi]
        row["ok"] = lo <= fit.gamma_hat <= hi
        verdict = "PASS" if row["ok"] else "FAIL"
    return _finish("exponent-fit", config, verdict, [row], t0)


def _json_float(x: float):
    return x if math.isfinite(x) else ("inf" if x > 0 else "-inf")


# ------------------------------------------------------------- config


def _integer(lo, hi=math.inf):
    return functools.partial(check_number, lo=lo, hi=hi, integer=True)


_positive = functools.partial(check_number, lo=0, above=True)


def _list_of(item, n=None):
    def check(name, value):
        if not isinstance(value, (list, tuple)) or not value or n not in (None, len(value)):
            raise InvalidInputError("%s must be a list of %s, not %r"
                                    % (name, n or "1 or more", value))
        return tuple(item(name, v) for v in value)
    return check


def _generator(name, value):
    return value if isinstance(value, GeneratorSpec) else spec_from_json(json.dumps(value))


def _shape(name, value):
    return validate_shape(_list_of(_integer(1))(name, value))


def _x_grid(name, value):
    grid = tuple(float(x) for x in _list_of(check_number)(name, value))
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidInputError("x_grid must be strictly increasing")
    return grid


def _holder_shapes(config):
    return (config.shape,)


_REQUIRED = object()
_GENERATOR, _SHAPE, _X_GRID, _OBJECT = (
    (check, _REQUIRED) for check in (_generator, _shape, _x_grid, check_object))

# Each experiment's runner and fields, a field as name: (check, default).
# check(name, value as given) returns the value the runner reads or
# raises; _REQUIRED marks a field without a default, and a callable
# default is computed from the config.  The spec parsers read object
# fields (bound, modulus, tail, svarying) when the experiment runs.
_COMMON = {"replicas": (_integer(1), 1), "seed": (_integer(0, 2**64 - 1), 0),
           "threads": (_integer(1), 1)}
_SCHEMA = {
    "deviation": (mc_deviation, {"generator": _GENERATOR, "shape": _SHAPE, "x_grid": _X_GRID}),
    "verify-bound": (verify_bound, {"generator": _GENERATOR, "shape": _SHAPE, "x_grid": _X_GRID,
                                    "bound": _OBJECT}),
    "induction-check": (induction_step_check, {"generator": _GENERATOR, "shape": _SHAPE,
                                               "x_grid": _X_GRID}),
    "tightness": (tightness_experiment, {
        "generator": _GENERATOR, "exponents": (_list_of(_integer(0)), _REQUIRED),
        "eps": (_positive, _REQUIRED), "axis_q": (_integer(1), _REQUIRED),
        "j_from": (_integer(0), _REQUIRED), "modulus": _OBJECT}),
    "fdd": (fdd_compare, {"generator": _GENERATOR, "shape": _SHAPE,
                          "t_point": (_list_of(check_number), _REQUIRED)}),
    "sheet-cov": (sheet_cov_check, {"shape": _SHAPE, "pairs": (_integer(1), 10)}),
    "holder-norm": (holder_norm_of_Wn, {
        "generator": _GENERATOR, "shape": (_shape, None),
        "shapes": (_list_of(_shape), _holder_shapes), "modulus": _OBJECT,
        "j_max": (_integer(0), None)}),
    "constants": (constants_experiment, {"d": (_integer(1, 6), 6)}),
    "lemma-checks": (lemma_checks, {
        "svarying": _OBJECT, "tail": _OBJECT, "k_max": (_integer(1), 40),
        "j_max": (_integer(1), 40), "a": (_positive, 1.0), "c": (_positive, 1.0)}),
    "exponent-fit": (exponent_fit_experiment, {
        "d": (_integer(1), _REQUIRED), "window": (_list_of(check_number, 2), (0.90, 0.999)),
        "grid_points": (_integer(4), 24), "band": (_list_of(check_number, 2), None)}),
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
    # the one rule across fields: a field check sees one value at a time
    if config.experiment == "holder-norm" and ("shape" in given) == ("shapes" in given):
        raise InvalidInputError("experiment 'holder-norm' needs exactly one of 'shape' and "
                                "'shapes'")
    for name, (check, default) in table.items():
        if name in given:
            value = check(name, given[name])
        elif default is _REQUIRED:
            raise InvalidInputError("experiment %r needs %r" % (config.experiment, name))
        else:
            value = default(config) if callable(default) else default
        object.__setattr__(config, name, value)
    object.__setattr__(config, "given", tuple(given))


def _to_dict(config) -> dict:
    out = {"experiment": config.experiment, "replicas": config.replicas, "seed": config.seed,
           "threads": config.threads, **{name: getattr(config, name) for name in config.given}}
    if config.generator is not None:
        out["generator"] = json.loads(spec_to_json(config.generator))
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

# the keys each kind of bound reads: one positive number, then two-term's tail
_BOUND_KINDS = {"bounded": ("K",), "two-term": ("y", "tail"), "large-deviation": ("gamma",)}


def config_from_dict(data: dict) -> ExperimentConfig:
    check_object("config", data, optional=["experiment"] + _FIELD_NAMES)
    return ExperimentConfig(**data)


def run_experiment(config: ExperimentConfig) -> Report:
    return _SCHEMA[config.experiment][0](config)
