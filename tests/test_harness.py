import hashlib
import json
import math

import numpy as np
import pytest

from orthofield import bounds, generators, harness, holder, lattice
from orthofield import (
    ExperimentConfig,
    InvalidInputError,
    InvalidRangeError,
    config_from_dict,
    iid_gaussian,
    iid_rademacher,
    iid_weibull,
    moving_average,
    product_rademacher,
    run_experiment,
    zero_field,
)
from orthofield.generators import replica_stats
from single_field import brownian_sheet_sim


def test_config_round_trip():
    cfg = ExperimentConfig(
        experiment="deviation",
        generator=iid_gaussian(2),
        shape=(8, 8),
        x_grid=(0.5, 1.0, 2.0),
        replicas=100,
        seed=7,
        threads=2,
    )
    back = config_from_dict(json.loads(json.dumps(cfg.to_dict(), sort_keys=True)))
    assert back == cfg


def test_config_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        config_from_dict({"experiment": "deviation", "mystery_field": 1})
    with pytest.raises(InvalidInputError):
        ExperimentConfig(experiment="no-such-experiment")
    with pytest.raises(InvalidInputError):
        ExperimentConfig(experiment="deviation", x_grid=(2.0, 1.0))
    with pytest.raises(InvalidInputError, match="strictly increasing"):
        ExperimentConfig(experiment="deviation", generator=iid_gaussian(2), shape=(4, 4),
                         x_grid=(1.0, 1.0))
    with pytest.raises(InvalidRangeError):
        ExperimentConfig(experiment="deviation", replicas=0)
    with pytest.raises(InvalidRangeError):
        ExperimentConfig(experiment="deviation", threads=0)


def test_mc_deviation_zero_generator():
    cfg = ExperimentConfig(
        experiment="deviation", generator=zero_field(2), shape=(4, 4),
        x_grid=(0.1, 1.0), replicas=50, seed=1,
    )
    rep = run_experiment(cfg)
    assert rep.verdict == "INFO"
    assert all(r["p_hat"] == 0.0 for r in rep.rows)


def test_mc_deviation_single_cell_exact():
    # One Rademacher cell: max |S| = 1 always, so the tail is exactly 1
    # below x = 1 and exactly 0 above.
    cfg = ExperimentConfig(
        experiment="deviation", generator=iid_rademacher(1), shape=(1,),
        x_grid=(0.5, 1.5), replicas=200, seed=2,
    )
    rep = run_experiment(cfg)
    assert rep.rows[0]["p_hat"] == 1.0
    assert rep.rows[1]["p_hat"] == 0.0


def test_mc_deviation_monotone_tail():
    cfg = ExperimentConfig(
        experiment="deviation", generator=iid_gaussian(2), shape=(8, 8),
        x_grid=(0.25, 0.5, 1.0, 2.0), replicas=400, seed=3,
    )
    rep = run_experiment(cfg)
    p = [r["p_hat"] for r in rep.rows]
    assert all(a >= b for a, b in zip(p, p[1:]))


def test_floor_keeps_exceedance_payloads(monkeypatch):
    # deviation, verify-bound and tightness hand replica_stats their
    # smallest threshold as the floor of the maximum; on a 2x3 Rademacher
    # lattice the sign count screens some replicas and not others, and
    # the payload is the one the maxima without a floor give
    rho = {"c": math.exp(4.0), "L": {"kind": "iter_log"}}
    cases = [dict(experiment="deviation", shape=(2, 3), x_grid=(1.5, 2.0)),
             dict(experiment="verify-bound", shape=(2, 3), x_grid=(1.5, 2.0),
                  bound={"kind": "bounded", "K": 1.0}),
             dict(experiment="tightness", exponents=(1, 2), eps=0.3, axis_q=1, j_from=0,
                  modulus=rho)]
    floors = []

    def recording(*args, floor=None):
        floors.append(floor)
        return replica_stats(*args, floor=floor)

    def unfloored(*args, floor=None):
        return replica_stats(*args)

    for base in cases:
        config = ExperimentConfig(generator=iid_rademacher(2), replicas=400, seed=5, **base)
        monkeypatch.setattr(harness, "replica_stats", recording)
        floored = run_experiment(config).canonical_json()
        monkeypatch.setattr(harness, "replica_stats", unfloored)
        assert floored == run_experiment(config).canonical_json(), base["experiment"]
        assert any(row.get("hits") for row in json.loads(floored)["rows"]), floored
    assert None not in floors and len(floors) == 4, floors


@pytest.mark.parametrize("generator", [iid_gaussian(2), iid_weibull(2, 1.0), iid_rademacher(2)],
                         ids=["gaussian", "weibull", "rademacher"])
def test_large_deviation_floor_keeps_exceedance_payloads(monkeypatch, generator):
    # verify-bound's large-deviation kind counts |S_n| > x |n| and hands
    # replica_stats its smallest threshold, 4 on 4x4, as the floor of the
    # lone total; the bracket screen clears some replicas and not others,
    # and the payload is the one the unfloored magnitudes give
    config = ExperimentConfig(experiment="verify-bound", generator=generator, shape=(4, 4),
                              x_grid=(0.25, 0.5), replicas=400, seed=5,
                              bound={"kind": "large-deviation", "gamma": 1.0})
    floors = []

    def recording(*args, floor=None):
        floors.append(floor)
        return replica_stats(*args, floor=floor)

    def unfloored(*args, floor=None):
        return tuple(np.abs(column) for column in replica_stats(*args))

    monkeypatch.setattr(harness, "replica_stats", recording)
    floored = run_experiment(config).canonical_json()
    monkeypatch.setattr(harness, "replica_stats", unfloored)
    assert floored == run_experiment(config).canonical_json()
    assert floors == [4.0]
    assert all(0 < row["hits"] < 400 for row in json.loads(floored)["rows"]), floored


def test_thread_count_does_not_change_payload(monkeypatch):
    # neither the thread count nor the replica block size may move a byte
    modulus = {"c": math.exp(4.0), "L": {"kind": "iter_log"}}
    cases = [
        dict(experiment="deviation", generator=iid_gaussian(2), shape=(16, 16),
             x_grid=(0.5, 1.0), replicas=256, seed=9),
        dict(experiment="fdd", generator=iid_gaussian(2), shape=(16, 16),
             t_point=(0.5, 0.75), replicas=256, seed=9),
        dict(experiment="tightness", generator=iid_gaussian(2), exponents=(5, 5), eps=0.3,
             axis_q=1, j_from=1, replicas=150, seed=9, modulus=modulus),
        dict(experiment="sheet-cov", shape=(8, 8), replicas=300, seed=9, pairs=4),
        # finest level 3, so j_max 5 reads the grid two levels past it
        dict(experiment="holder-norm", generator=iid_gaussian(2), shapes=((5, 7),), j_max=5,
             replicas=150, seed=9, modulus=modulus),
        # the routes of generators.replica_stats: per-axis products for
        # product fields, the total alone, the maximum with the slab
        dict(experiment="verify-bound", generator=product_rademacher(2), shape=(16, 16),
             x_grid=(2.0, 4.0), replicas=256, seed=9, bound={"kind": "bounded", "K": 1.0}),
        dict(experiment="verify-bound", generator=iid_weibull(2, 1.0), shape=(16, 16),
             x_grid=(0.05, 0.1), replicas=256, seed=9,
             bound={"kind": "large-deviation", "gamma": 1.0}),
        dict(experiment="induction-check", generator=product_rademacher(3), shape=(4, 5, 6),
             x_grid=(0.5, 1.0), replicas=256, seed=9),
        dict(experiment="fdd", generator=product_rademacher(2), shape=(16, 16),
             t_point=(0.5, 0.75), replicas=256, seed=9),
        # the sign-count screen, which leaves some replicas of a 2x3
        # Rademacher lattice open at the floor 1.5 sqrt(6)
        dict(experiment="deviation", generator=iid_rademacher(2), shape=(2, 3),
             x_grid=(1.5, 2.0), replicas=256, seed=9),
        dict(experiment="tightness", generator=product_rademacher(2), exponents=(5, 5),
             eps=0.3, axis_q=1, j_from=1, replicas=150, seed=9, modulus=modulus),
        # the lone total of a one-site decoupled Gaussian product
        dict(experiment="exponent-fit", d=3, replicas=2000, seed=9),
    ]
    # the block plans each case runs, as (replicas per block, blocks, threads)
    plans = []

    def recording(fn, blocks, threads):
        plans.append((blocks.step, len(blocks), threads))
        return lattice._map_blocks(fn, blocks, threads)

    monkeypatch.setattr(harness, "_map_blocks", recording)
    monkeypatch.setattr(generators, "_map_blocks", recording)
    # many replicas per block, a few, and one; 7 threads divide none
    # of the replica counts, so some thread gets fewer blocks
    settings = [(1 << 17, 1), (2000, 3), (1, 1), (1, 7)]

    def check_plans(what):
        steps = {step for step, _, _ in plans}
        assert 1 in steps and max(steps) > 1, (what, plans)
        assert any(threads > 1 and count % threads for _, count, threads in plans), plans

    for base in cases:
        payloads = set()
        plans.clear()
        for cells, threads in settings:
            monkeypatch.setattr(lattice, "_BLOCK_CELLS", cells)
            rep = run_experiment(ExperimentConfig(threads=threads, **base))
            assert "threads" not in rep.payload()["config"]
            payloads.add(rep.canonical_json())
        assert len(payloads) == 1, base["experiment"]
        check_plans(base["experiment"])
    # the reduction itself, called directly from a start off every block
    # grid: the float path, the sign count, the per-axis products, a
    # lone total through batch_total, and the maximum over spans of
    # several blocks (at 2000 cells, spans of two 7-replica blocks)
    for spec, shape, stats in [(iid_gaussian(2), (16, 16), ("max", "total", "slab")),
                               (iid_rademacher(2), (16, 16), ("total",)),
                               (product_rademacher(3), (4, 5, 6), ("slab", "max", "total")),
                               (iid_weibull(2, 1.0), (16, 16), ("total",)),
                               (iid_rademacher(2), (16, 16), ("max",))]:
        results = set()
        plans.clear()
        for cells, threads in settings:
            monkeypatch.setattr(lattice, "_BLOCK_CELLS", cells)
            got = replica_stats(spec, shape, 9, 5, 256, stats, threads)
            assert [values.shape for values in got] == [(256,)] * len(stats)
            results.add(b"".join(values.tobytes() for values in got))
        assert len(results) == 1, (spec, stats)
        check_plans(spec)


@pytest.mark.parametrize("stat", ["deviation", "fdd"])
def test_replica_blocks_do_not_retain_prefix_memory(stat, peak_bytes):
    # per-replica results must not keep their block's 64x64 prefix alive,
    # so the peak may not grow with the replica count
    def run(replicas):
        if stat == "deviation":
            replica_stats(iid_rademacher(2), (64, 64), 3, 0, replicas,
                          ("max", "total", "slab"))
        else:
            run_experiment(ExperimentConfig(experiment="fdd", generator=iid_rademacher(2),
                                         shape=(64, 64), t_point=(1.0, 1.0),
                                         replicas=replicas, seed=3))

    block_bytes = lattice._block_size(64 * 64, "lattice") * 64 * 64 * 8
    peaks = [peak_bytes(lambda: run(replicas)) for replicas in (256, 2048)]
    assert peaks[1] <= peaks[0] + 2 * block_bytes, peaks


def test_block_budget_bounds_memory_and_keeps_payloads(monkeypatch, peak_bytes):
    # Blocks of 2 MiB arrays, twice the default, under a budget of 2 MiB
    # for one replica: 16 of 128x128, 32 of 64x128 (the fdd box) and of
    # 16x16x32, 16 at tightness level 0, 3 of the 257^2-node level-8 grid
    # of holder-norm (5x7, finest level 3), 27 padded 97x97 sheets, and
    # 16 of 128x128 for the Weibull fields.  The payloads must not move,
    # and the peak must stay within three arrays of 2 MiB: a fold holds
    # its words and one scratch array, a value map the words and the
    # values, and no step holds more block-sized arrays at once.  A
    # sixteenth of the budget covers per-replica results, the report,
    # and the one extra row of a moving average's extended axis.  The
    # last two screen every replica: a Weibull total by its bracket sums,
    # and a Rademacher maximum by a partial sign count (a floor of 10240
    # over |n| = 16384 sites).
    modulus = {"c": math.exp(6.0), "L": {"kind": "iter_log"}}
    cases = [
        dict(experiment="deviation", generator=iid_rademacher(2), shape=(128, 128),
             x_grid=(0.5, 1.0, 2.0), replicas=100, seed=4),
        dict(experiment="fdd", generator=iid_gaussian(2), shape=(128, 128),
             t_point=(0.5, 1.0), replicas=100, seed=4),
        dict(experiment="induction-check", generator=iid_gaussian(3), shape=(16, 16, 32),
             x_grid=(0.5, 1.0), replicas=100, seed=4),
        dict(experiment="tightness", generator=iid_gaussian(2), exponents=(7, 7), eps=0.3,
             axis_q=1, j_from=0, replicas=100, seed=4, modulus=modulus),
        dict(experiment="holder-norm", generator=iid_gaussian(2), shapes=((5, 7),), j_max=8,
             replicas=20, seed=4, modulus=modulus),
        dict(experiment="sheet-cov", shape=(96, 96), replicas=100, seed=4, pairs=4),
        dict(experiment="deviation", generator=iid_weibull(2, 1.0), shape=(128, 128),
             x_grid=(0.5, 1.0, 2.0), replicas=100, seed=4),
        dict(experiment="deviation", generator=moving_average(2, dist="weibull_symmetric",
                                                              gamma=1.0),
             shape=(128, 128), x_grid=(0.5, 1.0, 2.0), replicas=100, seed=4),
        dict(experiment="verify-bound", generator=iid_weibull(2, 1.0), shape=(128, 128),
             x_grid=(0.25, 0.5), bound={"kind": "large-deviation", "gamma": 1.0}, replicas=100,
             seed=4),
        dict(experiment="deviation", generator=iid_rademacher(2), shape=(128, 128),
             x_grid=(80.0, 96.0), replicas=100, seed=4),
    ]
    wants = [run_experiment(ExperimentConfig(**base)).canonical_json() for base in cases]
    budget = 2 << 20
    monkeypatch.setattr(lattice, "_BLOCK_CELLS", budget // 8)
    monkeypatch.setattr(lattice, "_BLOCK_BYTES", budget)
    for base, want in zip(cases, wants):
        got = []
        peak = peak_bytes(lambda: got.append(run_experiment(ExperimentConfig(**base))))
        assert got[0].canonical_json() == want, base["experiment"]
        assert peak <= 3 * budget + budget // 16, (base["experiment"], peak)


_MODULUS = {"c": math.exp(6.0), "L": {"kind": "iter_log"}}
# Every Monte Carlo experiment, with the cells per replica of its block
# arrays as README's Memory section counts them: the lattice, the sum of
# the axis extents for a product field, the fdd box [1, k], the level
# lattice of tightness (one level, as j_from = m_q), and for the blocks
# that hold two arrays at once the sum of both: the sheet and the padded
# sheet of sheet-cov, the padded lattice and the level grid of
# holder-norm.  Its bound in block arrays: README's 1.5, and 2.25 for the
# screen stages that gather bracket entries a quarter block at a time, 16
# bytes a cell, beside a block's buckets: a total's bracket sums, and the
# chunk stage of tightness with its chunk sums.
_BLOCK_CASES = {
    "deviation": (dict(experiment="deviation", generator=iid_gaussian(2), shape=(64, 64),
                       x_grid=(0.5, 1.0)), 64 * 64, 1.5),
    "verify-bound": (dict(experiment="verify-bound", generator=product_rademacher(2),
                          shape=(64, 64), x_grid=(48.0, 96.0),
                          bound={"kind": "bounded", "K": 1.0}), 64 + 64, 1.5),
    # the screens' stages: a Weibull total's bracket sums, and a
    # Rademacher maximum's partial sign count at a floor of 2560 > |n| / 2
    "verify-bound-large-deviation": (dict(experiment="verify-bound",
                                          generator=iid_weibull(2, 1.0), shape=(64, 64),
                                          x_grid=(0.25, 0.5),
                                          bound={"kind": "large-deviation", "gamma": 1.0}),
                                     64 * 64, 2.25),
    "deviation-partial-sign-count": (dict(experiment="deviation", generator=iid_rademacher(2),
                                          shape=(64, 64), x_grid=(40.0, 48.0)), 64 * 64, 1.5),
    "induction-check": (dict(experiment="induction-check", generator=iid_weibull(3, 1.0),
                             shape=(16, 16, 16), x_grid=(0.5, 1.0)), 16**3, 1.5),
    "induction-check-gaussian-32x32": (dict(experiment="induction-check",
                                            generator=iid_gaussian(2), shape=(32, 32),
                                            x_grid=(0.5, 1.0)), 32 * 32, 1.5),
    "tightness": (dict(experiment="tightness", generator=iid_gaussian(2), exponents=(6, 6),
                       eps=0.3, axis_q=1, j_from=6, modulus=_MODULUS), 64, 2.25),
    "fdd": (dict(experiment="fdd", generator=iid_rademacher(2), shape=(64, 64),
                 t_point=(0.5, 1.0)), 32 * 64, 1.5),
    "fdd-gaussian-16x16": (dict(experiment="fdd", generator=iid_gaussian(2), shape=(16, 16),
                                t_point=(1.0, 1.0)), 16 * 16, 1.5),
    "fdd-weibull-16x16": (dict(experiment="fdd", generator=iid_weibull(2, 1.0), shape=(16, 16),
                               t_point=(1.0, 1.0)), 16 * 16, 1.5),
    "sheet-cov": (dict(experiment="sheet-cov", shape=(63, 63), pairs=10), 63 * 63 + 64 * 64, 1.5),
    "holder-norm-8x8": (dict(experiment="holder-norm", generator=iid_gaussian(2),
                             shapes=((8, 8),), modulus=_MODULUS), 2 * 9 * 9, 1.5),
    "holder-norm-32x32": (dict(experiment="holder-norm", generator=iid_gaussian(2),
                               shapes=((32, 32),), modulus=_MODULUS), 2 * 33 * 33, 1.5),
    "holder-norm-24x40": (dict(experiment="holder-norm", generator=iid_gaussian(2),
                               shapes=((24, 40),), modulus=_MODULUS), 25 * 41 + 65 * 65, 1.5),
}


@pytest.mark.parametrize("name", sorted(_BLOCK_CASES))
def test_every_experiment_block_holds_at_most_three_block_arrays(name, peak_bytes):
    # two blocks of replicas, so a block sized for fewer arrays than it
    # holds shows, and per-replica results are small beside them
    base, cells, bound = _BLOCK_CASES[name]
    block = lattice._block_size(cells, "lattice")
    config = ExperimentConfig(replicas=2 * block, seed=3, **base)
    run_experiment(config)  # the first run fills caches, such as the constants table
    arrays = peak_bytes(lambda: run_experiment(config)) / (8 * cells * block)
    assert arrays <= bound, arrays


def test_exponent_fit_holds_its_samples_twice(peak_bytes):
    # the replica column and one copy of its magnitudes, which the
    # quantiles partition and the sort orders in place: 2 x 8R bytes.  The
    # blocks reach that only while the column is gathered: the last of
    # four runs beside the three columns before it, 2.5 x 8R at 2^18
    # replicas (a one-site product's block peaks at 3.5 block arrays),
    # which one block of 8 x _BLOCK_CELLS bytes covers; a sixteenth of 8R
    # covers the report.  A second copy of the magnitudes, such as
    # np.sort's or np.quantile's, reads 3 x 8R.
    replicas = 1 << 18
    config = ExperimentConfig(experiment="exponent-fit", d=2, replicas=replicas, seed=3)
    run_experiment(ExperimentConfig(experiment="exponent-fit", d=2, replicas=1000, seed=3))
    peak = peak_bytes(lambda: run_experiment(config))
    bound = 2 * 8 * replicas + 8 * lattice._BLOCK_CELLS + replicas // 2
    assert peak <= bound, peak / (8 * replicas)


@pytest.mark.parametrize("threads", [0, -3, 2.5, True, "2"])
def test_block_driver_rejects_a_thread_count_that_is_not_a_count(threads):
    for call in (lambda: replica_stats(iid_gaussian(2), (4, 4), 1, 0, 5, ("max",), threads),
                 lambda: brownian_sheet_sim((4, 4), 1, 3, threads=threads)):
        with pytest.raises(InvalidInputError, match="threads must be an integer >= 1"):
            call()


def test_verify_bound_vacuous_grid_passes():
    cfg = ExperimentConfig(
        experiment="verify-bound", generator=iid_rademacher(2), shape=(8, 8),
        x_grid=(10.0, 20.0), replicas=100, seed=5,
        bound={"kind": "bounded", "K": 1.0},
    )
    rep = run_experiment(cfg)
    assert rep.verdict == "PASS"
    assert all(r["vacuous"] for r in rep.rows)
    assert rep.counts["informative_points"] == 0
    assert rep.constants["d"] == 2


def test_verify_bound_detects_model_violation():
    # Claiming |X| <= 0.01 for unit Rademacher increments produces an
    # informative bound the data immediately crosses.
    cfg = ExperimentConfig(
        experiment="verify-bound", generator=iid_rademacher(2), shape=(8, 8),
        x_grid=(2.0,), replicas=2000, seed=3,
        bound={"kind": "bounded", "K": 0.01},
    )
    rep = run_experiment(cfg)
    assert rep.verdict == "FAIL"
    row = rep.rows[0]
    assert not row["vacuous"]
    assert row["ci_lo"] > row["bound"]


def test_verify_bound_unknown_kind():
    cfg = ExperimentConfig(
        experiment="verify-bound", generator=iid_rademacher(2), shape=(4, 4),
        x_grid=(1.0,), replicas=10, seed=1, bound={"kind": "mystery"},
    )
    with pytest.raises(InvalidInputError):
        run_experiment(cfg)


def test_verify_bound_takes_the_two_term_integral_once(monkeypatch):
    # the integral term depends on y and the tail alone, so a 10-point
    # grid evaluates it once and every row carries that one value
    calls = []
    tail_integral = bounds._tail_integral

    def counted(*args):
        calls.append(args)
        return tail_integral(*args)

    monkeypatch.setattr(bounds, "_tail_integral", counted)
    cfg = ExperimentConfig(
        experiment="verify-bound", generator=iid_rademacher(2), shape=(8, 8),
        x_grid=tuple(float(x) for x in range(1, 11)), replicas=20, seed=2,
        bound={"kind": "two-term", "y": 4.0, "tail": {"kind": "weibull", "gamma": 1.0}},
    )
    rep = run_experiment(cfg)
    assert len(calls) == 1
    assert len({r["integral_term"] for r in rep.rows}) == 1
    assert len({r["exp_term"] for r in rep.rows}) == 10


def test_induction_check_needs_two_axes():
    cfg = ExperimentConfig(
        experiment="induction-check", generator=iid_gaussian(1), shape=(8,),
        x_grid=(1.0,), replicas=100, seed=1,
    )
    with pytest.raises(InvalidRangeError):
        run_experiment(cfg)


def test_induction_check_zero_field_and_gaussian():
    zero_cfg = ExperimentConfig(
        experiment="induction-check", generator=zero_field(2), shape=(4, 4),
        x_grid=(1.0,), replicas=64, seed=1,
    )
    assert run_experiment(zero_cfg).verdict == "PASS"
    cfg = ExperimentConfig(
        experiment="induction-check", generator=iid_gaussian(2), shape=(8, 8),
        x_grid=(0.5, 1.0, 2.0), replicas=1000, seed=21,
    )
    rep = run_experiment(cfg)
    assert rep.verdict == "PASS"
    for row in rep.rows:
        assert row["p_lhs"] <= row["rhs"] + 2.0 * (row["se_lhs"] + row["se_rhs"])


def test_brownian_sheet_shapes_and_moments():
    sheets = brownian_sheet_sim((8, 8), seed=13, replicas=4000)
    assert sheets.shape == (4000, 9, 9)
    assert np.all(sheets[:, 0, :] == 0.0) and np.all(sheets[:, :, 0] == 0.0)
    w11 = sheets[:, -1, -1]
    var = float(np.var(w11))
    se = math.sqrt(2.0 / len(w11))  # Var of sample variance of N(0,1)
    assert abs(var - 1.0) < 4 * se
    again = brownian_sheet_sim((8, 8), seed=13, replicas=4000, threads=4)
    assert np.array_equal(sheets, again)


def test_sheet_cov_check_passes():
    cfg = ExperimentConfig(
        experiment="sheet-cov", shape=(8, 8), replicas=3000, seed=17, pairs=10,
    )
    rep = run_experiment(cfg)
    assert rep.verdict == "PASS"
    assert len(rep.rows) == 10
    for row in rep.rows:
        assert abs(row["z"]) <= 3.0


def test_fdd_requires_grid_aligned_point():
    cfg = ExperimentConfig(
        experiment="fdd", generator=iid_gaussian(1), shape=(10,),
        t_point=(0.35,), replicas=100, seed=1,
    )
    with pytest.raises(InvalidInputError):
        run_experiment(cfg)
    zero = ExperimentConfig(
        experiment="fdd", generator=iid_gaussian(1), shape=(10,),
        t_point=(0.0,), replicas=100, seed=1,
    )
    with pytest.raises(InvalidInputError):
        run_experiment(zero)


def test_fdd_gaussian_passes():
    cfg = ExperimentConfig(
        experiment="fdd", generator=iid_gaussian(2), shape=(16, 16),
        t_point=(0.5, 1.0), replicas=4000, seed=11,
    )
    rep = run_experiment(cfg)
    assert rep.verdict == "PASS"
    assert rep.rows[0]["sigma2"] == pytest.approx(0.5)


def test_fdd_flags_product_field():
    # W at the far corner of a product field is a product of two nearly
    # normal sums, which is visibly non-Gaussian.
    cfg = ExperimentConfig(
        experiment="fdd", generator=product_rademacher(2), shape=(64, 64),
        t_point=(1.0, 1.0), replicas=4000, seed=11,
    )
    rep = run_experiment(cfg)
    assert rep.verdict == "FAIL"
    assert rep.rows[0]["ks_stat"] > rep.rows[0]["threshold"]


def test_holder_norm_zero_generator():
    cfg = ExperimentConfig(
        experiment="holder-norm", generator=zero_field(2), shapes=((8, 8),),
        replicas=32, seed=1, modulus={"c": math.exp(6.0), "L": {"kind": "iter_log"}},
        j_max=3,
    )
    rep = run_experiment(cfg)
    assert rep.verdict == "INFO"
    assert rep.rows[0]["max"] == 0.0


def test_holder_norm_needs_modulus_and_shape():
    with pytest.raises(InvalidInputError):
        run_experiment(
            ExperimentConfig(
                experiment="holder-norm", generator=iid_gaussian(2),
                shapes=((4, 4),), replicas=8, seed=1,
            )
        )
    with pytest.raises(InvalidInputError):
        run_experiment(
            ExperimentConfig(
                experiment="holder-norm", generator=iid_gaussian(2),
                replicas=8, seed=1,
                modulus={"c": math.exp(6.0), "L": {"kind": "iter_log"}},
            )
        )


def test_holder_norm_quantiles_ordered_across_sizes():
    cfg = ExperimentConfig(
        experiment="holder-norm", generator=iid_gaussian(2),
        shapes=((4, 4), (8, 8)), replicas=64, seed=2,
        modulus={"c": math.exp(6.0), "L": {"kind": "iter_log"}}, j_max=2,
    )
    rep = run_experiment(cfg)
    assert len(rep.rows) == 2
    for row in rep.rows:
        assert row["q25"] <= row["median"] <= row["q75"] <= row["q90"] <= row["max"]


def test_lemma_checks_pass_and_fail():
    good = run_experiment(
        ExperimentConfig(
            experiment="lemma-checks", svarying={"kind": "log_power", "beta": 2.0},
            tail={"kind": "weibull", "gamma": 1.0}, k_max=40, j_max=40,
        )
    )
    assert good.verdict == "PASS"
    bad = run_experiment(
        ExperimentConfig(
            experiment="lemma-checks", svarying={"kind": "const", "c0": 1.0},
            tail={"kind": "unit"}, k_max=20, j_max=20,
        )
    )
    assert bad.verdict == "FAIL"
    assert bad.rows[2]["diverged_levels"]


def test_exponent_fit_experiment_band_verdicts():
    base = dict(experiment="exponent-fit", d=1, replicas=200000, seed=101,
                window=(0.995, 0.9995))
    info = run_experiment(ExperimentConfig(**base))
    assert info.verdict == "INFO"
    assert 1.4 <= info.rows[0]["gamma_hat"] <= 2.6
    passing = run_experiment(ExperimentConfig(band=(1.4, 2.6), **base))
    assert passing.verdict == "PASS"
    failing = run_experiment(ExperimentConfig(band=(3.0, 4.0), **base))
    assert failing.verdict == "FAIL"


def _tightness(**fields):
    base = dict(experiment="tightness", generator=iid_gaussian(2), axis_q=1, j_from=0,
                modulus={"c": math.exp(4.0), "L": {"kind": "iter_log"}})
    return run_experiment(ExperimentConfig(**{**base, **fields}))



def test_a_run_evaluates_its_modulus_only_when_it_builds_it(monkeypatch):
    # a Modulus keeps rho(2^-j) from the check it runs when built, and
    # tightness and holder-norm read the kept values: each run calls
    # modulus_eval once per checked level, all while building the modulus
    calls = []
    modulus_eval = holder.modulus_eval

    def counted(rho, h):
        calls.append(h)
        return modulus_eval(rho, h)

    monkeypatch.setattr(holder, "modulus_eval", counted)
    built = [2.0**-j for j in range(holder.MODULUS_LEVELS + 1)]
    _tightness(exponents=(5, 5), eps=0.3, replicas=20, seed=1)
    assert calls == built
    calls.clear()
    run_experiment(ExperimentConfig(
        experiment="holder-norm", generator=iid_gaussian(2), shapes=((8, 8),), replicas=8,
        seed=1, modulus={"c": math.exp(5.5), "L": {"kind": "iter_log"}}, j_max=3))
    assert calls == built

def test_tightness_zero_generator():
    rep = _tightness(generator=zero_field(2), exponents=(4, 4), eps=1.0, replicas=50, seed=1)
    assert rep.rows[-1]["total"] == 0.0
    assert all(r["hits"] == 0 for r in rep.rows[:-1])


def test_tightness_tail_sums_strictly_decrease_when_hit():
    # Small eps makes the early levels exceed the threshold with
    # appreciable probability, so each truncation strictly drops until
    # the sums hit zero.
    rep = _tightness(exponents=(6, 6), eps=0.2, replicas=300, seed=5)
    sums = rep.rows[-1]["tail_sums"]
    tails = [sums[str(j)] for j in range(7)]
    assert rep.rows[0]["hits"] > 0
    for j in range(5):
        assert tails[j] > tails[j + 1]
    assert tails[5] == 0.0


def test_tightness_deterministic():
    # 150 replicas make three blocks, so the threaded run really splits them
    base = dict(exponents=(5, 5), eps=0.3, axis_q=2, j_from=1, replicas=150, seed=9)
    a, b, c = (_tightness(threads=threads, **base) for threads in (1, 1, 3))
    assert a.canonical_json() == b.canonical_json() == c.canonical_json()
    assert any(r["hits"] > 0 for r in a.rows[:-1])
    assert a.rows[0]["shape"] == [32, 16]


def test_tightness_input_validation():
    base = dict(exponents=(4, 4), eps=1.0, replicas=10, seed=1)
    for bad, error in [(dict(eps=0.0), InvalidRangeError), (dict(axis_q=3), InvalidRangeError),
                       (dict(j_from=5), InvalidRangeError),
                       (dict(exponents=(4,)), InvalidInputError)]:
        with pytest.raises(error):
            _tightness(**{**base, **bad})


_PIN_MODULUS = {"c": math.exp(6.0), "L": {"kind": "iter_log"}}
# One small config per experiment, with a PASS or FAIL case for each one
# that decides, and the verdict and canonical payload digest it gave
# before run_experiment built every report.  No Weibull field and no
# constants level above 3, whose bytes move with numpy's SIMD level
# (ROADMAP item 4); the exponent fit takes np.log of its grid and of its
# tail, so its three digests hold at numpy's AVX-512 level only.
_PINNED = {
    "deviation": (dict(experiment="deviation", generator=iid_rademacher(2), shape=(8, 8),
                       x_grid=(0.5, 1.0, 2.0), replicas=200, seed=1), "INFO",
                  "ddf63c6a63d19c7082fd3f7745f756985d7aa9ee83e0b713b2de1e2c67bb271d"),
    "verify-bound-bounded": (
        dict(experiment="verify-bound", generator=iid_rademacher(2), shape=(8, 8),
             x_grid=(2.0, 3.0), replicas=500, seed=3, bound={"kind": "bounded", "K": 0.01}),
        "FAIL", "cf74f2a971fb99a14cdb6b4ee86fcfd55dc31ac13db18c1d58c55c709de284d7"),
    "verify-bound-two-term": (
        dict(experiment="verify-bound", generator=iid_gaussian(2), shape=(8, 8),
             x_grid=(1.0, 2.0), replicas=200, seed=3,
             bound={"kind": "two-term", "y": 16.0, "tail": {"kind": "bounded", "K": 1.0}}),
        "PASS", "81fe76d1a67897fd7dca546ffb8c31ce6f87bc0b5007191ef00c4367be6daa46"),
    "verify-bound-large-deviation": (
        dict(experiment="verify-bound", generator=iid_gaussian(2), shape=(16, 16),
             x_grid=(0.25, 0.5), replicas=200, seed=3,
             bound={"kind": "large-deviation", "gamma": 1.0}),
        "PASS", "106e7dd9bf6653d463467d8d4e6c01dd89bd4b352ce9ea902ad2f599881363eb"),
    "induction-check": (
        dict(experiment="induction-check", generator=iid_gaussian(2), shape=(8, 8),
             x_grid=(0.5, 1.0, 2.0), replicas=300, seed=21),
        "PASS", "5461eac4f978b019fc0f07864bbb32696cc6c63a9c8d0765eb3910fc3906eba5"),
    "sheet-cov": (dict(experiment="sheet-cov", shape=(8, 8), replicas=300, seed=17, pairs=4),
                  "PASS", "873d04094a62d08a648e4cbae75ac9fb26cb3050280c1943c4c1ad4a62b91664"),
    # one cell per box, a +-1 law the normal limit is far from
    "fdd-rademacher-cell": (
        dict(experiment="fdd", generator=iid_rademacher(2), shape=(4, 4),
             t_point=(0.25, 0.25), replicas=200, seed=4),
        "FAIL", "2dfcdbfe96291c86cccab3dfb73454738128d7e4ce976a3a351b60329b000882"),
    "fdd-gaussian": (
        dict(experiment="fdd", generator=iid_gaussian(2), shape=(16, 16), t_point=(0.5, 1.0),
             replicas=400, seed=11),
        "PASS", "90682141f274a8487a8a97e5c0ca902e3ee1dee20903337369a7076339aa28af"),
    "holder-norm": (
        dict(experiment="holder-norm", generator=iid_gaussian(2), shapes=((8, 8), (4, 8)),
             j_max=3, replicas=32, seed=2, modulus=_PIN_MODULUS),
        "INFO", "620fa95de23ad3d565ccd63c19d85f7217e84a56826f04ca1040893495e8b5e1"),
    # the levels read replicas [j R, (j + 1) R), so both the seeds of the
    # fields and the order of the sums are pinned
    "tightness-gaussian": (
        dict(experiment="tightness", generator=iid_gaussian(2), exponents=(6, 6), axis_q=1,
             j_from=0, threads=2, eps=0.2, replicas=150, seed=909, modulus=_PIN_MODULUS),
        "INFO", "3790aaf0c667be806bbf1a4e9e22611f88f6b8168c822b4523d3252f8f5fa1d7"),
    "tightness-product": (
        dict(experiment="tightness", generator=product_rademacher(3), exponents=(3, 4, 2),
             axis_q=2, j_from=0, threads=3, eps=0.2, replicas=150, seed=909,
             modulus=_PIN_MODULUS),
        "INFO", "89b42f5ac541426285b63adf7299163679583995bd95c3444ded48fc073bf897"),
    "constants": (dict(experiment="constants", d=2), "PASS",
                  "062112cf868d20d2e70ee6ea1368b9fe09f01e8384ab6f85b2e1d33720c951df"),
    "lemma-checks-converging": (
        dict(experiment="lemma-checks", svarying={"kind": "const", "c0": 1.0},
             tail={"kind": "bounded", "K": 0.5}, k_max=20, j_max=20),
        "PASS", "64c98c67582a455e197d4971ebf99d3c5cdaee1ec555e0b662e9c633e80e9ce0"),
    # trend-free ratios, but both series diverge: one ok row of three
    "lemma-checks-diverging": (
        dict(experiment="lemma-checks", svarying={"kind": "const", "c0": 1.0},
             tail={"kind": "unit"}, k_max=20, j_max=20),
        "FAIL", "a4dd44afa69d597bb7f09f1b02d7bba61026f1f155136b1e2f342923ac59b412"),
    "exponent-fit": (dict(experiment="exponent-fit", d=2, replicas=5000, seed=101), "INFO",
                     "5ec3ca8d3c2d81559d41fe25e3270438de9a7c53dd5aade99612fd634d7dfd56"),
    "exponent-fit-in-band": (
        dict(experiment="exponent-fit", d=2, replicas=5000, seed=101, band=(0.5, 1.5)),
        "PASS", "43e4cc9058fc4763a9a84cd3fadf5c57420c1d4e8e03c1b58a740dc634c0abc3"),
    "exponent-fit-off-band": (
        dict(experiment="exponent-fit", d=2, replicas=5000, seed=101, band=(1.5, 2.5)),
        "FAIL", "43fe142680eb2876da0d8723600d6f65b25c76a593af1eb9665e7a969bbdaf2d"),
}


def _refuse_constant(token):
    raise ValueError("%s is not strict JSON" % token)


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_payload_and_verdict_are_pinned(name):
    base, verdict, digest = _PINNED[name]
    rep = run_experiment(ExperimentConfig(**base))
    assert hashlib.sha256(rep.canonical_json().encode()).hexdigest() == digest
    # strict JSON: no bare Infinity or NaN token
    json.loads(rep.to_json(), parse_constant=_refuse_constant)
    assert rep.verdict == verdict
    # the one rule, which constants alone overrides with its stated PASS
    decided = [row["ok"] for row in rep.rows if "ok" in row]
    rule = "INFO" if not decided else "PASS" if all(decided) else "FAIL"
    assert rep.verdict == ("PASS" if rep.experiment == "constants" else rule)
    assert {case[0]["experiment"] for case in _PINNED.values()} == set(harness.EXPERIMENTS)


def test_constants_experiment_passes():
    rep = run_experiment(ExperimentConfig(experiment="constants", d=3))
    assert rep.verdict == "PASS"
    assert len(rep.rows) == 3
    assert rep.constants["d"] == 3


def test_report_payload_excludes_timing():
    cfg = ExperimentConfig(
        experiment="deviation", generator=zero_field(1), shape=(4,),
        x_grid=(1.0,), replicas=10, seed=1,
    )
    rep = run_experiment(cfg)
    payload = rep.payload()
    assert "timing" not in payload
    assert "wall_clock_s" not in payload
    full = json.loads(rep.to_json())
    assert "timing" in full
    assert full["timing"]["wall_clock_s"] >= 0.0


def test_run_experiment_dispatch():
    cfg = ExperimentConfig(
        experiment="deviation", generator=zero_field(1), shape=(4,),
        x_grid=(1.0,), replicas=10, seed=1,
    )
    rep = run_experiment(cfg)
    assert rep.experiment == "deviation"
