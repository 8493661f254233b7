import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from orthofield import (
    GeneratorSpec,
    InvalidInputError,
    InvalidRangeError,
    decoupled_product,
    generate_batch,
    iid_gaussian,
    iid_rademacher,
    iid_weibull,
    moving_average,
    product_rademacher,
    spec_from_json,
    spec_to_json,
    spec_variance,
    validate_shape,
    zero_field,
)
from orthofield import _rng, generators
from orthofield.lattice import _block_size, batch_prefix
from single_field import orthomartingale_check


def product_factor_streams(spec, shape, seed, replica, offset=None):
    """Per-axis factor streams of one replica of a product variant, from
    the routine generate_batch multiplies out; their outer product is
    exactly that replica's field."""
    if spec.variant not in ("product_rademacher", "decoupled_product"):
        raise InvalidInputError("kernel is defined for product variants, not %r" % spec.variant)
    shape = validate_shape(shape)
    if len(shape) != spec.d:
        raise InvalidInputError("spec has d=%d but shape is %r" % (spec.d, shape))
    reps = np.asarray([replica], dtype=np.int64)
    words = generators._factor_words(spec, seed, generators._axis_coords(shape, offset))
    return [vals[0] for vals in generators._factor_streams(spec, words, reps)]


def float_path_stats(spec, shape, seed, start, count):
    """The statistics replica_stats returns, read off the full prefix
    array of the generated block: max |S_k|, the signed far corner S_n
    and max |S_k| over the last slab k_d = n_d."""
    prefix = batch_prefix(generate_batch(spec, shape, seed, start, count))
    total = prefix[(slice(None),) + (-1,) * len(shape)].copy()
    absp = np.abs(prefix)
    return {"max": absp.reshape(count, -1).max(axis=1), "total": total,
            "slab": absp[..., -1].reshape(count, -1).max(axis=1)}


def screen_bounds(spec, shape, seed, start, count, stat, floor=-math.inf):
    """The screen's per-replica bounds on the float path's max |S_k|
    (stat "max") or |S_n| ("total") at the floor, from the rows
    replica_stats hashes: at the default -inf a Gaussian or Weibull
    field's fine bound and a Rademacher maximum's full sign count; at a
    floor the chunk gate admits, the chunk bound where it clears the
    replica and the fine one elsewhere; at a higher floor a Rademacher
    maximum's partial count over the slab _sign_slab sizes."""
    coords = generators._axis_coords(shape, None)
    reps = np.arange(start, start + count, dtype=np.int64)
    rows = _rng.row_words(generators._base_key(spec, seed, 0), reps, coords[:-1])
    return generators._screen_bound(spec, rows, _rng.last_word(coords), stat, floor)


def weibull_tail_sample(gamma, u):
    """The generators' inverse-CDF map of the weibull_symmetric law
    (generators._weibull_values) on a copy of the uniforms u, which
    may be a number or an array."""
    arr = np.array(u, dtype=np.float64)
    out = generators._weibull_values(arr.reshape(-1), float(gamma)).reshape(arr.shape)
    return out if out.ndim else float(out)


def test_weibull_inverse_map_pinned_median():
    # P{|X| > ln 4} = 2 exp(-ln 4) = 1/2 when gamma = 1, checked on a
    # deterministic quantile grid rather than random draws.
    u = (np.arange(1, 100001) - 0.5) / 100000
    x = weibull_tail_sample(1.0, u)
    frac = np.mean(np.abs(x) > math.log(4.0))
    assert frac == pytest.approx(0.5, abs=1e-4)


def test_weibull_tail_matches_envelope():
    u = (np.arange(1, 200001) - 0.5) / 200000
    for gamma in (0.5, 1.0, 2.0):
        x = np.abs(weibull_tail_sample(gamma, u))
        for s in (0.9, 1.5, 2.5):
            want = min(1.0, 2.0 * math.exp(-(s**gamma)))
            got = float(np.mean(x > s))
            assert got == pytest.approx(want, abs=2e-4)


def test_weibull_sample_leaves_its_input_alone():
    u = np.array([0.2, 0.5, 0.9])
    x = weibull_tail_sample(1.0, u)
    assert np.array_equal(u, [0.2, 0.5, 0.9])
    assert x[1] == math.log(2.0) and x[0] < 0.0 < x[2]
    assert weibull_tail_sample(1.0, 0.2) == x[0]


def test_generate_deterministic_and_replica_streams():
    spec = iid_gaussian(2)
    a = generate_batch(spec, (5, 6), 42, 3, 1)[0]
    b = generate_batch(spec, (5, 6), 42, 3, 1)[0]
    c = generate_batch(spec, (5, 6), 42, 4, 1)[0]
    d = generate_batch(spec, (5, 6), 43, 3, 1)[0]
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_generate_batch_rows_match_single_replicas():
    spec = product_rademacher(2)
    batch = generate_batch(spec, (4, 4), 9, 10, 5)
    for j in range(5):
        single = generate_batch(spec, (4, 4), 9, 10 + j, 1)[0]
        assert np.array_equal(batch[j], single)


@pytest.mark.parametrize(
    "spec",
    [
        iid_rademacher(2),
        product_rademacher(2),
        moving_average(2, axis=1),
        iid_weibull(2, 1.0),
    ],
    ids=["iid", "product", "moving-average", "weibull"],
)
def test_shift_field_is_window_slice(spec):
    # Shifting the window by k must read the same infinite field: the
    # shifted (3, 4) block equals the corresponding slice of a larger
    # unshifted block.
    big = generate_batch(spec, (7, 9), 2024, 1, 1)[0]
    shifted = generate_batch(spec, (3, 4), 2024, 1, 1, offset=(2, 3))[0]
    assert np.array_equal(shifted, big[2:5, 3:7])


def test_zero_field_generates_zeros():
    arr = generate_batch(zero_field(3), (2, 3, 2), 1, 0, 1)
    assert np.all(arr == 0.0)


def test_batch_centering():
    # Sample means over many replicas sit within 4 standard errors of 0.
    for spec in (iid_rademacher(1), iid_weibull(1, 1.0), moving_average(1)):
        batch = generate_batch(spec, (8,), 31, 0, 4000)
        mean = batch.mean()
        se = batch.std(ddof=1) / math.sqrt(batch.size)
        assert abs(mean) < 4 * se + 1e-12


def test_product_factor_streams_outer_product():
    spec = decoupled_product(3, dist="gaussian", sigma=1.0)
    streams = product_factor_streams(spec, (3, 4, 5), 5, 2)
    assert [len(s) for s in streams] == [3, 4, 5]
    outer = np.einsum("i,j,k->ijk", *streams)
    field = generate_batch(spec, (3, 4, 5), 5, 2, 1)[0]
    assert np.allclose(outer, field, rtol=1e-15)


def test_product_factor_streams_rejects_iid():
    with pytest.raises(InvalidInputError):
        product_factor_streams(iid_rademacher(2), (3, 3), 1, 0)


def test_kernel_degeneracy_monte_carlo():
    # Freezing all factors but one leaves a centered variable: the
    # conditional mean over the free factor vanishes for every fixed
    # value of the others.
    rng = np.random.default_rng(3)
    fixed = rng.choice([-1.0, 1.0], size=5)
    free = rng.choice([-1.0, 1.0], size=20000)
    prods = free * np.prod(fixed)
    assert abs(np.mean(prods)) < 4.0 / math.sqrt(len(free))


def test_spec_json_round_trip():
    for spec in (
        iid_weibull(3, 0.5),
        moving_average(2, axis=2, dist="gaussian", sigma=2.0),
        product_rademacher(4),
        zero_field(1),
    ):
        text = spec_to_json(spec)
        back = spec_from_json(text)
        assert back == spec
        assert json.loads(text)["d"] == spec.d


def test_spec_from_json_rejects_malformed():
    with pytest.raises(InvalidInputError):
        spec_from_json("{not json")
    with pytest.raises(InvalidInputError):
        spec_from_json(json.dumps({"d": 2}))
    with pytest.raises(InvalidInputError):
        spec_from_json(json.dumps({"variant": "no_such_variant", "d": 2}))


@pytest.mark.parametrize("text", ["[" * 10**5 + "]" * 10**5,
                                  '{"variant": "iid_symmetric", "d": %s}' % ("7" * 5000)],
                         ids=["deep-array", "5000-digit-integer"])
def test_spec_from_json_refuses_texts_past_the_decoders_limits(text):
    # nesting past the recursion limit, an integer past the digit limit
    with pytest.raises(InvalidInputError, match="generator spec is not JSON"):
        spec_from_json(text)


def test_spec_variance_against_quadrature():
    # E X^2 = int_0^inf 2 s P{|X| > s} ds for the symmetric stretched
    # exponential tail.
    for gamma in (0.5, 1.0, 2.0):
        want, err = quad(
            lambda s, g=gamma: 2.0 * s * min(1.0, 2.0 * math.exp(-(s**g))),
            0.0,
            np.inf,
            limit=200,
        )
        got = spec_variance(iid_weibull(1, gamma))
        assert got == pytest.approx(want, rel=1e-8)
    assert spec_variance(iid_gaussian(2, sigma=3.0)) == 9.0
    assert spec_variance(product_rademacher(5)) == 1.0
    assert spec_variance(moving_average(1, dist="gaussian", sigma=1.0)) == 2.0
    # a decoupled product multiplies d independent factors of one law
    assert spec_variance(decoupled_product(2, "gaussian", sigma=3.0)) == 81.0
    weibull = spec_variance(iid_weibull(1, 0.7))
    assert spec_variance(decoupled_product(3, "weibull_symmetric", gamma=0.7)) == weibull**3


@pytest.mark.parametrize(
    "spec,name",
    [(zero_field(2), "zero"), (iid_gaussian(2, sigma=1e-200), "sigma"),
     (iid_gaussian(1, sigma=1e300), "sigma"), (iid_weibull(2, 0.01), "gamma"),
     (moving_average(2, dist="weibull_symmetric", gamma=0.005), "gamma"),
     (decoupled_product(4, "gaussian", sigma=1e100), "sigma")],
    ids=["zero", "sigma-square-underflows", "sigma-square-overflows", "gamma-0.01",
         "moving-average-gamma-0.005", "product-of-four-overflows"],
)
def test_spec_variance_is_a_positive_float_or_names_its_parameter(spec, name):
    # the zero field's variance is 0, and the others are not floats:
    # none of them has a normal limit fdd could test against
    with pytest.raises(InvalidRangeError, match=name):
        spec_variance(spec)


def test_spec_variance_matches_monte_carlo():
    spec = iid_weibull(1, 1.0)
    batch = generate_batch(spec, (16,), 77, 0, 8000)
    m2 = float(np.mean(batch**2))
    se = float(np.std(batch**2, ddof=1)) / math.sqrt(batch.size)
    assert abs(m2 - spec_variance(spec)) < 5 * se


def test_orthomartingale_check_positive_controls():
    for spec in (iid_rademacher(2), product_rademacher(2), iid_gaussian(2)):
        res = orthomartingale_check(spec, (4, 4), 11, replicas=2000)
        assert res.passed, spec.variant


def test_orthomartingale_check_negative_control():
    # A one-step moving average on axis 1 correlates with its own past
    # on that axis but stays centered against the other axis.
    spec = moving_average(2, axis=1)
    res = orthomartingale_check(spec, (4, 4), 7, replicas=3000)
    assert not res.passed
    assert any(abs(r.z) > res.z_threshold for r in res.rows if r.axis == 1)
    assert all(abs(r.z) <= res.z_threshold for r in res.rows if r.axis == 2)
    # two sites, three tests, on each of the two axes
    assert len(res.rows) == 12


def test_orthomartingale_check_input_validation():
    with pytest.raises(InvalidInputError):
        orthomartingale_check(iid_rademacher(2), (4, 4), 1, replicas=10)
    # an axis of extent 1 leaves the far corner with an empty past
    with pytest.raises(InvalidInputError):
        orthomartingale_check(iid_rademacher(2), (4, 1), 1, replicas=2000)


def test_orthomartingale_check_rejects_shape_of_other_dimension():
    with pytest.raises(InvalidInputError, match="d=3.*d=2"):
        orthomartingale_check(iid_rademacher(3), (4, 4), 1, replicas=1000)


_SHAPES = [(17,), (13, 7), (3, 4, 5), (64, 64)]
# a start and count off the block grid of the largest shape, the count
# more than one of its blocks, so no block boundary is assumed
_LARGEST_BLOCK = _block_size(64 * 64, "lattice")
_START, _COUNT = _LARGEST_BLOCK - 5, _LARGEST_BLOCK + 9


@pytest.mark.parametrize("shape", _SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("variant", ["product_rademacher", "decoupled_product"])
def test_product_stats_equal_float_path_exactly_for_rademacher(variant, shape):
    # +-1 factors make every partial sum and product an exact integer
    d = len(shape)
    spec = product_rademacher(d) if variant == "product_rademacher" else decoupled_product(d)
    want = float_path_stats(spec, shape, 8, _START, _COUNT)
    stats = ("slab", "max", "total")
    got = generators.replica_stats(spec, shape, 8, _START, _COUNT, stats)
    for name, values in zip(stats, got):
        assert values.shape == (_COUNT,)
        assert np.array_equal(values, want[name]), name
    assert np.any(want["slab"] < want["max"])  # the slab is not the whole box


@pytest.mark.parametrize("shape", _SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("dist,params", [("gaussian", {"sigma": 1.5}),
                                         ("weibull_symmetric", {"gamma": 0.7})])
def test_product_stats_match_float_path_for_continuous_laws(dist, params, shape):
    # only the rounding differs: within 1e-12 x max |S| of each replica,
    # since a total near zero can move far more than 1e-12 relative
    spec = decoupled_product(len(shape), dist=dist, **params)
    want = float_path_stats(spec, shape, 8, _START, _COUNT)
    got = dict(zip(want, generators.replica_stats(spec, shape, 8, _START, _COUNT, want)))
    for name in want:
        assert np.all(np.abs(got[name] - want[name]) <= 1e-12 * want["max"]), name


@pytest.mark.parametrize("shape", _SHAPES[:3], ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("make", [iid_rademacher, iid_gaussian, lambda d: iid_weibull(d, 1.0),
                                  moving_average],
                         ids=["rademacher", "gaussian", "weibull", "moving-average"])
def test_field_stats_are_the_float_path_bit_for_bit(make, shape):
    spec = make(len(shape))
    want = float_path_stats(spec, shape, 8, _START, _COUNT)
    total, = generators.replica_stats(spec, shape, 8, _START, _COUNT, ("total",))
    assert np.array_equal(total, want["total"])
    got = generators.replica_stats(spec, shape, 8, _START, _COUNT, ("max", "slab", "total"))
    for name, values in zip(("max", "slab", "total"), got):
        assert np.array_equal(values, want[name]), name


@pytest.mark.parametrize("spec,shape,count", [(iid_gaussian(2), (32, 256), 400),
                                              (iid_rademacher(2), (64, 64), 8192)],
                         ids=["tightness-level", "verify-bound"])
def test_spans_leave_every_thread_work(monkeypatch, spec, shape, count):
    # a tightness level and a verify-bound run of the 2-thread Monte
    # Carlo benchmark: spans of whole blocks, at least min(blocks, 8) of
    # them, planned the same whatever the threads.  Spans sized by the
    # row budget alone would put the 25 blocks of the level in one span,
    # so on one thread.
    plans = []
    monkeypatch.setattr(generators, "_map_blocks",
                        lambda fn, tasks, threads: plans.append(tasks) or [])
    for threads in (1, 2):
        generators.replica_stats(spec, shape, 3, 0, count, ("max",), threads)
    block = _block_size(math.prod(shape), "lattice")
    tasks = plans[0]
    assert plans[1] == tasks and (tasks.start, tasks.stop) == (0, count)
    assert tasks.step % block == 0
    assert len(tasks) >= min(-(-count // block), 8), (tasks, block)


# the shapes of the screen's routes: a last axis of extent 1, whose last
# fold runs in place on the row words, and (2, 3), where the sign
# count's bound (|n| + |S_n|) / 2 is often reached
_SCREEN_SHAPES = [(64, 64), (4096,), (4096, 1), (8, 8, 8), (2, 3)]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("make,shape", [
    pytest.param(make, shape, id=prefix + "x".join(map(str, shape)))
    for make, prefix in [(iid_rademacher, ""), (lambda d: iid_weibull(d, 1.0), "weibull-")]
    for shape in _SCREEN_SHAPES])
def test_floored_max_is_the_max_raised_to_the_floor(make, shape, threads):
    spec, start, count = make(len(shape)), 11, 300
    plain, total = generators.replica_stats(spec, shape, 8, start, count, ("max", "total"),
                                            threads)
    bound = screen_bounds(spec, shape, 8, start, count, "max")
    if spec.param("dist") == "rademacher":
        assert np.array_equal(bound, (math.prod(shape) + np.abs(total)) / 2)
    assert np.all(plain <= bound)
    # floors that leave every replica open, some of them, and none
    floors = [bound.min() - 1.0, float(np.median(bound)), bound.max(), float(np.median(plain))]
    assert 0 < np.count_nonzero(bound > floors[1]) < count
    for floor in floors:
        got, = generators.replica_stats(spec, shape, 8, start, count, ("max",), threads,
                                        floor=floor)
        assert np.array_equal(got, np.maximum(floor, plain)), floor


def _negated(vals, spec):
    return np.negative(vals, out=vals)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("law", ["rademacher", "gaussian"])
def test_a_variant_is_one_row(monkeypatch, law, threads):
    # a test-only variant is one row of the variant table: iid_symmetric's
    # row, tags and all, with a negating post-map.  Its fields are the iid
    # ones negated bit for bit, on the float path with or without a floor
    # (where the iid field takes the screen or the sign count).
    row = generators._VARIANT_TABLE["iid_symmetric"]._replace(post=_negated)
    monkeypatch.setitem(generators._VARIANT_TABLE, "negated_iid", row)
    spec, iid = (GeneratorSpec(variant, 2, {"dist": law})
                 for variant in ("negated_iid", "iid_symmetric"))
    shape = (12, 16)
    count = 2 * _block_size(math.prod(shape), "lattice") + 3
    assert spec_variance(spec) == spec_variance(iid)
    assert np.array_equal(generate_batch(spec, shape, 4, 7, 30).view(np.uint64),
                          (-generate_batch(iid, shape, 4, 7, 30)).view(np.uint64))
    stats = ("max", "total", "slab")
    got = generators.replica_stats(spec, shape, 4, 7, count, stats, threads)
    want = generators.replica_stats(iid, shape, 4, 7, count, stats, threads)
    assert np.array_equal(got[0].view(np.uint64), want[0].view(np.uint64))
    assert np.array_equal(got[1], -want[1])  # a total of 0 is +0.0 either way
    assert np.array_equal(got[2].view(np.uint64), want[2].view(np.uint64))
    for stat, column in (("max", want[0]), ("total", np.abs(want[1]))):
        floor = float(np.median(column))
        negated, plain = (generators.replica_stats(s, shape, 4, 7, count, (stat,), threads,
                                                   floor=floor)[0] for s in (spec, iid))
        assert np.array_equal(negated.view(np.uint64), plain.view(np.uint64)), stat


_ROUTES = [product_rademacher(2), iid_gaussian(2), moving_average(2), zero_field(2),
           iid_rademacher(2), iid_weibull(2, 1.0)]
_ROUTE_IDS = ["product", "gaussian", "moving-average", "zero", "rademacher", "weibull"]


@pytest.mark.parametrize("spec", _ROUTES, ids=_ROUTE_IDS)
def test_floored_max_is_the_max_raised_to_the_floor_on_every_route(spec):
    # a lone max with a floor f is max(f, max_k |S_k|) on every route,
    # the screens' and the float path's alike
    plain, = generators.replica_stats(spec, (6, 5), 8, 3, 40, ("max",))
    for floor in (float(np.median(plain)), 0.0):
        got, = generators.replica_stats(spec, (6, 5), 8, 3, 40, ("max",), floor=floor)
        assert np.array_equal(got, np.maximum(floor, plain)), floor


@pytest.mark.parametrize("stats", [("max", "total"), ("slab", "max", "total"), ("slab",),
                                   ("total", "max")])
def test_floor_needs_a_lone_max_or_total(stats):
    for spec in _ROUTES:
        with pytest.raises(InvalidInputError, match="lone"):
            generators.replica_stats(spec, (6, 5), 8, 3, 40, stats, floor=1.0)


@pytest.mark.parametrize("spec", _ROUTES, ids=_ROUTE_IDS)
def test_floored_total_is_its_magnitude_raised_to_the_floor(spec):
    # a lone total with a floor f is max(f, |S_n|) on every route, the
    # sign count's and the bracket screen's among them
    plain, = generators.replica_stats(spec, (6, 5), 8, 3, 40, ("total",))
    for floor in (float(np.median(np.abs(plain))), 0.0):
        got, = generators.replica_stats(spec, (6, 5), 8, 3, 40, ("total",), floor=floor)
        assert np.array_equal(got, np.maximum(floor, np.abs(plain))), floor


def test_screened_rademacher_blocks_skip_the_prefix_sums(monkeypatch):
    # a +-1 field's maximum is at most (m + |S_m|) / 2 + (|n| - m) for
    # the sign count S_m of any m sites; at verify-bound's smallest
    # threshold 48 * 64 on 64x64 a slab of 36 rows of 64 sites, about
    # 2 (|n| - f) + 4 sqrt(|n|), clears every replica, so no block
    # hashes more than 60 % of its words or runs batch_prefix
    hashed = []
    last_fold = _rng.last_fold

    def no_prefix(fields):
        raise AssertionError("a screened block ran batch_prefix")

    def counting_fold(rows, last, top):
        words = last_fold(rows, last, top)
        hashed.append((len(words), words[0].size))
        return words

    monkeypatch.setattr(generators, "batch_prefix", no_prefix)
    monkeypatch.setattr(_rng, "last_fold", counting_fold)
    got, = generators.replica_stats(iid_rademacher(2), (64, 64), 3, 0, 512, ("max",), 2,
                                    floor=3072.0)
    assert np.array_equal(got, np.full(512, 3072.0))
    assert sum(replicas for replicas, _ in hashed) == 512
    assert {words for _, words in hashed} == {36 * 64} and 36 * 64 <= 0.6 * 64 * 64


@pytest.mark.parametrize("spec,fits", [
    (iid_gaussian(2, 1e306), True), (moving_average(2, dist="gaussian", sigma=1e306), False),
    (decoupled_product(2, "gaussian", sigma=1e152), True),
    (decoupled_product(2, "gaussian", sigma=1e153), False)],
    ids=["iid", "moving-average", "product", "product-past-the-range"])
def test_a_lattice_whose_sums_can_pass_the_float_range_is_refused(spec, fits):
    # a site's value is at most the bracket table's largest magnitude v,
    # about 8.29 sigma, times 2 for a moving average and to the power d
    # for a product: 16 times that must stay below the largest double on
    # 4x4, where the prefix sums then run without an overflow warning
    if fits:
        assert np.all(np.isfinite(batch_prefix(generate_batch(spec, (4, 4), 1, 0, 3))))
        return
    for run in (lambda: generate_batch(spec, (4, 4), 1, 0, 3),
                lambda: generators.replica_stats(spec, (4, 4), 1, 0, 3, ("max",))):
        with pytest.raises(InvalidRangeError, match="sum past the float range"):
            run()


def test_replica_stats_rejects_bad_requests():
    for stats in ((), ("max", "mean")):
        with pytest.raises(InvalidInputError):
            generators.replica_stats(product_rademacher(2), (4, 4), 1, 0, 3, stats)
    for floor in (math.nan, "1", True):
        with pytest.raises(InvalidInputError, match="floor"):
            generators.replica_stats(iid_rademacher(2), (4, 4), 1, 0, 3, ("max",), floor=floor)
    with pytest.raises(InvalidInputError):
        generators.replica_stats(product_rademacher(2), (4,), 1, 0, 3, ("max",))
    # replica -1 would alias replica 2^64 - 1 in the hash
    for spec in (product_rademacher(2), iid_rademacher(2)):
        with pytest.raises(InvalidRangeError, match="replica start"):
            generators.replica_stats(spec, (4, 4), 1, -1, 1, ("max",))


def test_generate_shape_mismatch():
    with pytest.raises(InvalidInputError):
        generate_batch(iid_rademacher(2), (4,), 1, 0, 1)
    with pytest.raises(InvalidRangeError):
        generate_batch(iid_rademacher(1), (4,), 1, 0, 0)
    with pytest.raises(InvalidRangeError, match="replica start"):
        generate_batch(iid_rademacher(1), (4,), 1, -1, 1)
    # a hand-built spec checks its variant when it is built
    with pytest.raises(InvalidInputError, match="'no_such'"):
        generators.GeneratorSpec("no_such", 1)


# replica numbers that were taken unchecked: a count of 2.5 made 3
# replicas and True made 1, seed -1 aliased seed 2^64 - 1, an offset of
# 1.5 was truncated to 1, and replica_stats ended in a TypeError or an
# OverflowError; each is now one error naming the number, and one too
# long to print is named by its size
BAD_REPLICA_NUMBERS = [
    (generate_batch, {"count": 2.5}, InvalidInputError, "replica count"),
    (generate_batch, {"count": True}, InvalidInputError, "replica count"),
    (generate_batch, {"seed": -1}, InvalidRangeError, "master seed"),
    (generate_batch, {"seed": 2**64}, InvalidRangeError, "master seed"),
    (generate_batch, {"seed": 10**5000}, InvalidInputError, "master seed .* 16610 bits"),
    (generate_batch, {"offset": (1.5,)}, InvalidInputError, "offset entry"),
    (generate_batch, {"offset": (2**63,)}, InvalidRangeError, "offset entry"),
    (generators.replica_stats, {"count": 2.5}, InvalidInputError, "replica count"),
    (generators.replica_stats, {"seed": 2**70}, InvalidRangeError, "master seed"),
    (generators.replica_stats, {"start": 2**70}, InvalidRangeError, "replica start"),
    (generators.replica_stats, {"start": 2**63 - 1}, InvalidRangeError, "replica count"),
]


@pytest.mark.parametrize("run,change,error,name", BAD_REPLICA_NUMBERS,
                         ids=["batch-count-2.5", "batch-count-true", "batch-seed-negative",
                              "batch-seed-2^64", "batch-seed-5001-digits", "batch-offset-1.5", "batch-offset-2^63",
                              "stats-count-2.5", "stats-seed-2^70", "stats-start-2^70",
                              "stats-past-int64"])
def test_replica_numbers_are_checked(run, change, error, name):
    args = {"seed": 1, "start": 0, "count": 2} | change
    extra = {"offset": args.get("offset")} if run is generate_batch else {"stats": ("max",)}
    with pytest.raises(error, match=name):
        run(iid_rademacher(1), (4,), args["seed"], args["start"], args["count"], **extra)


@pytest.mark.parametrize("start", [0, 2**63 - 2], ids=["start-0", "start-2^63-2"])
def test_numpy_replica_numbers_act_as_python_ints(start):
    # a numpy seed, start and count give the replicas their values name,
    # also where start + count reaches 2^63, past np.int64
    spec, numpy_args = iid_rademacher(1), (np.uint64(7), np.int64(start), np.int64(2))
    fields = generate_batch(spec, (4,), 7, start, 2)
    assert np.array_equal(generate_batch(spec, (4,), *numpy_args), fields)
    peaks = np.abs(batch_prefix(fields)).max(axis=1)
    assert np.array_equal(generators.replica_stats(spec, (4,), *numpy_args, ("max",))[0], peaks)
