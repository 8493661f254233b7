import json
import math

import numpy as np
import pytest

from orthofield import (
    DegenerateModulusError,
    InvalidInputError,
    InvalidRangeError,
    Modulus,
    SlowlyVarying,
    TooLargeError,
    const_factor,
    full_grid_count,
    generate_batch,
    grid_seq_norms,
    iid_gaussian,
    iid_rademacher,
    iid_weibull,
    iter_log,
    log_power,
    modulus,
    modulus_eval,
    modulus_from_dict,
)
from orthofield import cli, holder
from orthofield.holder import svarying_from_dict
from orthofield.lattice import batch_prefix, padded_prefix
from orthofield.sumprocess import eval_W_grid
import single_field
from single_field import (
    DyadicSite,
    InvalidSiteError,
    NoParentsError,
    dyadic_sites,
    eval_W_batch,
    from_field,
    in_level_set,
    level_set_count,
    pyramid_eval,
    rect_sum,
    schauder_coeff,
    seq_norm,
    vpm,
)


def process_evaluator(process):
    """The oracle adapter: a PartialSumProcess as a vectorized [0,1]^d
    evaluator for seq_norm."""
    return lambda pts: eval_W_batch(process, pts)


def test_modulus_pinned_value():
    rho = Modulus(math.exp(4.0), 2, const_factor(1.0))
    # sqrt(1) * ln(e^4/1)^(2/2) * 1 = 4, and at h = 1/4, sqrt(1/4) ln(4 e^4) = 2 + ln 2
    assert modulus_eval(rho, 1.0) == pytest.approx(4.0, rel=1e-15)
    assert modulus_eval(rho, 0.25) == pytest.approx(2.0 + math.log(2.0), rel=1e-15)


def test_modulus_increasing_check_needs_large_c():
    # With c = e and d = 2 the dyadic values rise again immediately, so
    # the construction refuses; a comfortably large c passes.
    with pytest.raises(DegenerateModulusError):
        modulus(math.e, 2, const_factor(1.0))
    rho = modulus(math.exp(9.0), 2, const_factor(1.0))
    vals = [modulus_eval(rho, 2.0**-j) for j in range(10)]
    assert all(b > a for a, b in zip(vals[1:], vals[:-1]))


def test_modulus_range_errors():
    with pytest.raises(InvalidRangeError):
        modulus(1.0, 1, const_factor(1.0))
    with pytest.raises(InvalidRangeError):
        modulus(math.exp(4.0), 0, const_factor(1.0))
    rho = modulus(math.exp(4.0), 1, const_factor(1.0))
    with pytest.raises(InvalidRangeError):
        modulus_eval(rho, 0.0)
    with pytest.raises(InvalidRangeError):
        modulus_eval(rho, 1.5)


def test_slowly_varying_factors():
    assert log_power(0.0)(7.0) == 1.0
    assert log_power(2.0)(1.0) == pytest.approx((1.0 + math.log(2.0)) ** 2)
    assert iter_log()(1.0) == pytest.approx(1.0 + math.log1p(math.log(2.0)))
    assert const_factor(3.0)(123.0) == 3.0
    with pytest.raises(InvalidRangeError):
        log_power(-1.0)
    with pytest.raises(InvalidRangeError):
        const_factor(0.0)
    with pytest.raises(InvalidRangeError):
        iter_log()(0.5)



def test_a_slowly_varying_factor_is_one_row(monkeypatch, tmp_path, capsys):
    # a test-only factor is one row of the factor table: c0 (1 + ln(1 + t)),
    # which at c0 = 2 is log_power(1) doubled, bit for bit, since doubling
    # is exact.  It parses from JSON, is refused with the usual one-line
    # message, and runs through SlowlyVarying, a Modulus and the
    # holder-norm and lemma-checks experiments as a built-in kind does
    row = holder._Row(params=("c0",), name="scaled_log c0", limits={"lo": 0, "above": True},
                      factor=lambda t, c0: c0 * (1.0 + np.log1p(t)))
    monkeypatch.setitem(holder._FACTOR_TABLE, "scaled_log", row)
    L = svarying_from_dict({"kind": "scaled_log", "c0": 2})
    assert L == SlowlyVarying("scaled_log", c0=2.0) and type(L.c0) is float
    assert svarying_from_dict({"kind": "scaled_log"}) == SlowlyVarying("scaled_log")
    t = np.array([1.0, 10.0, 1e6])
    assert np.array_equal(L(t), 2.0 * log_power(1.0)(t))
    doubled, plain = (modulus(math.exp(6.0), 2, f) for f in (L, log_power(1.0)))
    h = 2.0 ** -np.arange(41.0)
    assert np.array_equal(modulus_eval(doubled, h), 2.0 * modulus_eval(plain, h))
    assert doubled._levels == tuple(2.0 * v for v in plain._levels)
    path = tmp_path / "run.json"
    base = {"experiment": "holder-norm", "shapes": [[8, 8]], "replicas": 16, "j_max": 3,
            "generator": {"variant": "iid_symmetric", "d": 2, "params": {"dist": "gaussian"}}}
    reports = []
    for factor in ({"kind": "scaled_log", "c0": 2.0}, {"kind": "log_power", "beta": 1.0}):
        path.write_text(json.dumps(dict(base, modulus={"c": math.exp(6.0), "L": factor})))
        assert cli.main(["holder-norm", "--config", str(path)]) == 0
        reports.append(json.loads(capsys.readouterr().out)["rows"][0])
    halved, norms = reports
    for key in ("q25", "median", "q75", "q90", "max"):
        assert 2.0 * halved[key] == norms[key] > 0.0, key
    for payload in (dict(base, modulus={"c": math.exp(6.0), "L": {"kind": "scaled_log", "c0": 0}}),
                    {"experiment": "lemma-checks", "tail": {"kind": "bounded", "K": 1.0},
                     "svarying": {"kind": "scaled_log", "c0": 0}}):
        path.write_text(json.dumps(payload))
        assert cli.main([payload["experiment"], "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: scaled_log c0 must be in (0, inf], not 0\n", err

def test_modulus_dict_round_trip():
    for data, rho in (
        ({"c": math.exp(9.0), "L": {"kind": "iter_log"}}, modulus(math.exp(9.0), 2, iter_log())),
        ({"c": math.exp(6.0), "L": {"kind": "const", "c0": 2.0}},
         modulus(math.exp(6.0), 3, const_factor(2.0))),
    ):
        assert modulus_from_dict(data, rho.d) == rho
    with pytest.raises(DegenerateModulusError):
        modulus_from_dict({"c": math.exp(4.0), "L": {"kind": "log_power", "beta": 1.5}}, 1)
    # the dimension is the field's and the increasing check is not a config key
    for bad in ({"c": 55.0, "L": {"kind": "mystery"}}, {"c": 55.0, "d": 2},
                {"c": 55.0, "check_increasing": False}):
        with pytest.raises(InvalidInputError):
            modulus_from_dict(bad, 2)


def test_level_set_count_matches_enumeration():
    for d in (1, 2, 3):
        for j in (0, 1, 2, 3, 4):
            sites = dyadic_sites(j, d)
            assert len(sites) == level_set_count(j, d)
            assert all(in_level_set(s) for s in sites)
            assert len({s.k for s in sites}) == len(sites)


def test_level_set_count_arithmetic():
    # Levels partition the full grid: |V_0| + sum |V_j| = (2^J + 1)^d.
    for d in (1, 2, 3):
        for J in range(0, 11):
            total = sum(level_set_count(j, d) for j in range(J + 1))
            assert total == full_grid_count(J, d)


def test_dyadic_site_validation():
    with pytest.raises(InvalidSiteError):
        DyadicSite(-1, (0,))
    with pytest.raises(InvalidSiteError):
        DyadicSite(2, (5,))
    site = DyadicSite(2, (3, 4))
    assert site.coords.tolist() == [0.75, 1.0]


def test_pyramid_delta_property():
    # A level-j bump is 1 at its own node and 0 at every other node of
    # the same level grid.
    for d in (1, 2):
        for j in (1, 2, 3):
            sites = dyadic_sites(j, d)
            for s in sites[:: max(1, len(sites) // 12)]:
                for w in sites[:: max(1, len(sites) // 12)]:
                    want = 1.0 if s.k == w.k else 0.0
                    assert pyramid_eval(s, w.coords) == want


def test_pyramid_eval_shape_and_support():
    site = DyadicSite(1, (1, 1))
    assert pyramid_eval(site, (0.5, 0.5)) == 1.0
    assert pyramid_eval(site, (0.75, 0.5)) == pytest.approx(0.5)
    assert pyramid_eval(site, (0.0, 0.0)) == 0.0
    pts = np.array([[0.5, 0.5], [0.25, 0.5], [1.0, 1.0]])
    got = pyramid_eval(site, pts)
    assert got.shape == (3,)
    assert got[0] == 1.0 and got[1] == pytest.approx(0.5) and got[2] == 0.0
    with pytest.raises(InvalidInputError):
        pyramid_eval(site, (0.5,))


def test_vpm_midpoint_and_errors():
    site = DyadicSite(2, (1, 2))
    lo, hi = vpm(site)
    assert lo.k == (0, 2) and hi.k == (2, 2)
    assert np.array_equal((lo.coords + hi.coords) / 2.0, site.coords)
    with pytest.raises(NoParentsError):
        vpm(DyadicSite(0, (0, 0)))
    with pytest.raises(InvalidSiteError):
        vpm(DyadicSite(2, (2, 4)))


def test_schauder_coeff_annihilates_affine():
    # Midpoint differencing kills affine functions at every level >= 1.
    def affine(pts):
        pts = np.atleast_2d(pts)
        return 0.7 + pts @ np.array([2.0, -3.0])

    for j in (1, 2, 3):
        for site in dyadic_sites(j, 2)[::7]:
            assert schauder_coeff(affine, site) == pytest.approx(0.0, abs=1e-12)
    # a level-0 corner has no parents: its coefficient is the value there
    assert schauder_coeff(affine, DyadicSite(0, (1, 0))) == 0.7 + 2.0


def test_seq_norm_of_single_bump_is_one():
    # x = rho(2^-J) * bump at w recovers coefficient rho(2^-J) at (J, w)
    # and zero elsewhere, so the truncated norm is exactly 1.
    rho = modulus(math.exp(4.0), 1, const_factor(1.0))
    J = 3
    w = DyadicSite(J, (5,))

    def x(pts):
        return modulus_eval(rho, 2.0**-J) * pyramid_eval(w, pts)

    res = seq_norm(x, rho, J)
    assert res.norm == 1.0
    assert res.level == J
    for j, peak, scaled in res.per_level[:-1]:
        assert peak == 0.0 and scaled == 0.0


def test_seq_norm_of_constant():
    rho = modulus(math.exp(4.0), 1, const_factor(1.0))

    def one(pts):
        return np.ones(np.atleast_2d(pts).shape[0])

    res = seq_norm(one, rho, 4)
    # Level 0 carries coefficient 1; all finer coefficients vanish.
    assert res.norm == pytest.approx(1.0 / modulus_eval(rho, 1.0), rel=1e-15)
    assert res.level == 0


def test_seq_norm_homogeneity():
    rho = modulus(math.exp(6.0), 2, iter_log())
    field = np.random.default_rng(4).standard_normal((8, 8))
    ev = process_evaluator(from_field(field))
    scaled_ev = lambda pts: 2.5 * ev(pts)
    a = seq_norm(ev, rho, 3)
    b = seq_norm(scaled_ev, rho, 3)
    assert b.norm == pytest.approx(2.5 * a.norm, rel=1e-12)
    assert b.level == a.level


def test_seq_norm_rejects_negative_level():
    rho = modulus(math.exp(4.0), 1, const_factor(1.0))
    with pytest.raises(InvalidRangeError):
        seq_norm(lambda pts: np.zeros(np.atleast_2d(pts).shape[0]), rho, -1)


def test_process_evaluator_matches_direct_calls():
    field = np.random.default_rng(11).standard_normal((4, 4))
    p = from_field(field)
    ev = process_evaluator(p)
    pts = np.array([[0.0, 0.0], [0.5, 0.25], [1.0, 1.0]])
    assert np.array_equal(ev(pts), eval_W_batch(p, pts))


def test_seq_norm_scales_with_spike_height():
    # A growing far-corner spike inflates the partial-sum process and
    # with it the truncated norm.
    rho = modulus(math.exp(6.0), 2, iter_log())
    norms = []
    for height in (1.0, 10.0, 100.0):
        field = generate_batch(iid_gaussian(2), (8, 8), 3, 0, 1)[0]
        field[7, 7] += height
        norms.append(seq_norm(process_evaluator(from_field(field)), rho, 3).norm)
    assert norms[0] < norms[1] < norms[2]


@pytest.mark.parametrize("law", [iid_gaussian, iid_rademacher, lambda d: iid_weibull(d, 0.7)],
                         ids=["gaussian", "rademacher", "weibull"])
@pytest.mark.parametrize("shape", [(8, 8), (5, 7), (13,), (16,), (1, 9), (3, 4, 5), (2, 2, 2)],
                         ids=lambda s: "x".join(map(str, s)))
def test_grid_seq_norms_match_callable_oracle_bit_for_bit(law, shape):
    # the dyadic-grid transform must reproduce seq_norm over eval_W_batch
    # exactly, at level 0, the finest level and two levels past it
    d = len(shape)
    rho = modulus(math.exp(6.0), d, iter_log())
    fields = np.concatenate([generate_batch(law(d), shape, 7, 0, 4), np.zeros((1,) + shape)])
    padded = padded_prefix(batch_prefix(fields.copy()), lead=1)
    finest = max(int(math.ceil(math.log2(max(shape)))), 1)
    for j_max in (0, finest, finest + 2):
        want = [seq_norm(process_evaluator(from_field(f)), rho, j_max).norm for f in fields]
        got = grid_seq_norms(padded, rho, j_max)
        assert np.array_equal(got, want), (j_max, got, want)
    assert got[-1] == 0.0


def _same_bits(got, want):
    return np.asarray(got, np.float64).tobytes() == np.asarray(want, np.float64).tobytes()


def test_corner_sum_order_is_pinned():
    # The oracle test above compares two callers of one corner-sum kernel,
    # so it cannot see a change in the kernel's own order: weights
    # multiplied in axis order, corners added in mask order.  These exact
    # values pin it.  The field is built from IEEE + - * / alone, so they
    # hold on any conforming platform; reversing the mask order or the
    # axis order of the weight products changes some of them.
    field = np.empty((3, 4, 5))
    for i, j, k in np.ndindex(*field.shape):
        field[i, j, k] = ((7 * i + 3 * j + 5 * k) % 11 - 5) / 3.0 + (i * j - k) / 7.0
    prefix = batch_prefix(field[None].copy())[0]
    boxes = [((1, 1, 1), (3, 4, 5)), ((2, 2, 3), (3, 4, 5)), ((2, 1, 2), (2, 3, 4)),
             ((1, 3, 2), (3, 3, 5))]
    assert _same_bits([rect_sum(prefix, lo, hi) for lo, hi in boxes],
                      [-4.2857142857142865, 1.3333333333333306, -3.952380952380952,
                       -3.1904761904761916])
    pts = [[0.1, 0.27, 0.67], [0.1, 0.71, 0.93], [0.03, 0.27, 0.28], [1.0, 0.25, 0.6],
           [0.0, 0.5, 1.0]]
    assert _same_bits(eval_W_batch(from_field(field), pts),
                      [-0.0300617278777052, -0.14424834259060332, -0.0203298428675779,
                       -0.29508444542532686, 0.0])
    padded = padded_prefix(prefix)[None]
    want = np.zeros((3, 3, 3))
    want[1, 1, 1:] = -0.11987805595403907, -0.4856598164291839
    want[1, 2, 1:] = -0.10450907442146992, -0.7008255578851516
    want[2, 1, 1:] = -0.2120919451494537, -0.9159912993411191
    want[2, 2, 1:] = 0.21516574145596762, -0.5532833351724882
    assert _same_bits(eval_W_grid(padded, 1)[0], want)
    # the norm peaks at level 2 (0.0311), clear of level 1 (0.0300), so
    # only the pinned coefficient peak and IEEE division count
    rho = modulus(math.exp(6.0), 3, iter_log())
    want = 0.611685464996251 / modulus_eval(rho, 0.25)
    assert _same_bits(grid_seq_norms(padded, rho, 3), [want])


def test_grid_seq_norms_input_checks(monkeypatch):
    from orthofield import lattice

    rho = modulus(math.exp(6.0), 2, iter_log())
    padded = padded_prefix(batch_prefix(np.ones((2, 4, 4))), lead=1)
    with pytest.raises(InvalidRangeError):
        grid_seq_norms(padded, rho, -1)
    with pytest.raises(InvalidInputError):
        grid_seq_norms(padded[:, 0], rho, 2)
    # one replica's level-5 grid holds 33^2 = 1089 nodes, over a budget of 1000
    monkeypatch.setattr(lattice, "_BLOCK_BYTES", 8 * 1000)
    with pytest.raises(TooLargeError):
        grid_seq_norms(padded, rho, 5)
    assert grid_seq_norms(padded, rho, 4).shape == (2,)


def test_huge_level_is_refused_before_its_grid_count(monkeypatch):
    # (2^j + 1)^d is a huge integer for a huge j or d; the exponent j d
    # (d at j = 0, whose grid has 2^d cells) is bounded first
    counted = []
    monkeypatch.setattr(single_field, "full_grid_count", lambda j, d: counted.append(j))
    for j, d, bits in ((10**7, 2, 2 * 10**7), (40, 10**6, 4 * 10**7), (0, 10**6, 10**6)):
        with pytest.raises(TooLargeError, match="at least 2\\^%d cells" % bits):
            dyadic_sites(j, d)
    assert counted == []
