import math

import numpy as np
import pytest

from orthofield import (
    InvalidInputError,
    InvalidRangeError,
    delta_q,
    eval_W,
    eval_W_batch,
    from_field,
    grid_value,
    lemma11_check,
    validate_index,
    validate_shape,
    volume,
)
from orthofield.sumprocess import _validate_point


def overlap_volume(site, shape, t) -> float:
    """Lebesgue volume of cell(site) intersected with prod_q [0, n_q t_q]."""
    shape = validate_shape(shape)
    site = validate_index(site, shape)
    t = _validate_point(t, len(shape))
    out = 1.0
    for i_q, n_q, t_q in zip(site, shape, t):
        out *= float(np.clip(n_q * t_q - (i_q - 1), 0.0, 1.0))
    return out


def lipschitz_ratio(p, pairs) -> float:
    """Max over pairs of |W(t) - W(t')| divided by the coarse bound
    sqrt(|n|) ||t - t'||_inf sum|X|.  Coincident pairs are skipped; an
    all-zero field gives 0.

    The normalized ratio stays at or below 1 whenever every axis has at
    least two cells.  Shapes with unit axes in d >= 2 can push a corner
    increment past the bound (test_lipschitz_bound_fails_on_unit_axes),
    so comparisons against 1 keep n_q >= 2.
    """
    pairs = list(pairs)
    if not pairs:
        raise InvalidInputError("need at least one (t, t') pair")
    total_abs = float(np.sum(np.abs(p.field)))
    if total_abs == 0.0:
        return 0.0
    best = 0.0
    for t, t_prime in pairs:
        t = _validate_point(t, p.d)
        t_prime = _validate_point(t_prime, p.d)
        sup_dist = float(np.max(np.abs(t - t_prime)))
        if sup_dist == 0.0:
            continue
        vals = eval_W_batch(p, np.vstack([t, t_prime]))
        ratio = float(abs(vals[0] - vals[1])) / (p.sqrt_vol * sup_dist * total_abs)
        best = max(best, ratio)
    return best


def brute_W(field, t):
    """Defining sum, one overlap_volume call per lattice cell."""
    field = np.asarray(field, dtype=np.float64)
    shape = field.shape
    total = 0.0
    for idx in np.ndindex(*shape):
        site = tuple(i + 1 for i in idx)
        total += overlap_volume(site, shape, t) * field[idx]
    return total / math.sqrt(volume(shape))


def random_field(rng, d_max=3, n_max=6):
    d = int(rng.integers(1, d_max + 1))
    shape = tuple(int(n) for n in rng.integers(2, n_max + 1, size=d))
    return rng.standard_normal(shape)


def test_pinned_half_cell_value():
    # d=1, n=2, both increments 1: at t=0.75 the second cell is half
    # covered, so W = (1 + 0.5) / sqrt(2).
    p = from_field([1.0, 1.0])
    assert eval_W(p, (0.75,)) == pytest.approx(1.5 / math.sqrt(2.0), rel=1e-15)


def test_eval_routes_match_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(40):
        field = random_field(rng)
        p = from_field(field)
        d = field.ndim
        pts = rng.uniform(0.0, 1.0, size=(8, d))
        batch = eval_W_batch(p, pts)
        for j in range(len(pts)):
            want = brute_W(field, pts[j])
            assert eval_W(p, pts[j]) == pytest.approx(want, abs=1e-12)
            assert batch[j] == pytest.approx(want, abs=1e-12)


def test_grid_identity():
    # At grid points t = (k_q / n_q), W equals the prefix sum over
    # [1, k] divided by sqrt(|n|).
    rng = np.random.default_rng(7)
    for shape in [(5,), (16,), (4, 7), (16, 3), (3, 4, 5)]:
        field = rng.standard_normal(shape)
        p = from_field(field)
        for k in np.ndindex(*(n + 1 for n in shape)):
            t = tuple(kq / nq for kq, nq in zip(k, shape))
            want = grid_value(p, k)
            got = eval_W(p, t)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_multiaffine_midpoint_interpolation():
    # Within one grid cell W is affine in each coordinate, so the value
    # at the midpoint of a cell edge is the mean of the endpoint values.
    rng = np.random.default_rng(13)
    field = rng.standard_normal((4, 5))
    p = from_field(field)
    for _ in range(50):
        i = rng.integers(0, 4)
        j = rng.integers(0, 5)
        q = rng.integers(0, 2)
        lo = np.array([i / 4, j / 5])
        hi = lo.copy()
        hi[q] += 1.0 / (4 if q == 0 else 5)
        mid = (lo + hi) / 2.0
        vals = eval_W_batch(p, np.vstack([lo, hi, mid]))
        assert vals[2] == pytest.approx((vals[0] + vals[1]) / 2.0, abs=1e-12)


def test_overlap_volume_basics():
    assert overlap_volume((1, 1), (2, 2), (1.0, 1.0)) == 1.0
    assert overlap_volume((2, 2), (2, 2), (0.5, 0.5)) == 0.0
    assert overlap_volume((1, 1), (2, 2), (0.25, 0.5)) == pytest.approx(0.5)


def test_eval_input_validation():
    p = from_field(np.ones((3, 3)))
    with pytest.raises(InvalidInputError):
        eval_W(p, (0.5,))
    with pytest.raises(InvalidRangeError):
        eval_W(p, (0.5, 1.5))
    with pytest.raises(InvalidInputError):
        eval_W_batch(p, np.zeros((4, 3)))
    with pytest.raises(InvalidInputError):
        grid_value(p, (4, 0))


def test_grid_value_zero_index_is_zero():
    p = from_field(np.ones((3, 3)))
    assert grid_value(p, (0, 2)) == 0.0


def test_delta_q_matches_direct_difference():
    rng = np.random.default_rng(21)
    field = rng.standard_normal((5, 6))
    p = from_field(field)
    for _ in range(20):
        t, tp = rng.uniform(0, 1, size=2)
        s = rng.uniform(0, 1, size=1)
        for q in (1, 2):
            if q == 1:
                a, b = (t, s[0]), (tp, s[0])
            else:
                a, b = (s[0], t), (s[0], tp)
            want = abs(eval_W(p, a) - eval_W(p, b))
            assert delta_q(p, q, t, tp, s) == pytest.approx(want, abs=1e-12)
    assert delta_q(p, 1, 0.3, 0.3, [0.5]) == 0.0
    with pytest.raises(InvalidInputError):
        delta_q(p, 3, 0.1, 0.2, [0.5])


def test_delta_q_zero_field():
    p = from_field(np.zeros((3, 3)))
    assert delta_q(p, 2, 0.1, 0.9, [0.4]) == 0.0


def test_lemma11_zero_field():
    p = from_field(np.zeros((4, 4)))
    res = lemma11_check(p, 0.2, 0.7)
    assert res.lhs == 0.0 and res.rhs == 0.0 and res.holds


def test_lemma11_random_instances():
    rng = np.random.default_rng(99)
    violations = 0
    for _ in range(300):
        d = int(rng.integers(2, 4))
        shape = tuple(int(n) for n in rng.integers(2, 9, size=d))
        p = from_field(rng.standard_normal(shape))
        t, tp = np.sort(rng.uniform(0.0, 1.0, size=2))
        if tp <= t:
            tp = min(1.0, t + 1e-3)
        res = lemma11_check(p, float(t), float(tp))
        if not res.holds:
            violations += 1
    assert violations == 0


def test_lemma11_small_gap_drops_block_term():
    rng = np.random.default_rng(3)
    p = from_field(rng.standard_normal((8, 8)))
    res = lemma11_check(p, 0.30, 0.30 + 0.5 / 8)
    assert res.indicator == 0
    assert res.block_term == 0.0
    assert res.holds


def test_lemma11_at_d1_and_at_snapped_grid_points():
    # d = 1: the sup over s runs over the one empty node; for ones on 8
    # sites lhs = S_5.6 - S_1.6 = 4 and rhs = 3 (S_5 - S_1 + 1) = 15
    res = lemma11_check(from_field(np.ones(8)), 0.2, 0.7)
    assert res.lhs == pytest.approx(4.0) and res.rhs == pytest.approx(15.0) and res.holds
    # n t = 10 (1 - 0.9) = 0.9999999999999998 and 10 * 0.3 =
    # 3.0000000000000004 are grid points reached through float
    # arithmetic; they snap to 1 and 3, so the block holds sites 2 and 3
    # (2 + 3 = 5), not sites 1 to 3
    res = lemma11_check(from_field(np.arange(1.0, 11.0)), 1 - 0.9, 0.3)
    assert res.indicator == 1 and res.block_term == 3.0 * 5.0
    assert res.lhs == pytest.approx(5.0) and res.holds


def test_lemma11_rejects_bad_range():
    p = from_field(np.ones((4, 4)))
    with pytest.raises(InvalidRangeError):
        lemma11_check(p, 0.7, 0.7)
    with pytest.raises(InvalidRangeError):
        lemma11_check(p, 0.8, 0.2)


def test_lipschitz_ratio_bounded_on_fat_shapes():
    # The normalized increment stays at or below 1 when every axis has
    # at least two cells.
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        field = random_field(rng)
        p = from_field(field)
        d = field.ndim
        pairs = [(rng.uniform(0, 1, d), rng.uniform(0, 1, d)) for _ in range(10)]
        worst = max(worst, lipschitz_ratio(p, pairs))
    assert worst <= 1.0 + 1e-9


def test_lipschitz_ratio_tight_in_dimension_one():
    p = from_field([1.0])
    assert lipschitz_ratio(p, [((0.0,), (1.0,))]) == pytest.approx(1.0, rel=1e-15)


def test_lipschitz_ratio_far_pair_and_zero_field():
    rng = np.random.default_rng(8)
    p = from_field(rng.standard_normal((4, 4)))
    assert lipschitz_ratio(p, [((0.0, 0.0), (1.0, 1.0))]) <= 1.0
    z = from_field(np.zeros((4, 4)))
    assert lipschitz_ratio(z, [((0.0, 0.0), (1.0, 1.0))]) == 0.0


def test_lipschitz_ratio_skips_coincident_and_rejects_empty():
    p = from_field(np.ones((2, 2)))
    assert lipschitz_ratio(p, [((0.3, 0.3), (0.3, 0.3))]) == 0.0
    with pytest.raises(InvalidInputError):
        lipschitz_ratio(p, [])


def test_lipschitz_bound_fails_on_unit_axes():
    # A far-corner spike on a (5, 1, 1) lattice pushes the ratio to
    # 1.19: the coarse bound needs n_q >= 2 on every axis.  Kept as a
    # regression witness for the documented domain restriction.
    field = np.zeros((5, 1, 1))
    field[4, 0, 0] = 1.0
    p = from_field(field)
    ratio = lipschitz_ratio(p, [((0.9, 0.9, 0.9), (1.0, 1.0, 1.0))])
    assert ratio == pytest.approx(1.19, abs=1e-12)
