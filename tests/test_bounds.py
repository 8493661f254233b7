import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc, gamma, gammaincc

from orthofield import (
    InsufficientDataError,
    InvalidInputError,
    InvalidRangeError,
    I_integral,
    NumericFailureError,
    base_constants,
    bounded_by,
    bounded_rhs,
    cond_wip_check,
    const_factor,
    exponent_fit,
    gaussian_product,
    iter_log,
    lemma3_moment_sum,
    lemma_svarying_partial_sum,
    log_power,
    recurse_constants,
    tail_eval,
    thm1_rhs,
    thm2_rhs,
    unit_tail,
    verify_values,
    weibull_envelope,
)
from orthofield import bounds, lattice
from orthofield.bounds import _level_v, _level_x, _shape_fn_min

E9 = math.exp(9.0)


# ------------------------------------------------------------- oracles


def brute_I(t, dprev, n=3000):
    """Midpoint 2-d Riemann sum in log coordinates for the planar
    integral, written independently of the production quadrature."""
    d = dprev + 1
    q = d / 2.0
    fmin_u = math.exp((2 * q - 1) / 2.0) * (2 * q) ** -q

    def f(v, qq):
        return v * (1.0 + 2.0 * np.log(v)) ** -qq

    v_hi = 2.0
    while f(v_hi, 0.5) < t / fmin_u:
        v_hi *= 2.0
    u_hi = 2.0
    while f(u_hi, q) < t:
        u_hi *= 2.0
    lv = np.linspace(0.0, math.log(v_hi), n + 1)
    lu = np.linspace(0.0, math.log(u_hi), n + 1)
    vmid = np.exp(0.5 * (lv[1:] + lv[:-1]))
    dv = np.diff(np.exp(lv))
    umid = np.exp(0.5 * (lu[1:] + lu[:-1]))
    du = np.diff(np.exp(lu))
    fv = f(vmid, 0.5)
    fu = f(umid, q)
    w_v = np.log1p(vmid) ** (2 * dprev) * (1.0 + 2.0 * np.log(vmid)) / vmid * dv
    w_u = fu**-2.0 * du
    mask = np.outer(fv, fu) < t
    return float((w_v[:, None] * w_u[None, :] * mask).sum())


def bisect_level_x(q, s, rising):
    """ln t with f_q(t) = s by bisection on one monotone branch of f_q;
    the rising bracket is found by doubling its upper end."""
    x_star = max(0.0, q - 0.5)
    if rising:
        x_lo, x_hi = x_star, x_star + 1.0
        while math.exp(x_hi) * (1.0 + 2.0 * x_hi) ** (-q) <= s:
            x_hi *= 2.0
    else:
        x_lo, x_hi = 0.0, x_star
    for _ in range(80):
        mid = 0.5 * (x_lo + x_hi)
        val = math.exp(mid) * (1.0 + 2.0 * mid) ** (-q)
        if (val < s) == rising:
            x_lo = mid
        else:
            x_hi = mid
    return 0.5 * (x_lo + x_hi)


def tight_I(t, dprev):
    """The planar integral by adaptive scalar quadrature in y = ln v,
    split where the u-section leaves u = 1, with epsrel 1e-12.  The
    inner mass uses bisected level sets and the incomplete gamma
    function: -2^d e^(1/2) Gamma(d+1, x + 1/2) is an antiderivative of
    (1+2x)^d e^-x."""
    d = dprev + 1
    q = d / 2.0
    fmin_u = math.exp(q - 0.5) * (2 * q) ** -q
    if t <= fmin_u:
        return 0.0
    norm = 2.0**d * math.exp(0.5) * math.gamma(d + 1)

    def integrand(y):
        s = t * math.sqrt(1.0 + 2.0 * y) * math.exp(-y)
        if s <= fmin_u:
            return 0.0
        x_lo = bisect_level_x(q, s, rising=False) if s < 1.0 else 0.0
        x_hi = bisect_level_x(q, s, rising=True)
        mass = norm * (gammaincc(d + 1, x_lo + 0.5) - gammaincc(d + 1, x_hi + 0.5))
        return math.log1p(math.exp(y)) ** (2 * dprev) * (1.0 + 2.0 * y) * mass

    y_kink = bisect_level_x(0.5, t, rising=True) if t > 1.0 else 0.0
    y_max = bisect_level_x(0.5, t / fmin_u, rising=True)
    total = 0.0
    for lo, hi in ((0.0, y_kink), (y_kink, y_max)):
        if hi > lo:
            val, err = quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)
            assert err <= 1e-11 * abs(val), (t, dprev, lo, hi, err)
            total += val
    return total


# ------------------------------------------------------------ level sets


@pytest.mark.parametrize("q", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
def test_level_x_closed_form_matches_bisection(q):
    f_min = _shape_fn_min(q)
    x_star = max(0.0, q - 0.5)
    near = f_min * (1.0 + np.geomspace(1e-15, 1e-6, 28, endpoint=False))
    far = np.geomspace(f_min * (1.0 + 1e-6), 1e9, 200)
    for s in np.concatenate([near, far]).tolist():
        # f_{1/2} has no falling branch on t >= 1, and the falling root
        # leaves t >= 1 once s > f_q(1) = 1
        for rising in (True, False) if q > 0.5 and s < 1.0 else (True,):
            x = _level_x(q, s, rising)
            assert math.isfinite(x), (s, rising)
            assert (x >= x_star) if rising else (x <= x_star), (s, rising, x)
            residual = x - q * math.log1p(2.0 * x) - math.log(s)
            assert abs(residual) <= 1e-13 * max(1.0, abs(math.log(s))), (s, rising, residual)
            want = bisect_level_x(q, s, rising)
            if s >= f_min * (1.0 + 1e-6):
                # relative in the root t = e^x
                assert math.exp(x) == pytest.approx(math.exp(want), rel=1e-12), (s, rising)
            else:
                # next to the minimum the root is conditioned like
                # sqrt(s - f_min); the bisection is no better
                assert abs(x - want) <= 1e-7, (s, rising)


# (a, rising root, falling root) of v - log1p(v) = a, to 30 digits:
# mpmath 1.3 findroot at 90 digits, each residual below 1e-80; pinned
# here because mpmath is not a dependency.  The a are decimal literals
# read as floats, and the roots are those of the float values.  Next to
# a = 5.0000125e-6 (p^2 = 2 (1 - e^-a) = 1e-5) _level_v switches from the
# branch-point series to Halley steps.
LEVEL_V_REFS = [
    ("1e-06", "1.41488030759236831039108909704e-3", "-1.41354697428866460580709792194e-3"),
    ("2e-06", "2.00133355549630366215068984002e-3", "-1.99866688894815550659822557185e-3"),
    ("3e-06", "2.45149015089815568490500237069e-3", "-2.44749015116482232607349419258e-3"),
    ("4e-06", "2.83109441971522265051242019376e-3", "-2.82576108685596333129458173984e-3"),
    ("4.5e-06", "3.0030007497000563308786439846e-3", "-2.99700075030005624501228887044e-3"),
    ("4.9e-06", "3.13376268700108950878676862256e-3", "-3.12722935437916347263419556813e-3"),
    ("4.99e-06", "3.16244134186065975483776140982e-3", "-3.15578800926510704582759880797e-3"),
    ("4.999e-06", "3.16529496103286167702895721705e-3", "-3.15862962843997270038174413617e-3"),
    ("4.9999e-06", "3.16558018191415558685795056771e-3", "-3.15891364932153324710809371387e-3"),
    ("5.0000125e-06", "3.16561583272310678967097076459e-3", "-3.15894915013051778375531459113e-3"),
    ("5.00002e-06", "3.16561820942947338179075287545e-3", "-3.15895151683688659740445872663e-3"),
    ("5.0001e-06", "3.16564356085337032597323900252e-3", "-3.15897676159414057934651950937e-3"),
    ("5.001e-06", "3.16592875042814106435235935235e-3", "-3.15926075116917801328963481636e-3"),
    ("5.01e-06", "3.16877923894411290703743288387e-3", "-3.16209923968781945500153088046e-3"),
    ("5.1e-06", "3.19714478904310675651895981896e-3", "-3.1903447898137732980127693931e-3"),
    ("5.5e-06", "3.32029246998714168513128967003e-3", "-3.31295913755010449178860543528e-3"),
    ("6e-06", "3.46810276930507524844295528085e-3", "-3.46010277037174171173214212634e-3"),
    ("8e-06", "4.00533511016320014963622117003e-3", "-3.9946684453928292981488359267e-3"),
    ("1e-05", "4.47880510470515431729395478035e-3", "-4.46547177433478300520814695975e-3"),
    ("3e-05", "7.7659795890324555217016303725e-3", "-7.72597961569909679040255009574e-3"),
    ("0.0001", "1.42088807098010143177221979877e-2", "-1.40755476727630366354558451081e-2"),
    ("0.0003", "2.4695304344842715809571419125e-2", "-2.42953070114839844160697733053e-2"),
    ("0.001", "4.53904959636925658651059814933e-2", "-4.40571922590480822121432920605e-2"),
    ("0.003", "7.9472444193077066086967094939e-2", "-7.54727108343342117456651698966e-2"),
    ("0.01", "1.48165122379394737483465923436e-1", "-1.34834751066834687201172833902e-1"),
    ("0.03", "2.65344104769489540239101693121e-1", "-2.25370745912636397911140385534e-1"),
    ("0.1", "5.16221161425022151607238399949e-1", "-3.83183168208294843693673465553e-1"),
    ("0.3", "9.862468559702338762632660132e-1", "-5.88886886135423655581675791348e-1"),
    ("0.5", "1.35767667394589905840458687704", "-6.98290437315663988465076766686e-1"),
    ("0.9", "1.99791807163282326403785147653", "-8.21137407479876780390947497072e-1"),
    ("0.99", "2.13151781049573105879817035335", "-8.39507391704167328206012430885e-1"),
    ("1.0", "2.14619322062058258523706102852", "-8.41405660436960637846604658012e-1"),
    ("1.01", "2.1608368039047402899452923172", "-8.43277304215696939316561623575e-1"),
    ("1.1", "2.29127503978610461632787802093", "-8.59000756932256907067340302995e-1"),
    ("1.5", "2.84739675103134039629578594096", "-9.10202929776183768551794862985e-1"),
    ("2.0", "3.50524149579288336699862443214", "-9.47530902542285127590126388714e-1"),
    ("3.0", "4.74903138601270155099097984403", "-9.8133937091131665754166472115e-1"),
    ("5.0", "7.09071740515548459615806517541", "-9.97515080664850547007503921475e-1"),
    ("10.0", "1.2610868638149875938404438134e+1", "-9.99983298020255956517073599963e-1"),
    ("20.0", "2.31857642040408054818753088686e+1", "-9.99999999241743956633857100123e-1"),
    ("50.0", "5.40074689755683338287294799537e+1", "-9.99999999999999999999929045258e-1"),
    ("100.0", "1.04660228554849957033966849862e+2", "-1.0"),
]


def x_ref(q, v):
    """x = q - 1/2 + q v, as _level_x assembles it, in 40-digit decimals."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        return Decimal(q) - Decimal("0.5") + Decimal(q) * Decimal(v)


@pytest.mark.parametrize("q,rising", [(0.5, True)] + [(q, r) for q in (1.0, 1.5, 2.0, 2.5, 3.0)
                                                      for r in (True, False)])
def test_level_v_matches_pinned_roots(q, rising):
    a = np.array([float(row[0]) for row in LEVEL_V_REFS])
    want = [x_ref(q, row[1] if rising else row[2]) for row in LEVEL_V_REFS]
    v_array = _level_v(a.reshape(6, 7), rising)
    assert v_array.shape == (6, 7)
    v_scalar = [_level_v(ai, rising) for ai in a.tolist()]
    assert all(type(v) is float for v in v_scalar)
    for got in (v_array.ravel().tolist(), v_scalar):
        for ai, v, x in zip(a.tolist(), got, want):
            # relative in x, and where |x| < 1 relative in t = e^x, which
            # is how the quadrature uses the root: at q = 1/2, x = v / 2
            # goes to 0 at the branch point, and the falling root's x
            # crosses 0, where no float solver is relative in x
            err = abs(Decimal(q - 0.5 + q * v) - x)
            assert err <= Decimal(1e-14) * max(1, abs(x)), (ai, v, x, err)


# -------------------------------------------------------- planar integral


@pytest.mark.parametrize(
    "dprev,t",
    [(1, 1.0), (1, 2.0), (1, 5.0), (2, 1.5), (2, 4.0)],
)
def test_I_integral_matches_riemann_oracle(dprev, t):
    assert I_integral(t, dprev) == pytest.approx(brute_I(t, dprev), rel=2e-3)


@pytest.mark.parametrize(
    "t,dprev",
    [(0.9, 1), (1.0, 1), (5.0, 2), (1.7782794100389227e7, 3), (1e3, 4), (3.0, 5), (1e8, 5)],
)
def test_I_integral_matches_tight_oracle(t, dprev):
    # (1.78e7, 3) is a grid point of K_4 where a single adaptive quad in v
    # passed its own error check 4.8e-5 away from the oracle
    assert I_integral(t, dprev) == pytest.approx(tight_I(t, dprev), rel=1e-9)


def test_I_integral_array_matches_scalar_calls():
    ts = np.logspace(-0.5, 8.0, 35)
    for dprev in (1, 3, 5):
        batch = I_integral(ts, dprev)
        assert batch.shape == ts.shape
        for t, got in zip(ts.tolist(), batch.tolist()):
            assert I_integral(t, dprev) == got, (t, dprev)
    assert I_integral(ts.reshape(5, 7), 2).shape == (5, 7)
    with pytest.raises(InvalidRangeError):
        I_integral(np.array([1.0, 0.0, 2.0]), 2)
    with pytest.raises(InvalidRangeError):
        I_integral(np.array([3.0, -1.0]), 1)


def _rows_of(monkeypatch, name) -> list:
    """Wrap bounds.<name> to record the rows of its first argument, one
    entry per call."""
    rows, fn = [], getattr(bounds, name)
    monkeypatch.setattr(bounds, name, lambda x, *args: rows.append(len(x)) or fn(x, *args))
    return rows


def test_I_integral_in_row_chunks_gives_equal_bits(monkeypatch):
    # a budget of 3 rows of the 2n = 128-node rule cuts 50 t into chunks
    ts = np.logspace(-0.5, 8.0, 50)
    whole = I_integral(ts, 2)
    rows = _rows_of(monkeypatch, "_I_rule")
    monkeypatch.setattr(lattice, "_BLOCK_CELLS", 3 * 128)
    chunked = I_integral(ts, 2)
    assert max(rows) == 6 and sum(rows) == 2 * len(ts)
    assert chunked.tobytes() == whole.tobytes()


def test_constants_grid_is_one_chunk(monkeypatch):
    rows = _rows_of(monkeypatch, "_I_rule")
    bounds._level_K(2)
    assert rows == [161, 161]


def test_gaussian_product_tail_in_row_chunks_gives_equal_bits(monkeypatch):
    # m = 3 convolves to 2401 grid points at h, 1201 at 2h: a budget of
    # 5 rows of 2401 cuts 120 values into chunks of 5 and of 9
    s = np.linspace(0.05, 30.0, 120).reshape(4, 30)
    whole = tail_eval(gaussian_product(3), s)
    rows = _rows_of(monkeypatch, "erfc")
    monkeypatch.setattr(lattice, "_BLOCK_CELLS", 5 * 2401)
    chunked = tail_eval(gaussian_product(3), s)
    assert max(rows) == 9 and sum(rows) == 2 * s.size
    assert chunked.shape == s.shape and chunked.tobytes() == whole.tobytes()


def test_gaussian_product_bound_stays_within_the_block_budget(peak_bytes):
    # each (128, 18001) erfc panel of m = 16 was 18 MB unchunked
    consts = recurse_constants(2)
    assert peak_bytes(lambda: thm1_rhs([1.0], 16.0, gaussian_product(16), consts)) <= 8 << 20


def test_I_integral_on_a_long_grid_stays_within_the_block_budget(peak_bytes):
    # 10 001 t at once took 116 MB unchunked
    ts = np.logspace(0.0, 8.0, 10001)
    assert peak_bytes(lambda: I_integral(ts, 1)) <= 16 << 20


@pytest.mark.parametrize("n", [2, 3, 64, 128])
def test_gauss_legendre_rule_is_exact_to_degree_2n_minus_1(n):
    nodes, weights = bounds._gauss_legendre01(n)
    assert np.all((nodes > 0.0) & (nodes < 1.0)) and np.all(weights > 0.0)
    for k in (0, 1, 2 * n - 2, 2 * n - 1):
        assert weights @ nodes**k == pytest.approx(1.0 / (k + 1), rel=1e-13), k


def test_I_integral_unconverged_rule_is_reported(monkeypatch):
    # with 2 and 4 nodes the two rules disagree far beyond the tolerance;
    # t = 0.2 lies below min f_2, where I vanishes under any rule
    monkeypatch.setattr(bounds, "_GL_NODES", 2)
    with pytest.raises(NumericFailureError) as info:
        I_integral(np.array([0.2, 1.0e3]), 3)
    message = str(info.value)
    assert "t=1000" in message and "d=4" in message
    estimate = float(message.split("error estimate ")[1].rstrip(")"))
    assert estimate > 1e-6 * tight_I(1.0e3, 3)


def test_I_integral_zero_below_threshold():
    # The integrand's region is empty once t cannot exceed the product
    # of the two curve minima.
    assert I_integral(0.8, 1) == 0.0
    assert I_integral(0.5, 2) == 0.0


def test_I_integral_range_errors():
    with pytest.raises(InvalidRangeError):
        I_integral(1.0, 0)
    with pytest.raises(InvalidRangeError):
        I_integral(1.0, 6)
    with pytest.raises(InvalidRangeError):
        I_integral(0.0, 1)


# ------------------------------------------------------------- constants


def test_base_constants_pinned():
    c = base_constants()
    assert (c.d, c.A, c.B, c.p) == (1, 2.0, 4.0, 2)
    assert c.C == 1.0 / (2.0 * math.sqrt(2.0))


def test_constants_dyadic_C_exact():
    assert recurse_constants(2).C == 1.0 / 16.0
    for d in (3, 4, 5, 6):
        lo = recurse_constants(d)
        hi = recurse_constants(d - 1)
        assert hi.C / lo.C == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-12)


def test_constants_p_doubles_dimension():
    for d in range(1, 7):
        assert recurse_constants(d).p == 2 * d


def test_constants_A_floor_and_escape():
    assert recurse_constants(2).A == E9
    assert recurse_constants(3).A == E9
    # From level 4 on the 2 B_{d-1} term dwarfs the floor.
    assert recurse_constants(4).A > E9
    a4 = recurse_constants(4).A
    c3 = recurse_constants(3)
    assert a4 == pytest.approx(c3.A / 5.0 + 2.0 * c3.B, rel=1e-12)


def test_constants_B_recursion_consistent():
    for d in range(3, 7):
        lo = recurse_constants(d - 1)
        hi = recurse_constants(d)
        row = dict((lvl, (K, M)) for lvl, K, M, _, _ in hi.K_levels)
        K, M = row[d]
        assert hi.B == pytest.approx(4.0 * lo.B * K * M, rel=1e-12)


def test_constants_sliver_majorant_closed_form():
    # M_d = (min f_{d/2})^-2 with minimizer e^((d-1)/2) d^(-d/2).
    rows = dict((lvl, M) for lvl, K, M, _, _ in recurse_constants(6).K_levels)
    for d in range(2, 7):
        want = (math.exp((d - 1) / 2.0) * d ** (-d / 2.0)) ** -2.0
        assert rows[d] == want


def test_constants_grid_sup_stabilized():
    for lvl, K, M, t_at, drift in recurse_constants(6).K_levels:
        assert K > 0 and M > 1.0
        assert t_at >= 1.0
        assert drift <= 0.01


_h = float.fromhex
# the d = 2 constants table (tests/test_generation_bits.py checks it at
# numpy's lower SIMD levels too)
D2_CONSTANTS = {
    "d": 2,
    "A": _h("0x1.fa7157c470f82p+12"),
    "B": _h("0x1.03af8737e8f9dp+9"),
    "C": _h("0x1.0000000000000p-4"),
    "p": 4,
    "K_levels": [[2, _h("0x1.60f30bf690c4ep+4"), _h("0x1.78b56362cef37p+0"),
                  _h("0x1.68c0c59ab1564p+1"), 0.0]],
}


def test_constants_d2_bits_are_pinned():
    # every verify-bound payload at d = 2 embeds this table, so a change
    # to the level sets or the I(t) rule that moves a bit here moves them
    assert recurse_constants(2).to_dict() == D2_CONSTANTS


def test_constants_cached_and_range_checked():
    assert recurse_constants(3) is recurse_constants(3)
    with pytest.raises(InvalidRangeError):
        recurse_constants(0)
    with pytest.raises(InvalidRangeError):
        recurse_constants(7)


# ------------------------------------------------------------ tail models


def test_bounded_tail():
    model = bounded_by(1.0)
    assert tail_eval(model, 0.5) == 1.0
    assert tail_eval(model, 1.0) == 0.0
    assert np.array_equal(tail_eval(model, np.array([0.0, 0.999, 2.0])), [1.0, 1.0, 0.0])
    with pytest.raises(InvalidRangeError):
        bounded_by(0.0)


def test_weibull_tail():
    model = weibull_envelope(1.0)
    assert tail_eval(model, 0.0) == 1.0
    assert tail_eval(model, 2.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-15)
    assert tail_eval(weibull_envelope(2.0), 3.0) == pytest.approx(
        2.0 * math.exp(-9.0), rel=1e-15
    )
    with pytest.raises(InvalidRangeError):
        weibull_envelope(-1.0)


def test_unit_tail_is_one_everywhere():
    model = unit_tail()
    assert tail_eval(model, 1e9) == 1.0


def test_gaussian_product_single_factor_is_erfc():
    model = gaussian_product(1)
    for s in (0.1, 1.0, 2.5):
        assert tail_eval(model, s) == pytest.approx(erfc(s / math.sqrt(2.0)), rel=1e-10)
    with pytest.raises(InvalidRangeError):
        gaussian_product(0)
    with pytest.raises(InvalidRangeError):
        gaussian_product(17)


# P{|X_1...X_m| > s} = pi^(-m/2) G^{m+1,0}_{1,m+1}(s^2 / 2^m | 1; 1/2 ... 1/2, 0)
# (Springer and Thompson, 1970), by mpmath's meijerg at 30 digits; at
# m = 1 the identity gives erfc(s / sqrt 2)
MEIJER_G_TAILS = {
    2: {0.1: 0.78217134970251825, 1.0: 0.20899366300465233, 3.0: 0.019638597443093781,
        10.0: 1.0832199329417658e-5, 30.0: 1.3361641560279399e-14},
    3: {0.5: 0.2860650984995828, 3.0: 0.023136165170346197, 30.0: 1.4436041240839464e-7,
        300.0: 8.7032697277007934e-31},
    4: {0.5: 0.20543569991946963, 3.0: 0.021040603495099306, 30.0: 7.6878747266025586e-6,
        300.0: 2.3724550458518854e-16},
    6: {0.5: 0.11123176113028696, 3.0: 0.014313642832846783, 30.0: 7.7857049181228213e-5,
        300.0: 1.2332880401039868e-9},
}


@pytest.mark.parametrize("m", sorted(MEIJER_G_TAILS))
def test_gaussian_product_tail_pinned_to_meijer_g(m):
    model = gaussian_product(m)
    s = np.array(sorted(MEIJER_G_TAILS[m]))
    want = np.array([MEIJER_G_TAILS[m][v] for v in s])
    np.testing.assert_allclose(tail_eval(model, s), want, rtol=1e-8, atol=0.0)
    for v, p in zip(s, want):
        assert tail_eval(model, v) == pytest.approx(p, rel=1e-8)


def test_gaussian_product_two_factors_against_monte_carlo():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((200000, 2))
    prods = np.abs(z[:, 0] * z[:, 1])
    model = gaussian_product(2)
    for s in (0.5, 1.5):
        p_mc = float(np.mean(prods > s))
        se = math.sqrt(p_mc * (1 - p_mc) / len(prods))
        assert abs(tail_eval(model, s) - p_mc) < 5 * se


# -------------------------------------------------------- bound evaluators


def test_thm1_rhs_pinned_value():
    # d=2, x/y = 4: exponential term e^9 e^-4 = e^5; with |X| <= 1 and
    # y C = 1 the tail integral over u >= 1 is empty.
    consts = recurse_constants(2)
    out = thm1_rhs(64.0, 16.0, bounded_by(1.0), consts)
    assert out.integral_term == 0.0
    assert out.value == pytest.approx(math.exp(5.0), rel=1e-12)
    assert out.vacuous


def test_thm1_rhs_unconverged_tail_integral_is_reported(monkeypatch):
    # with 2 and 4 nodes the two rules disagree far beyond the tolerance
    consts = recurse_constants(2)
    tight = thm1_rhs(64.0, 16.0, weibull_envelope(1.0), consts).integral_term / consts.B
    monkeypatch.setattr(bounds, "_GL_NODES", 2)
    with pytest.raises(NumericFailureError) as info:
        thm1_rhs(64.0, 16.0, weibull_envelope(1.0), consts)
    message = str(info.value)
    assert "scale=1" in message and "p=4" in message
    estimate = float(message.split("error estimate ")[1].rstrip(")"))
    assert estimate > 1e-6 * tight


def test_thm1_rhs_overflowing_tail_integral_is_reported():
    # at y = 16 in d = 2 the Weibull tail integral for gamma = 0.01 lies
    # beyond e^850 (its integrand in x = ln u peaks at 2x - e^(x/100) =
    # 859.7), and at gamma = 0.0121 the integral is finite (about e^706.6)
    # but B (about e^6.25) times it is not; gammas 0.02 and 0.05 keep
    # finite, vacuous values
    consts = recurse_constants(2)
    for gamma, term in [(0.01, "tail integral"), (0.0121, "integral term")]:
        with pytest.raises(InvalidRangeError) as info:
            thm1_rhs(4.0, 16.0, weibull_envelope(gamma), consts)
        message = str(info.value)
        assert message.startswith(term) and "exceeds the float range" in message, message
        assert "scale=1" in message and "p=4" in message
    for gamma in (0.02, 0.05):
        out = thm1_rhs(4.0, 16.0, weibull_envelope(gamma), consts)
        assert out.vacuous and math.isfinite(out.value)


def test_thm1_rhs_takes_a_grid_of_x():
    consts = recurse_constants(2)
    grid = thm1_rhs([2.0, 64.0], 16.0, weibull_envelope(1.0), consts)
    assert grid == [thm1_rhs(x, 16.0, weibull_envelope(1.0), consts) for x in (2.0, 64.0)]
    with pytest.raises(InvalidRangeError):
        thm1_rhs([1.0, 0.0], 16.0, bounded_by(1.0), consts)


def _weibull_support(gamma):
    # a tail of e^-200: beyond it the heaviest weight checked here,
    # u (log(1+u))^12 at u up to e^22, leaves the integrand below e^-140
    return (math.log(2.0) + 200.0) ** (1.0 / gamma)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_tail_integral_against_adaptive_quad(d):
    # oracle: adaptive quad in u at epsrel 1e-12 out to a negligible
    # tail, told where the Weibull tail leaves min(1, .)
    consts = recurse_constants(d)
    p = consts.p
    cases = [(bounded_by(1.0), 1.0, None), (bounded_by(3.0), 3.0, None)]
    cases += [(weibull_envelope(g), _weibull_support(g), math.log(2.0) ** (1.0 / g))
              for g in (0.5, 1.0, 2.0)]
    checked = 0
    for model, s_max, s_kink in cases:
        for y in (0.25, 1.0, 4.0, 16.0, 100.0, 1000.0):
            scale = y * consts.C
            got = bounds._tail_integral(model, scale, lambda u: np.log1p(u) ** p, "p=%d" % p)
            if s_max / scale <= 1.0:
                assert got == 0.0
                continue
            points = [s_kink / scale] if s_kink and 1.0 < s_kink / scale < s_max / scale else None
            want, _ = quad(lambda u: float(tail_eval(model, scale * u)) * u * math.log1p(u) ** p,
                           1.0, s_max / scale, points=points, epsabs=0.0, epsrel=1e-12,
                           limit=400)
            assert got == pytest.approx(want, rel=1e-10), (model, y)
            checked += 1
    assert checked >= 20


def test_gaussian_product_tail_integral_reaches_its_negligible_point(monkeypatch):
    # m = 16 and p = 12: the weight u^2 (log(1+u))^12 keeps the integrand
    # large well past the point where the tail alone is negligible, so
    # tripling ln u_max must leave the value where it is
    model, p = gaussian_product(16), 12
    got = bounds._tail_integral(model, 1.0, lambda u: np.log1p(u) ** p, "p=%d" % p)
    knots = bounds._tail_log_knots

    def tripled(*args):
        out = knots(*args)
        return out[:-1] + [3.0 * out[-1]]

    monkeypatch.setattr(bounds, "_tail_log_knots", tripled)
    longer = bounds._tail_integral(model, 1.0, lambda u: np.log1p(u) ** p, "p=%d" % p)
    assert got == pytest.approx(longer, rel=1e-9, abs=0.0)


def test_thm1_rhs_tail_term_positive_for_heavy_model():
    consts = recurse_constants(2)
    out = thm1_rhs(64.0, 16.0, weibull_envelope(1.0), consts)
    assert out.integral_term > 0.0
    assert out.value == pytest.approx(out.exp_term + out.integral_term)
    with pytest.raises(InvalidRangeError):
        thm1_rhs(0.0, 1.0, bounded_by(1.0), consts)


def test_bounded_rhs_threshold_and_values():
    consts = recurse_constants(2)
    # threshold 3^(d/2) K / C = 3 * 16 = 48 at K = 1
    below = bounded_rhs(47.0, 1.0, consts)
    assert below.value == 1.0 and below.vacuous
    at = bounded_rhs(48.0, 1.0, consts)
    assert at.value == pytest.approx(math.exp(6.0), rel=1e-12)
    informative = bounded_rhs(160.0, 1.0, consts)
    assert informative.value == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert not informative.vacuous
    with pytest.raises(InvalidRangeError):
        bounded_rhs(10.0, -1.0, consts)


def test_thm2_rhs_exponent_identity():
    # (x_equiv / y*)^(2/d) collapses to N^(g/(2+dg)) x^(2g/(2+dg)) only
    # when gamma = 2/d; in general the optimizer's exponent is that
    # expression by construction.
    gamma, d = 1.0, 2
    shape = (32, 32)
    n_cells = 32 * 32
    for x in (0.25, 0.5, 1.0):
        out = thm2_rhs(x, shape, gamma)
        want_ratio = n_cells ** (gamma / (2.0 + d * gamma)) * x ** (
            2.0 * gamma / (2.0 + d * gamma)
        )
        got_ratio = (out.x_equiv / out.y_star) ** (2.0 / d)
        assert got_ratio == pytest.approx(want_ratio, rel=1e-12)
        assert out.exp_term == pytest.approx(
            recurse_constants(d).A * math.exp(-want_ratio), rel=1e-12
        )


def test_thm2_rhs_input_validation():
    with pytest.raises(InvalidRangeError):
        thm2_rhs(0.0, (4, 4), 1.0)
    with pytest.raises(InvalidRangeError):
        thm2_rhs(1.0, (4, 4), 0.0)
    # the dimension is the shape's, and the constants exist for d <= 6 only
    with pytest.raises(InvalidRangeError):
        thm2_rhs(1.0, (2,) * 7, 1.0)


def test_verify_values_names_each_kind_statistic_and_scale():
    # the bounded and two-term kinds bound max |S_k| at x sqrt(|n|), the
    # large-deviation kind |S_n| at x |n|; each x gets its evaluator's value
    x_grid, consts = (2.0, 64.0), recurse_constants(2)
    weibull = {"kind": "weibull", "gamma": 1.0}
    cases = [
        ({"kind": "bounded", "K": 1.0}, "max", 8.0,
         [bounded_rhs(x, 1.0, consts) for x in x_grid]),
        ({"kind": "two-term", "y": 16.0, "tail": weibull}, "max", 8.0,
         thm1_rhs(x_grid, 16.0, weibull_envelope(1.0), consts)),
        ({"kind": "large-deviation", "gamma": 1.0}, "total", 64,
         [thm2_rhs(x, (8, 8), 1.0) for x in x_grid]),
    ]
    for bound, stat, scale, values in cases:
        assert verify_values(bound, (8, 8), x_grid) == (stat, scale, consts, values)
        # thm2_rhs alone sets the optimizing y and the equivalent deviation
        assert all((v.y_star is None) == (stat == "max") for v in values)
        assert all((v.x_equiv is None) == (stat == "max") for v in values)


@pytest.mark.parametrize("bound,d,error,message", [
    ({"kind": "nope", "K": 1.0}, 2, InvalidInputError, "unknown bound kind 'nope'"),
    ({"kind": "two-term", "y": 16.0}, 2, InvalidInputError, "bound 'two-term' needs 'tail'"),
    ({"kind": "bounded", "K": 1.0, "y": 2.0}, 2, InvalidInputError,
     "bound 'bounded' does not read 'y'"),
    ({"kind": "bounded", "K": -1.0}, 2, InvalidRangeError, "bound K must be in (0, inf], not -1.0"),
    ({"kind": "two-term", "y": 16.0, "tail": {"kind": "unit"}}, 2, InvalidInputError,
     "tail model 'unit' has no integrable support"),
    ({"kind": "large-deviation", "gamma": "1"}, 2, InvalidInputError,
     "bound gamma must be a finite number, not '1'"),
    ([1, 2], 2, InvalidInputError, "bound must be a JSON object, not [1, 2]"),
    ({"kind": "bounded", "K": 1.0}, 7, InvalidRangeError,
     "constants dimension d must be in [1, 6], not 7"),
], ids=["unknown-kind", "missing-key", "extra-key", "K-negative", "unit-tail", "gamma-string",
        "not-an-object", "d-7"])
def test_verify_values_rejects_malformed_bounds(bound, d, error, message):
    with pytest.raises(error) as info:
        verify_values(bound, (2,) * d, (1.0, 2.0))
    assert str(info.value) == message


# -------------------------------------------------- summability diagnostics


def test_cond_wip_converges_for_growing_factor():
    out = cond_wip_check(log_power(2.0), weibull_envelope(1.0), 1.0, 60)
    assert out["converged"]
    assert out["total"] == pytest.approx(out["partial_sums"][-1])


def test_cond_wip_diverges_for_constant_factor():
    out = cond_wip_check(const_factor(1.0), weibull_envelope(1.0), 1.0, 40)
    assert not out["converged"]
    with pytest.raises(InvalidRangeError):
        cond_wip_check(const_factor(1.0), weibull_envelope(1.0), 0.0, 10)


def test_svarying_partial_sum_closed_form():
    # With L = 1 the ratio is exactly 2 - 2^(1-k).
    out = lemma_svarying_partial_sum(const_factor(1.0), 20)
    for k, r in enumerate(out["ratios"], start=1):
        assert r == 2.0 - 2.0 ** (1 - k)
    assert out["C_L"] == out["ratios"][-1]
    with pytest.raises(InvalidRangeError):
        lemma_svarying_partial_sum(const_factor(1.0), 0)


def test_lemma3_moment_sum_converges_and_diverges():
    good = lemma3_moment_sum(log_power(3.0), weibull_envelope(1.0), 1.0, 30)
    assert good["converged"] and math.isfinite(good["total"])
    bad = lemma3_moment_sum(const_factor(1.0), unit_tail(), 1.0, 10)
    assert bad["diverged_levels"] and bad["total"] == math.inf
    assert not bad["converged"]


@pytest.mark.parametrize("g", [0.05, 0.1, 0.15, 0.2])
def test_lemma3_term_matches_the_weibull_closed_form(g):
    # int_1^inf 2 e^(-u^g) u^2 du = (2/g) Gamma(3/g) Q(3/g, 1), with u^g = t;
    # the integrand peaks near u = (3/g)^(1/g), far beyond the point where
    # the tail alone is negligible
    want = 2.0 / g * gamma(3.0 / g) * gammaincc(3.0 / g, 1.0)
    out = lemma3_moment_sum(const_factor(1.0), weibull_envelope(g), 1.0, 2)
    assert out["diverged_levels"] == [] and not out["converged"]
    assert out["terms"] == [pytest.approx(2.0 ** j * want, rel=1e-7, abs=0.0) for j in (1, 2)]


def test_lemma3_bounded_tail_terms_are_finite():
    # |X| <= K: the term is 2^j int_1^U u^2 du = 2^j (U^3 - 1) / 3, U = K / (L c)
    big = 1e7
    out = lemma3_moment_sum(const_factor(1.0), bounded_by(big), 1.0, 5)
    want = [2.0**j * (big**3 - 1.0) / 3.0 for j in range(1, 6)]
    assert out["diverged_levels"] == []
    assert out["terms"] == [pytest.approx(w, rel=1e-12) for w in want]
    assert out["total"] == pytest.approx(sum(want), rel=1e-12)
    # L(2^j) = j ln 2 grows past K = 3 from j = 5 on, where the terms vanish
    out = lemma3_moment_sum(log_power(1.0), bounded_by(3.0), 1.0, 20)
    assert out["terms"][4:] == [0.0] * 16 and out["converged"]


def test_summability_levels_stay_in_the_float_range():
    # 2^j and the sum of 2^1 .. 2^j stay finite up to level 1022
    wip = cond_wip_check(const_factor(1.0), unit_tail(), 1.0, 1022)
    assert math.isfinite(wip["total"]) and not wip["converged"]
    ratios = lemma_svarying_partial_sum(const_factor(1.0), 1022)
    assert math.isfinite(ratios["C_L"])
    for check in (lambda j: cond_wip_check(const_factor(1.0), unit_tail(), 1.0, j),
                  lambda j: lemma_svarying_partial_sum(const_factor(1.0), j),
                  lambda j: lemma3_moment_sum(const_factor(1.0), unit_tail(), 1.0, j)):
        with pytest.raises(InvalidRangeError):
            check(1023)


def test_lemma3_unconverged_moment_term_is_reported(monkeypatch):
    # the Lemma 3 terms go through the tail integral of thm1_rhs, which
    # refuses a rule whose error estimate exceeds its tolerance
    tight = lemma3_moment_sum(log_power(3.0), weibull_envelope(1.0), 1.0, 30)["terms"][0] / 2.0
    monkeypatch.setattr(bounds, "_GL_NODES", 2)
    with pytest.raises(NumericFailureError) as info:
        lemma3_moment_sum(log_power(3.0), weibull_envelope(1.0), 1.0, 30)
    message = str(info.value)
    assert "j=1" in message
    estimate = float(message.split("error estimate ")[1].rstrip(")"))
    assert estimate > 1e-6 * tight


# ---------------------------------------------------------- exponent fit


def test_exponent_fit_recovers_exact_tail():
    # Deterministic quantile sample of P{|Y| > x} = exp(-x^g): the
    # log-log regression recovers g with no stochastic error.
    n = 200000
    u = (np.arange(1, n + 1) - 0.5) / n
    for gamma in (1.0, 1.5, 2.0):
        samples = (-np.log(1.0 - u)) ** (1.0 / gamma)
        fit = exponent_fit(samples, window=(0.90, 0.999))
        assert fit.gamma_hat == pytest.approx(gamma, abs=0.02)


def test_exponent_fit_window_and_data_errors():
    rng = np.random.default_rng(1)
    samples = rng.standard_normal(5000)
    with pytest.raises(InvalidRangeError):
        exponent_fit(samples, window=(0.4, 0.9))
    with pytest.raises(InvalidRangeError):
        exponent_fit(samples, window=(0.99, 0.9))
    with pytest.raises(InsufficientDataError):
        exponent_fit(samples[:100])
    with pytest.raises(InsufficientDataError):
        exponent_fit(np.ones(5000))
    with pytest.raises(InvalidRangeError):
        exponent_fit(samples, grid_points=2)
