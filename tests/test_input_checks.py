"""Every constructor and evaluator of the bound, modulus and grid layers
checks its own scalar arguments, once, with errors.check_number: bad
values end in InvalidInputError or InvalidRangeError before any array
is built, and the JSON parsers build exactly what the constructors do."""

import math

import numpy as np
import pytest

from orthofield import (
    InvalidInputError,
    InvalidRangeError,
    I_integral,
    OrthofieldError,
    TooLargeError,
    bounded_by,
    bounded_rhs,
    cond_wip_check,
    const_factor,
    exponent_fit,
    gaussian_product,
    grid_seq_norms,
    iter_log,
    lemma3_moment_sum,
    lemma_svarying_partial_sum,
    log_power,
    modulus,
    modulus_eval,
    modulus_from_dict,
    recurse_constants,
    thm1_rhs,
    thm2_rhs,
    unit_tail,
    weibull_envelope,
)
from orthofield.bounds import tail_from_dict
from orthofield.holder import svarying_from_dict
from orthofield.lattice import batch_prefix, padded_prefix
from orthofield.sumprocess import eval_W_grid

E9 = math.exp(9.0)
CONSTS = recurse_constants(2)
SAMPLES = np.random.default_rng(1).standard_normal(2000)
PADDED = padded_prefix(batch_prefix(np.ones((2, 4, 4))), lead=1)
RHO = modulus(E9, 2, iter_log())
L1, WEIBULL = const_factor(1.0), weibull_envelope(1.0)

# each scalar argument: its routine as a call of the argument alone,
# whether it is a count, and values outside its range
ARGUMENTS = {
    "bounded_by k": (bounded_by, False, [0.0, -1.0]),
    "weibull_envelope gamma": (weibull_envelope, False, [0.0, -1.0]),
    "gaussian_product m": (gaussian_product, True, [0, 17]),
    "log_power beta": (log_power, False, [-1.0]),
    "const_factor c0": (const_factor, False, [0.0]),
    "modulus c": (lambda v: modulus(v, 2, L1), False, [1.0, 0.5]),
    "modulus d": (lambda v: modulus(E9, v, L1), True, [0]),
    "bounded_rhs x": (lambda v: bounded_rhs(v, 1.0, CONSTS), False, [0.0]),
    "bounded_rhs k": (lambda v: bounded_rhs(160.0, v, CONSTS), False, [0.0]),
    "thm1_rhs x": (lambda v: thm1_rhs(v, 16.0, WEIBULL, CONSTS), False, [0.0]),
    "thm1_rhs x grid": (lambda v: thm1_rhs([2.0, v], 16.0, WEIBULL, CONSTS), False, [0.0]),
    "thm1_rhs y": (lambda v: thm1_rhs(2.0, v, WEIBULL, CONSTS), False, [0.0]),
    "thm2_rhs x": (lambda v: thm2_rhs(v, (8, 8), 1.0), False, [0.0]),
    "thm2_rhs gamma": (lambda v: thm2_rhs(1.0, (8, 8), v), False, [0.0]),
    "thm2_rhs shape": (lambda v: thm2_rhs(1.0, (8, v), 1.0), True, [0]),
    "recurse_constants d": (recurse_constants, True, [0, 7]),
    "I_integral t": (lambda v: I_integral(v, 1), False, [0.0]),
    "I_integral dprev": (lambda v: I_integral(2.0, v), True, [0, 6]),
    "cond_wip_check a": (lambda v: cond_wip_check(L1, WEIBULL, v, 10), False, [0.0]),
    "cond_wip_check j_max": (lambda v: cond_wip_check(L1, WEIBULL, 1.0, v), True, [0, 1023]),
    "lemma_svarying_partial_sum k_max": (lambda v: lemma_svarying_partial_sum(L1, v), True,
                                         [0, 1023]),
    "lemma3_moment_sum c": (lambda v: lemma3_moment_sum(L1, WEIBULL, v, 10), False, [0.0]),
    "lemma3_moment_sum j_max": (lambda v: lemma3_moment_sum(L1, WEIBULL, 1.0, v), True,
                                [0, 1023]),
    "exponent_fit window": (lambda v: exponent_fit(SAMPLES, window=(v, 0.999)), False, [0.4]),
    "exponent_fit grid_points": (lambda v: exponent_fit(SAMPLES, grid_points=v), True,
                                 [3]),
    "eval_W_grid J": (lambda v: eval_W_grid(PADDED, v), True, [-1, 63]),
    "grid_seq_norms j_max": (lambda v: grid_seq_norms(PADDED, RHO, v), True, [-1, 41]),
    "slowly varying factor t": (iter_log(), False, [0.5]),
    "modulus_eval h": (lambda v: modulus_eval(RHO, v), False, [0.0, 1.5]),
}
BAD = [math.nan, math.inf, -math.inf, True, "1"]


@pytest.mark.parametrize("value, name", [
    (value, name) for name, (_, count, out_of_range) in ARGUMENTS.items()
    for value in BAD + out_of_range + ([2.5] if count else [])], ids=repr)
def test_bad_scalar_is_rejected_before_any_array(name, value, peak_bytes):
    call = ARGUMENTS[name][0]

    def attempt():
        with pytest.raises((InvalidInputError, InvalidRangeError)):
            call(value)

    # a block array alone holds 1 MiB
    assert peak_bytes(attempt) < 64 << 10


# one JSON object of every kind, with the object its constructor builds:
# the catalogue of spec kinds the parsers read
TAILS = [({"kind": "bounded", "K": 2.0}, bounded_by(2.0)),
         ({"kind": "weibull", "gamma": 0.5}, weibull_envelope(0.5)),
         ({"kind": "gaussian_product", "m": 3}, gaussian_product(3)),
         ({"kind": "unit"}, unit_tail())]
FACTORS = [({"kind": "log_power", "beta": 2.0}, log_power(2.0)),
           ({"kind": "log_power"}, log_power(1.0)),
           ({"kind": "iter_log"}, iter_log()),
           ({"kind": "const", "c0": 3.0}, const_factor(3.0)),
           ({"kind": "const"}, const_factor(1.0))]
MODULI = [({"c": E9}, 2, modulus(E9, 2, const_factor(1.0))),
          ({"c": E9, "L": {"kind": "log_power", "beta": 0.5}}, 1, modulus(E9, 1, log_power(0.5)))]


@pytest.mark.parametrize("data, want", TAILS, ids=lambda v: repr(v)[:40])
def test_tail_from_dict_builds_what_its_constructor_does(data, want):
    assert tail_from_dict(data) == want


@pytest.mark.parametrize("data, want", FACTORS, ids=lambda v: repr(v)[:40])
def test_svarying_from_dict_builds_what_its_constructor_does(data, want):
    assert svarying_from_dict(data) == want


@pytest.mark.parametrize("data, d, want", MODULI, ids=lambda v: repr(v)[:40])
def test_modulus_from_dict_builds_what_its_constructor_does(data, d, want):
    assert modulus_from_dict(data, d) == want


def test_eval_W_grid_rejects_bad_levels():
    for J in (-1, 2.5):
        with pytest.raises(OrthofieldError):
            eval_W_grid(PADDED, J)
    # one replica's level-45 grid would hold (2^45 + 1)^2 nodes
    with pytest.raises(TooLargeError):
        eval_W_grid(PADDED, 45)


def test_exponent_fit_grid_stays_within_the_block_budget():
    with pytest.raises(TooLargeError):
        exponent_fit(SAMPLES, grid_points=2**22)


def test_exponential_term_past_the_float_range_is_zero():
    # at d = 1, (C x / K)^(2/d) and (x / y)^(2/d) pass the float range
    consts = recurse_constants(1)
    value = bounded_rhs(1e200, 1e-100, consts)
    assert (value.value, value.exp_term, value.vacuous) == (0.0, 0.0, False)
    value = thm1_rhs(1e300, 1.0, WEIBULL, consts)
    assert value.exp_term == 0.0 and value.value == value.integral_term > 0.0


def test_evaluators_reject_arrays_with_a_bad_entry():
    for call in (iter_log(), log_power(2.0), lambda v: modulus_eval(RHO, v)):
        for value in ([0.5, math.nan], np.array([True, False]), ["0.5"], [1, 2**70]):
            with pytest.raises(InvalidInputError) as info:
                call(value)
            assert "\n" not in str(info.value)


def test_thm2_rhs_rejects_a_lattice_past_the_float_range():
    with pytest.raises(InvalidRangeError, match="float range"):
        thm2_rhs(1.0, (10**200, 10**200), 1.0)
