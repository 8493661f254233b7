"""Every constructor and evaluator of the bound, modulus and grid layers
checks its own scalar arguments, once, with errors.check_number: bad
values end in InvalidInputError or InvalidRangeError before any array
is built, and the JSON parsers build exactly what the constructors do.
Each spec type (GeneratorSpec, TailModel, SlowlyVarying, Modulus)
checks itself when it is built, so a hand-built spec is refused as its
constructor would refuse it.  What sets a kind of spec apart is one row
of its type's table, and no statement of the package compares a kind's
name."""

import ast
import math
import pathlib
import pickle
import warnings

import numpy as np
import pytest

from orthofield import (
    DegenerateModulusError,
    GeneratorSpec,
    InvalidInputError,
    InvalidRangeError,
    I_integral,
    Modulus,
    OrthofieldError,
    SlowlyVarying,
    TailModel,
    TooLargeError,
    bounded_by,
    bounded_rhs,
    cond_wip_check,
    const_factor,
    exponent_fit,
    gaussian_product,
    generate_batch,
    grid_seq_norms,
    iid_gaussian,
    iter_log,
    lemma3_moment_sum,
    lemma_svarying_partial_sum,
    log_power,
    modulus,
    moving_average,
    modulus_eval,
    modulus_from_dict,
    recurse_constants,
    thm1_rhs,
    thm2_rhs,
    unit_tail,
    weibull_envelope,
)
import orthofield
from orthofield import bounds, generators, holder
from orthofield.bounds import tail_from_dict
from orthofield.errors import check_number
from orthofield.generators import replica_stats
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


@pytest.mark.parametrize("kind", [np.float16, np.float32, np.float64], ids=lambda k: k.__name__)
def test_numpy_floats_are_checked_as_python_floats(kind):
    # a narrow float's own type rounds the largest double to inf, and
    # casting it there warns: a finite one passes without a warning as
    # the Python float of its value, and its infinities and NaN are
    # refused, by check_number and by a spec built from them alike
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for got in (check_number("x", kind(2.0), lo=0),
                    iid_gaussian(2, kind(2.0)).param("sigma")):
            assert got == 2.0 and type(got) is float
        for bad in (kind("inf"), kind("-inf"), kind("nan")):
            with pytest.raises(InvalidInputError, match="x must be a finite number"):
                check_number("x", bad, lo=0)
            with pytest.raises(InvalidInputError, match="sigma must be a finite number"):
                iid_gaussian(2, bad)
    # a Python number passes as given, so a config echoes it as it was
    # read, and a NumPy integer as the Python int of its value
    assert type(check_number("x", 2)) is int
    assert type(check_number("n", np.int8(2), integer=True)) is int
    # a spec stores its law parameter as a float, so it echoes 2.0 either way
    assert type(iid_gaussian(2, 2).param("sigma")) is float


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


# repr of an integer past int to str's digit limit raises ValueError, so
# such a value, alone or inside a container, is quoted by its size
@pytest.mark.parametrize("data, quoted", [({"kind": 10**5000}, "an integer of 16610 bits"),
                                          ([10**5000], "a value too long to quote")],
                         ids=["kind", "list"])
def test_a_value_too_long_to_print_is_quoted_by_its_size(data, quoted):
    with pytest.raises(InvalidInputError, match=quoted):
        tail_from_dict(data)


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


# each spec type built directly with a field its constructor refuses:
# the call, the error and a part of its message
HAND_BUILT = {
    "generator variant": (lambda: GeneratorSpec("no_such", 1), InvalidInputError,
                          "unknown generator variant 'no_such'"),
    "generator d": (lambda: GeneratorSpec("iid_symmetric", "2", (("dist", "rademacher"),)),
                    InvalidInputError, "field dimension d must be an integer"),
    "generator dist": (lambda: GeneratorSpec("iid_symmetric", 2, ()), InvalidInputError,
                       "needs dist in"),
    "generator pairs": (lambda: GeneratorSpec("iid_symmetric", 2, "ab"), InvalidInputError,
                        "params must be .key, value. pairs, not 'ab'"),
    "generator sigma": (lambda: GeneratorSpec("iid_symmetric", 1, {"dist": "gaussian",
                                                                   "sigma": 0.0}),
                        InvalidRangeError, "gaussian sigma"),
    "generator gamma": (lambda: GeneratorSpec("iid_symmetric", 1, {"dist": "weibull_symmetric",
                                                                   "gamma": -1.0}),
                        InvalidRangeError, "weibull_symmetric gamma"),
    "generator axis": (lambda: GeneratorSpec("moving_average", 2, {"dist": "rademacher",
                                                                   "axis": 3}),
                       InvalidRangeError, "moving_average axis"),
    "generator unread param": (lambda: GeneratorSpec("zero", 1, {"dist": "gaussian"}),
                               InvalidInputError, "does not read 'dist'"),
    "tail kind": (lambda: TailModel("mystery", 1.0), InvalidInputError,
                  "unknown tail model kind 'mystery'"),
    "tail K": (lambda: TailModel("bounded", 0.0), InvalidRangeError, "tail K"),
    "tail gamma": (lambda: TailModel("weibull", -1.0), InvalidRangeError, "tail gamma"),
    "tail m": (lambda: TailModel("gaussian_product", 2.5), InvalidInputError,
               "tail m must be an integer"),
    "svarying kind": (lambda: SlowlyVarying("mystery"), InvalidInputError,
                      "unknown slowly varying factor kind 'mystery'"),
    "svarying beta": (lambda: SlowlyVarying("log_power", beta=-1.0), InvalidRangeError,
                      "log_power beta"),
    "svarying c0": (lambda: SlowlyVarying("const", c0=0.0), InvalidRangeError,
                    "const factor c0"),
    "modulus c": (lambda: Modulus(0.5, 2, iter_log()), InvalidRangeError, "modulus c"),
    "modulus d": (lambda: Modulus(math.exp(4.0), "2", iter_log()), InvalidInputError,
                  "modulus dimension d must be an integer"),
    "modulus L": (lambda: Modulus(E9, 2, "iter_log"), InvalidInputError, "modulus L"),
    "modulus increasing": (lambda: Modulus(math.e, 2, const_factor(1.0)),
                           DegenerateModulusError, "not finite and increasing"),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_specs_check_themselves(name):
    build, error, message = HAND_BUILT[name]
    with pytest.raises(error, match=message) as caught:
        build()
    assert "\n" not in str(caught.value)


def test_a_hand_built_spec_is_the_one_its_constructor_builds():
    assert GeneratorSpec("iid_symmetric", 2, {"dist": "gaussian"}) == iid_gaussian(2)
    assert GeneratorSpec("iid_symmetric", 2, [("dist", "gaussian")]).params == (
        ("dist", "gaussian"), ("sigma", 1.0))
    assert GeneratorSpec("moving_average", 2, {"dist": "rademacher"}) == moving_average(2)
    assert moving_average(2).params == (("axis", 1), ("dist", "rademacher"))  # filled in
    assert TailModel("gaussian_product", 3) == gaussian_product(3)
    assert SlowlyVarying("const", c0=2) == const_factor(2.0)
    assert Modulus(E9, 2, iter_log()) == RHO
    # a modulus's kept level values are no part of its value: equality,
    # hash and repr read its fields alone, and a pickle keeps the values
    for spec in (gaussian_product(3), const_factor(2.0), RHO):
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec and hash(copy) == hash(spec) and repr(copy) == repr(spec)
    assert pickle.loads(pickle.dumps(RHO))._levels == RHO._levels
    assert "_levels" not in repr(RHO) and len(RHO._levels) == 41


# a library call's error quotes a long value in brief, as the CLI's do
LONG_VALUES = {
    "replica_stats stats": lambda: replica_stats(iid_gaussian(1), (4,), 1, 0, 1, ["x"] * 10**5),
    "replica_stats floor": lambda: replica_stats(iid_gaussian(1), (4,), 1, 0, 1, ["max"] * 10**5,
                                                 floor=1.0),
    "I_integral t": lambda: I_integral(["a"] * 10**5, 1),
    "shape extents": lambda: generate_batch(iid_gaussian(2), [0] * 10**5, 1, 0, 1),
    "shape integers": lambda: generate_batch(iid_gaussian(2), ["a"] * 10**5, 1, 0, 1),
    "shape axes": lambda: generate_batch(iid_gaussian(2), [1] * 10**5, 1, 0, 1),
    "offset": lambda: generate_batch(iid_gaussian(2), (4, 4), 1, 0, 1, offset=[0] * 10**5),
}


@pytest.mark.parametrize("name", sorted(LONG_VALUES))
def test_a_library_error_quotes_a_long_value_in_brief(name):
    with pytest.raises(InvalidInputError) as caught:
        LONG_VALUES[name]()
    assert len(str(caught.value)) < 300, name


def test_no_statement_compares_a_spec_kind_name():
    # a tail model, slowly varying factor, bound, generator variant or law
    # is told apart by its table row alone: no comparison anywhere in the
    # package spells one of their names
    names = set()
    for table in (bounds._TAIL_TABLE, holder._FACTOR_TABLE, bounds._BOUND_TABLE,
                  generators._VARIANT_TABLE, generators._LAW_TABLE):
        names |= set(table)
    found = []
    for path in sorted(pathlib.Path(orthofield.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare):
                spelled = {leaf.value for operand in [node.left, *node.comparators]
                           for leaf in ast.walk(operand) if isinstance(leaf, ast.Constant)}
                found += ["%s:%d %s" % (path.name, node.lineno, name)
                          for name in sorted(spelled & names, key=str)]
    assert len(names) == 17 and not found, found  # "bounded" names a tail and a bound
