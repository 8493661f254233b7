"""Property test of the config schema through the command line: small
valid configs of every experiment, each mutated once, must never end in
a traceback, and every rejection is exit 1 with one line on stderr."""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from orthofield.cli import main  # noqa: E402
from orthofield.harness import _COMMON, _FIELD_NAMES, _SCHEMA  # noqa: E402

GAUSSIAN = {"variant": "iid_symmetric", "d": 2, "params": {"dist": "gaussian", "sigma": 1.0}}
MODULUS = {"c": math.exp(4.0), "L": {"kind": "const", "c0": 2.0}}

# one small valid config per experiment, sized so that a mutation that
# leaves it valid still runs in milliseconds
SMALL = {
    "deviation": {"generator": GAUSSIAN, "shape": [4, 4], "x_grid": [0.5, 1.0],
                  "replicas": 16, "seed": 1},
    "verify-bound": {"generator": GAUSSIAN, "shape": [4, 4], "x_grid": [2.0], "replicas": 16,
                     "bound": {"kind": "two-term", "y": 4.0,
                               "tail": {"kind": "weibull", "gamma": 1.0}}},
    "induction-check": {"generator": {"variant": "moving_average", "d": 2, "params": {
                            "dist": "weibull_symmetric", "gamma": 1.0, "axis": 2}},
                        "shape": [4, 4], "x_grid": [1.0], "replicas": 16, "threads": 2},
    "tightness": {"generator": GAUSSIAN, "exponents": [3, 3], "eps": 1.0, "axis_q": 1,
                  "j_from": 1, "modulus": MODULUS, "replicas": 8},
    "fdd": {"generator": {"variant": "iid_symmetric", "d": 2, "params": {"dist": "rademacher"}},
            "shape": [4, 4], "t_point": [0.5, 1.0], "replicas": 64},
    "sheet-cov": {"shape": [4, 4], "pairs": 2, "replicas": 32},
    "holder-norm": {"generator": GAUSSIAN, "shapes": [[4, 4]], "modulus": MODULUS, "j_max": 2,
                    "replicas": 8},
    "constants": {"d": 2, "seed": 3},
    # a = 2 takes the conditional-WIP check's tail past s = 1, where a
    # large gamma meets s^gamma's overflow
    "lemma-checks": {"svarying": {"kind": "const", "c0": 1.0},
                     "tail": {"kind": "weibull", "gamma": 1.0}, "k_max": 5, "j_max": 5,
                     "a": 2.0, "c": 1.0},
    "exponent-fit": {"d": 2, "replicas": 2000, "window": [0.9, 0.99], "grid_points": 8,
                     "band": [0.5, 1.5]},
}

# JSON values of every type, none of them a large count: a large count
# can be valid and would make the run long
WRONG_TYPE = [None, True, "x", "", 2.5, -7, [], ["x"], [1.5], {}, {"kind": "x"}]
# every integer field has a lower limit of 0 or more
OUT_OF_RANGE = [-1, -(2**70)]
# above every integer field's upper limit, or over the block budget, but
# for threads, which only caps the worker count
ABOVE_RANGE = 2**64
# what json.load, which the command line reads configs with, makes of
# NaN, Infinity and -Infinity
NON_FINITE = [math.nan, math.inf, -math.inf]
# finite floats at the ends of the double range, whose products and
# powers overflow or underflow
EXTREME = [1e308, -1e308, 1e-300, 5e-324]


def _paths(value, path=()):
    """Every key and list index inside a config, depth first."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _get(config, path):
    for key in path:
        config = config[key]
    return config


def _set(config, path, value):
    _get(config, path[:-1])[path[-1]] = value


def _run(experiment, config):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([experiment, "--config", path])
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(experiment=st.sampled_from(sorted(SMALL)),
       mutation=st.sampled_from(["drop", "wrong-type", "unread", "out-of-range",
                                 "above-range", "non-finite", "extreme"]),
       data=st.data())
def test_mutated_config_never_escapes(experiment, mutation, data):
    config = json.loads(json.dumps(SMALL[experiment]))
    if mutation == "drop":
        path = data.draw(st.sampled_from(list(_paths(config))))
        del _get(config, path[:-1])[path[-1]]
    elif mutation == "wrong-type":
        _set(config, data.draw(st.sampled_from(list(_paths(config)))),
             data.draw(st.sampled_from(WRONG_TYPE)))
    elif mutation == "unread":
        objects = [()] + [p for p in _paths(config) if isinstance(_get(config, p), dict)]
        where = data.draw(st.sampled_from(objects))
        unread = ["bogus"]
        if where == ():
            unread += sorted(set(_FIELD_NAMES) - set(_COMMON) - set(_SCHEMA[experiment][1]))
        _set(config, where + (data.draw(st.sampled_from(unread)),), 1)
    elif mutation == "non-finite":
        # any float field, those of bound, tail, modulus, L, svarying and
        # generator params included
        floats = [p for p in _paths(config) if type(_get(config, p)) is float]
        assume(floats)
        _set(config, data.draw(st.sampled_from(floats)), data.draw(st.sampled_from(NON_FINITE)))
    elif mutation == "extreme":
        # any nonempty set of float fields, since two small factors can
        # underflow where one does not
        floats = [p for p in _paths(config) if type(_get(config, p)) is float]
        assume(floats)
        for path in data.draw(st.lists(st.sampled_from(floats), min_size=1, unique=True)):
            _set(config, path, data.draw(st.sampled_from(EXTREME)))
    else:
        ints = [p for p in _paths(config) if type(_get(config, p)) is int]
        value = ABOVE_RANGE if mutation == "above-range" else data.draw(
            st.sampled_from(OUT_OF_RANGE))
        _set(config, data.draw(st.sampled_from(ints)), value)

    rc, out, err = _run(experiment, config)
    assert rc in (0, 1, 2)
    if mutation in ("unread", "out-of-range", "non-finite"):
        assert rc == 1, (config, err)
    if rc == 1:
        assert out == "" and len(err.splitlines()) == 1, (config, err)


@pytest.mark.parametrize("experiment", sorted(SMALL))
def test_every_extreme_float_runs_or_exits_with_one_line(experiment):
    # every float field swapped alone for every EXTREME value: the
    # property test's derandomized draws reach only some of these swaps
    floats = [p for p in _paths(SMALL[experiment]) if type(_get(SMALL[experiment], p)) is float]
    for path in floats:
        for value in EXTREME:
            config = json.loads(json.dumps(SMALL[experiment]))
            _set(config, path, value)
            rc, out, err = _run(experiment, config)
            assert rc in (0, 1, 2), (path, value)
            if rc == 1:
                assert out == "" and len(err.splitlines()) == 1, (path, value, err)


@pytest.mark.parametrize("experiment", sorted(SMALL))
def test_small_configs_are_valid(experiment):
    rc, _, err = _run(experiment, SMALL[experiment])
    assert rc in (0, 2), err
