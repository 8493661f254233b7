import ast
import ctypes
import importlib
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from orthofield import cli
from orthofield.cli import main


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


DEVIATION = {
    "experiment": "deviation",
    "generator": {"variant": "iid_symmetric", "d": 2, "params": {"dist": "gaussian", "sigma": 1.0}},
    "shape": [8, 8],
    "x_grid": [0.5, 1.0],
    "replicas": 64,
    "seed": 4,
}


def test_missing_config_file_is_exit_1(capsys):
    assert main(["deviation", "--config", "/no/such/file.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "/no/such/file.json" in err, err


def test_malformed_json_is_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not valid json")
    assert main(["deviation", "--config", str(path)]) == 1
    assert "bad.json' is not JSON" in capsys.readouterr().err


# a config file's raw bytes, or the command line around a valid config,
# that must end in exit 1 with one line on stderr and nothing on stdout
RAW_INPUTS = {
    "non-utf-8": (b"\xff\xfe" + json.dumps({"d": 2}).encode(), []),
    "deep-nesting": (b"[" * 10**5 + b"]" * 10**5, []),
    "huge-integer": (b'{"d": 2, "seed": ' + b"7" * 5000 + b"}", []),
    "empty-file": (b"", []),
    "directory-path": (None, []),
    "top-level-list": (b"[1, 2]", []),
    # the message quotes a value in brief, not whole
    "long-top-level-list": (json.dumps([0] * 10**5).encode(), []),
    "long-list-for-a-number": (json.dumps({"d": [0] * 10**5}).encode(), []),
    "long-experiment": (json.dumps({"experiment": [0] * 10**5}).encode(), []),
    "long-x-grid": (dict(DEVIATION, x_grid="a" * 10**5), []),
    "long-variant": (dict(DEVIATION, generator={"variant": "a" * 10**5, "d": 2}), []),
    "long-dist": (dict(DEVIATION, generator={"variant": "iid_symmetric", "d": 2,
                                             "params": {"dist": "a" * 10**5}}), []),
    "long-exponents": ({"experiment": "tightness", "generator": DEVIATION["generator"],
                        "exponents": [1024, 1024] + [0] * 10**5, "eps": 1.0, "axis_q": 1,
                        "j_from": 1, "replicas": 8, "modulus": {"c": 100.0}}, []),
    "threads-not-an-integer": (json.dumps({"d": 2}).encode(), ["--threads", "x"]),
}


@pytest.mark.parametrize("name", sorted(RAW_INPUTS))
def test_raw_config_bytes_are_one_line_exit_1(tmp_path, capsys, name):
    # a row holds bytes for the constants experiment, or the config of
    # the experiment it names
    text, extra = RAW_INPUTS[name]
    experiment = "constants"
    if isinstance(text, dict):
        experiment, text = text["experiment"], json.dumps(text).encode()
    path = tmp_path / "config.json"
    if text is None:
        path = tmp_path
    else:
        path.write_bytes(text)
    assert main([experiment, "--config", str(path)] + extra) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert len(err) < 300, err
    if extra:
        assert "--threads" in err and "'x'" in err, err


def test_a_closed_stdout_is_one_line_exit_1(tmp_path):
    # stdout's reader is gone before the run starts: the report's write
    # fails with a broken pipe, which is one error line, and the
    # interpreter's own flush at exit finds stdout pointed at os.devnull,
    # so it adds no "Exception ignored" line
    cfg = write_config(tmp_path, "constants.json", {"d": 2})
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "orthofield.cli", "constants", "--config", cfg],
                              stdout=write, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: [Errno 32] Broken pipe"], proc.stderr


def test_experiment_mismatch_is_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path, "dev.json", DEVIATION)
    assert main(["fdd", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "deviation" in err and "fdd" in err


def test_unknown_config_field_is_exit_1(tmp_path, capsys):
    payload = dict(DEVIATION, bogus=1)
    cfg = write_config(tmp_path, "dev.json", payload)
    assert main(["deviation", "--config", cfg]) == 1
    assert "error" in capsys.readouterr().err


TWO_TERM = {
    "experiment": "verify-bound",
    "generator": {"variant": "iid_symmetric", "d": 2, "params": {"dist": "rademacher"}},
    "shape": [8, 8],
    "x_grid": [2.0],
    "replicas": 64,
    "seed": 3,
    "bound": {"kind": "two-term", "y": 16.0, "tail": {"kind": "bounded", "K": 1.0}},
}


def _gen(dist="rademacher", variant="iid_symmetric", **params):
    return {"variant": variant, "d": 2, "params": dict(params, dist=dist)}


MODULUS = {"c": math.exp(4.0), "L": {"kind": "iter_log"}}
FDD = {"experiment": "fdd", "generator": _gen(), "shape": [8, 8], "t_point": [0.5, 1.0],
       "replicas": 64, "seed": 1}
TIGHTNESS = {"experiment": "tightness", "generator": _gen("gaussian"), "exponents": [3, 3],
             "eps": 1.0, "axis_q": 1, "j_from": 1, "replicas": 8, "modulus": MODULUS}
LEMMA = {"experiment": "lemma-checks", "svarying": {"kind": "log_power", "beta": 2.0},
         "tail": {"kind": "weibull", "gamma": 1.0}, "k_max": 10, "j_max": 10}
EXPONENT_FIT = {"experiment": "exponent-fit", "d": 1, "replicas": 2000}
# d = 3 lattices for a d = 2 generator, where a modulus of d = 3 with this
# c is not increasing
DIMENSION_MISMATCHES = [
    dict(TIGHTNESS, exponents=[3, 3, 3], modulus={"c": math.exp(4.0)}),
    {"experiment": "holder-norm", "generator": _gen("gaussian"), "shapes": [[4, 4], [4, 4, 4]],
     "modulus": {"c": math.exp(4.0)}, "replicas": 8},
]


@pytest.mark.parametrize(
    "experiment,payload",
    [
        ("deviation", [1, 2]),
        ("deviation", dict(DEVIATION, replicas="10")),
        ("deviation", dict(DEVIATION, shape=5)),
        ("deviation", dict(DEVIATION, x_grid=[1.0, "a"])),
        ("verify-bound", dict(TWO_TERM, bound={"kind": "two-term",
                                                "tail": {"kind": "bounded", "K": 1.0}})),
        ("verify-bound", dict(TWO_TERM, bound={"kind": "two-term", "y": 16.0,
                                                "tail": {"kind": "weibull"}})),
        ("deviation", dict(DEVIATION, generator=_gen("gaussian", sigma="x"))),
        ("deviation", dict(DEVIATION, generator=_gen("weibull_symmetric", gamma="q"))),
        ("deviation", dict(DEVIATION, generator=_gen(variant="moving_average", axis="q"))),
        ("tightness", dict(TIGHTNESS, modulus={"c": "x"})),
        ("tightness", dict(TIGHTNESS, modulus={"c": 55, "L": "x"})),
        ("tightness", dict(TIGHTNESS, exponents=[3, "b"])),
        # the modulus takes its dimension from the field and always checks
        # that it increases
        ("tightness", dict(TIGHTNESS, modulus=dict(MODULUS, c=math.exp(6.0), d=3))),
        ("tightness", dict(TIGHTNESS, modulus={"c": 1.01, "check_increasing": False})),
        ("holder-norm", {"experiment": "holder-norm", "generator": _gen(), "shapes": [8, 8],
                         "modulus": MODULUS}),
        # holder-norm reads a list of shapes only
        ("holder-norm", {"experiment": "holder-norm", "generator": _gen(), "shape": [8, 8],
                         "shapes": [[4, 4]], "modulus": MODULUS}),
        ("lemma-checks", dict(LEMMA, svarying={"kind": "log_power", "beta": "x"})),
        ("lemma-checks", dict(LEMMA, tail={"kind": "weibull", "gamma": "x"})),
        ("lemma-checks", dict(LEMMA, k_max="x")),
        ("exponent-fit", dict(EXPONENT_FIT, band=[1])),
        ("exponent-fit", dict(EXPONENT_FIT, d="x")),
        ("constants", {"d": 2.5}),
        ("verify-bound", dict(TWO_TERM, bound={"kind": "bounded", "K": "x"})),
        ("verify-bound", dict(TWO_TERM, bound={"kind": "two-term", "y": 16.0,
                                                "tail": {"kind": "gaussian_product", "m": "x"}})),
        # a falsy value read as "not given", or a field nobody reads
        ("constants", {"d": 0}),
        ("constants", {"d": -3}),
        ("sheet-cov", {"shape": [4, 4], "replicas": 16, "pairs": 0}),
        ("exponent-fit", dict(EXPONENT_FIT, grid_points=0)),
        ("deviation", dict(DEVIATION, modulus=MODULUS)),
        ("deviation", dict(DEVIATION, generator=_gen(sigma=1.0))),
        # over the block budget: a lattice, the largest tightness level
        # (2^2999 x 8), the node pair draws, the level grid; then a
        # tightness level that fits, but whose normalizer overflows a float
        ("deviation", dict(DEVIATION, shape=[4096, 4096])),
        ("tightness", dict(TIGHTNESS, exponents=[3000, 3])),
        ("sheet-cov", {"shape": [4, 4], "replicas": 16, "pairs": 10**12}),
        ("holder-norm", {"experiment": "holder-norm", "generator": _gen(), "shapes": [[8, 8]],
                         "modulus": MODULUS, "j_max": 2000}),
        ("tightness", dict(TIGHTNESS, exponents=[3000, 3], j_from=3000)),
        # a tail whose negligible point lies beyond the float range, one
        # whose tail integral overflows; too many Gaussian factors
        ("verify-bound", dict(TWO_TERM, bound={"kind": "two-term", "y": 16.0,
                                                "tail": {"kind": "weibull", "gamma": 0.001}})),
        ("verify-bound", dict(TWO_TERM, bound={"kind": "two-term", "y": 16.0,
                                                "tail": {"kind": "weibull", "gamma": 0.01}})),
        ("verify-bound", dict(TWO_TERM, bound={"kind": "large-deviation", "gamma": 1e-5})),
        ("verify-bound", dict(TWO_TERM, bound={"kind": "two-term", "y": 16.0,
                                                "tail": {"kind": "gaussian_product", "m": 5000}})),
        # integer inputs bounded before they size an array, a loop or an
        # exponent: 2^j and its partial sums past the float range, more
        # Gaussian factors than the tails model, per-replica results and
        # node values over the block budget, a level past those a modulus
        # is checked on, and an exponent sum compared before 2^sum is built
        ("lemma-checks", dict(LEMMA, j_max=1023)),
        ("lemma-checks", dict(LEMMA, k_max=1024)),
        ("exponent-fit", dict(EXPONENT_FIT, d=17)),
        ("exponent-fit", dict(EXPONENT_FIT, replicas=10**11)),
        ("exponent-fit", dict(EXPONENT_FIT, grid_points=4 * 10**9)),
        ("deviation", dict(DEVIATION, replicas=2**21 + 1)),
        ("sheet-cov", {"shape": [4, 4], "replicas": 1100, "pairs": 1000}),
        ("holder-norm", {"experiment": "holder-norm", "generator": _gen(), "shapes": [[8, 8]],
                         "modulus": MODULUS, "j_max": 41}),
        ("tightness", dict(TIGHTNESS, exponents=[10**18, 3])),
        # a slowly varying factor past the float range at level 8, and
        # one so small that the sum of 2^j / L(2^j) overflows
        ("lemma-checks", dict(LEMMA, svarying={"kind": "log_power", "beta": 400.0},
                              tail={"kind": "bounded", "K": 1.0})),
        ("lemma-checks", dict(LEMMA, svarying={"kind": "const", "c0": 1e-300},
                              tail={"kind": "unit"}, k_max=1022)),
        # a site variance that is 0 or not a float: no normal limit to test
        ("fdd", dict(FDD, generator={"variant": "zero", "d": 2})),
        ("fdd", dict(FDD, generator=_gen("gaussian", sigma=1e-200))),
        ("fdd", dict(FDD, generator=dict(_gen("gaussian", sigma=1e300), d=1), shape=[4096],
                     t_point=[0.5])),
        ("fdd", dict(FDD, generator=_gen("weibull_symmetric", gamma=0.01))),
        ("fdd", dict(FDD, generator=_gen("weibull_symmetric", "moving_average", gamma=0.005))),
        # one replica, where the KS threshold is above 1 and every
        # standard error is 0, so neither gate could fail
        ("fdd", dict(FDD, generator={"variant": "product_rademacher", "d": 2}, shape=[64, 64],
                     t_point=[1.0, 1.0], replicas=1)),
        ("sheet-cov", {"shape": [8, 8], "seed": 3, "replicas": 1}),
        # a generator is a JSON object, not the text of one
        ("deviation", dict(DEVIATION, generator=json.dumps(DEVIATION["generator"]))),
        # x is positive: at x = 0 the Doob step divides by 0, and below it
        # no threshold x sqrt(|n|) means anything
        ("induction-check", {"experiment": "induction-check", "generator": _gen(),
                             "shape": [4, 4], "x_grid": [0.0, 1.0], "replicas": 50}),
        ("deviation", dict(DEVIATION, x_grid=[-1.0, 1.0])),
        ("verify-bound", dict(TWO_TERM, x_grid=[0.0])),
        # a band no fit can sit in, and a t that rounds to lattice node 0
        ("exponent-fit", dict(EXPONENT_FIT, d=2, replicas=5000, seed=101, band=[1.5, 0.5])),
        ("fdd", dict(FDD, shape=[4, 4], t_point=[1e-12, 1.0])),
        # row numbers JSON cannot hold: an x so small that the Doob step's
        # integral overflows, and a threshold eps rho(h) 2^(|m| / 2) past
        # the float range; then a level h = 2^-j whose c/h and 1/h overflow
        ("induction-check", {"experiment": "induction-check", "generator": _gen("gaussian"),
                             "shape": [4, 4], "x_grid": [1e-308, 1.0], "replicas": 10}),
        ("tightness", dict(TIGHTNESS, exponents=[4, 4], eps=1e308, j_from=0, replicas=10,
                           modulus={"c": 55})),
        ("tightness", dict(TIGHTNESS, generator=dict(_gen("gaussian"), d=1), exponents=[1070],
                           j_from=1060, replicas=10, modulus={"c": 55})),
        # a coordinate whose t_q n_q overflows before it is rounded, and
        # tail integrals whose scale, y C or L(2^j) c, underflows to 0
        ("fdd", dict(FDD, t_point=[1e308, 1.0])),
        ("verify-bound", dict(TWO_TERM, bound=dict(TWO_TERM["bound"], y=5e-324))),
        ("lemma-checks", dict(LEMMA, svarying={"kind": "const", "c0": 1e-160}, c=1e-170,
                              k_max=5, j_max=5)),
        # a modulus that overflows at h = 1 alone, finite and increasing below
        ("holder-norm", {"experiment": "holder-norm", "generator": _gen(), "shapes": [[8, 8]],
                         "modulus": {"c": 55, "L": {"kind": "const", "c0": 5e307}}}),
    ],
    ids=["top-level-list", "replicas-string", "shape-int", "x-grid-string",
         "two-term-without-y", "weibull-tail-without-gamma",
         "gaussian-sigma-string", "weibull-gamma-string", "moving-average-axis-string",
         "modulus-c-string", "modulus-L-string", "exponents-string", "modulus-d",
         "modulus-check-increasing-false",
         "shapes-not-nested", "shape-and-shapes", "svarying-beta-string", "tail-gamma-string", "k-max-string",
         "band-one-value", "exponent-fit-d-string", "constants-d-float",
         "bound-K-string", "gaussian-product-m-string",
         "constants-d-zero", "constants-d-negative", "sheet-cov-pairs-zero",
         "exponent-fit-grid-points-zero", "deviation-with-modulus", "rademacher-with-sigma",
         "lattice-over-budget", "tightness-exponents-3000", "sheet-cov-pairs-1e12",
         "holder-j-max-2000", "tightness-normalizer-overflow",
         "weibull-tail-gamma-1e-3", "weibull-tail-gamma-1e-2", "large-deviation-gamma-1e-5",
         "gaussian-product-m-5000", "lemma-j-max-1023", "lemma-k-max-1024",
         "exponent-fit-d-17", "exponent-fit-replicas-1e11", "exponent-fit-grid-points-4e9",
         "replicas-over-budget", "sheet-cov-node-values-over-budget", "holder-j-max-41",
         "tightness-exponents-1e18", "lemma-log-power-beta-400",
         "lemma-const-1e-300", "fdd-zero-field", "fdd-sigma-1e-200", "fdd-sigma-1e300",
         "fdd-weibull-gamma-0.01", "fdd-moving-average-gamma-0.005", "fdd-one-replica",
         "sheet-cov-one-replica", "generator-json-text", "induction-x-zero",
         "deviation-x-negative", "verify-bound-x-zero", "exponent-fit-band-reversed",
         "fdd-t-at-node-0", "induction-x-1e-308", "tightness-eps-1e308",
         "tightness-level-1060", "fdd-t-1e308", "two-term-y-5e-324",
         "lemma-scale-underflow", "holder-modulus-inf-at-h-1"],
)
def test_malformed_config_is_one_line_exit_1(tmp_path, capsys, experiment, payload):
    cfg = write_config(tmp_path, "bad.json", payload)
    assert main([experiment, "--config", cfg]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "error" in err, err


def test_a_weibull_tail_past_the_float_range_is_zero(tmp_path, capsys):
    # at gamma = 1e20, s^gamma overflows for every s > 1, where the tail
    # 2 exp(-s^gamma) is exactly 0: the run prints its verdict line and
    # no RuntimeWarning, which pytest would raise as an error
    cfg = write_config(tmp_path, "lemma.json", dict(LEMMA, tail={"kind": "weibull",
                                                                 "gamma": 1e20}))
    assert main(["lemma-checks", "--config", cfg]) in (0, 2)
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("verdict:"), err


@pytest.mark.parametrize("payload", DIMENSION_MISMATCHES, ids=["tightness", "holder-norm"])
def test_a_lattice_of_another_dimension_is_named(tmp_path, capsys, payload):
    cfg = write_config(tmp_path, "bad.json", payload)
    assert main([payload["experiment"], "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "error" in err, err
    assert "[3, 3, 3]: 3 axes" in err or "[4, 4, 4]: 3 axes" in err, err
    assert "generator has d=2" in err and "modulus" not in err, err


@pytest.mark.parametrize("payload", [
    {"experiment": "induction-check", "generator": _gen("gaussian", sigma=1e300),
     "shape": [64, 64], "x_grid": [1.0], "replicas": 10},
    {"experiment": "induction-check", "generator": _gen("gaussian"), "shape": [4, 4],
     "x_grid": [1e-300, 1.0], "replicas": 10}], ids=["sigma-1e300", "x-1e-300"])
def test_induction_spread_of_huge_values_is_finite(tmp_path, capsys, payload):
    # the Doob-step integrand of a sigma = 1e300 field, or at x = 1e-300,
    # passes 1e154, whose square overflows; the spread is taken on the
    # integrand scaled to at most 1, so se_rhs is finite beside the
    # finite rhs
    cfg = write_config(tmp_path, "induction.json", payload)
    assert main(["induction-check", "--config", cfg]) == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert 1e299 < row["se_rhs"] < math.inf and 1e299 < row["rhs"] < math.inf, row


def test_no_module_reads_the_environment():
    # a run is set by its config file and command line alone, so no
    # module may read the process environment
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        assert not names & {"environ", "environb", "getenv", "getenvb"}, path.name


def test_regularity_layers_do_not_drive_replicas():
    # holder and sumprocess measure the fields they are given; making
    # replicas, running their blocks and reducing them belong to harness
    package = pathlib.Path(cli.__file__).parent
    for name in ("holder.py", "sumprocess.py"):
        tree = ast.parse((package / name).read_text(encoding="utf-8"))
        imported, names = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):  # from .m import a, or from . import m
                imported.add((node.module or "").rpartition(".")[2])
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                imported |= {alias.name.rpartition(".")[2] for alias in node.names}
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        assert not imported & {"generators", "harness", "stats"}, name
        assert "_map_blocks" not in imported | names, name


def test_harness_leaves_bound_kinds_and_norms_to_their_modules():
    # bounds decides what each kind of bound compares against, and holder
    # owns the norm pipeline, so harness spells no bound kind (docstrings
    # aside) and reads no private holder name
    tree = ast.parse((pathlib.Path(cli.__file__).parent / "harness.py").read_text(encoding="utf-8"))
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and isinstance(node.body[0], ast.Expr)}
    spelled = {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and id(node) not in docstrings}
    assert not spelled & {"bounded", "two-term", "large-deviation"}
    private = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name) and node.value.id == "holder"
               and node.attr.startswith("_")}
    assert not private, private
    assert "_BOUND_KINDS" not in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_harness_passes_a_floor_only_in_exceedances():
    # the floor rule has one owner in harness: _exceedances alone hands
    # replica_stats a floor (the generators module docstring states it)
    tree = ast.parse((pathlib.Path(cli.__file__).parent / "harness.py").read_text(encoding="utf-8"))
    owners = [getattr(top, "name", None) for top in tree.body for node in ast.walk(top)
              if isinstance(node, ast.keyword) and node.arg == "floor"]
    assert owners == ["_exceedances"], owners


def test_one_json_reader_and_one_cli_failure_handler():
    # errors.read_json alone decodes JSON text, and cli.main parses,
    # reads, checks, runs and writes inside one try whose one failure
    # handler prints the error line; --help's exit keeps its own handler
    package = pathlib.Path(cli.__file__).parent
    decoders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        decoders += [(path.name, getattr(top, "name", None)) for top in tree.body
                     for node in ast.walk(top)
                     if isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                     and isinstance(node.value, ast.Name) and node.value.id == "json"
                     or isinstance(node, ast.ImportFrom) and node.module == "json"]
    assert decoders == [("errors.py", "read_json")], decoders
    tree = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
    body = next(top for top in tree.body if getattr(top, "name", None) == "main")
    tries = [node for node in ast.walk(body) if isinstance(node, ast.Try)]
    assert len(tries) == 1 and [ast.unparse(h.type) for h in tries[0].handlers] == [
        "SystemExit", "(OrthofieldError, OSError)"]
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for stmt in tries[0].body for node in ast.walk(stmt) if isinstance(node, ast.Call)}
    assert {"parse_args", "open", "read_json", "run_experiment", "write"} <= called, called


def test_block_modules_make_no_blas_call():
    # _rng, generators and lattice run inside a worker's block, where a
    # BLAS call would start BLAS's own threads beside the bounded worker
    # threads and take first-use resident memory (see
    # bounds._gauss_legendre01): no @, dot, matmul, einsum or linalg
    package = pathlib.Path(cli.__file__).parent
    blas = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}
    for name in ("_rng.py", "generators.py", "lattice.py"):
        tree = ast.parse((package / name).read_text(encoding="utf-8"))
        matmul = [node for node in ast.walk(tree) if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.MatMult)]
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names} | set((node.module or "").split("."))
            elif isinstance(node, ast.Import):
                names |= {part for alias in node.names for part in alias.name.split(".")}
        assert not matmul and not names & blas, (name, sorted(names & blas))


def test_one_function_builds_reports_and_derives_verdicts():
    # run_experiment builds every Report and derives its verdict from the
    # rows; the constants runner alone names its own (a PASS), so no other
    # code in harness may spell a verdict, docstrings aside
    package = pathlib.Path(cli.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {id(node): getattr(top, "name", None) for top in tree.body
                 for node in ast.walk(top)}
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                      and isinstance(node.body[0], ast.Expr)}
        builds = {owner[id(node)] for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and "Report" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))}
        spelled = {owner[id(node)] for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and id(node) not in docstrings
                   and ("PASS" in node.value or "FAIL" in node.value)}
        if path.name == "harness.py":
            assert builds == {"run_experiment"}, builds
            assert spelled == {"run_experiment", "_constants"}, spelled
        else:
            assert not builds, path.name


def test_no_module_imports_a_name_it_never_uses():
    # a name left behind when code moves out of a module; __init__.py
    # imports only to export
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                imported |= {(alias.asname or alias.name).partition(".")[0]
                             for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))


def test_package_leaves_the_single_field_oracle_to_the_tests():
    # every function and class the oracle defines is gone from the package
    # and from each of its modules
    import orthofield
    import single_field

    package = pathlib.Path(cli.__file__).parent
    modules = [orthofield] + [importlib.import_module("orthofield." + path.stem)
                              for path in sorted(package.glob("*.py"))
                              if path.name != "__init__.py"]
    defined = [name for name, obj in vars(single_field).items()
               if getattr(obj, "__module__", None) == single_field.__name__]
    assert len(defined) >= 27
    assert [(module.__name__, name) for module in modules for name in defined
            if hasattr(module, name)] == []


def test_cli_import_leaves_out_scipy_integrate():
    # in a fresh interpreter, since the test modules import quad as an oracle
    src = str(pathlib.Path(cli.__file__).parents[1])
    code = ("import sys; sys.path.insert(0, %r); import orthofield.cli; "
            "print([m for m in sys.modules if m.startswith('scipy.integrate')])" % src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_readme_library_use_runs():
    # README's "Library use" block, in a fresh interpreter with src on the path
    src = pathlib.Path(cli.__file__).parents[1]
    readme = (src.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    code = "import sys; sys.path.insert(0, %r)\n%s" % (str(src), block)
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-2] == "PASS"


def test_parser_is_built_once_and_parses_each_call_afresh():
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    first = parser.parse_args(["deviation", "--seed", "3", "--threads", "2"])
    again = parser.parse_args(["fdd"])
    assert (first.experiment, first.seed, first.threads) == ("deviation", 3, 2)
    assert (again.experiment, again.seed, again.threads, again.config) == ("fdd", None, None, None)


def test_usage_error_is_exit_1(capsys):
    assert main(["no-such-subcommand"]) == 1
    capsys.readouterr()


def test_info_experiment_is_exit_0(tmp_path, capsys):
    cfg = write_config(tmp_path, "dev.json", DEVIATION)
    assert main(["deviation", "--config", cfg]) == 0
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["verdict"] == "INFO"
    assert "verdict: INFO" in err


def test_fail_verdict_is_exit_2(tmp_path, capsys):
    payload = {
        "experiment": "verify-bound",
        "generator": {"variant": "iid_symmetric", "d": 2,
                      "params": {"dist": "rademacher"}},
        "shape": [8, 8],
        "x_grid": [2.0],
        "replicas": 2000,
        "seed": 3,
        "bound": {"kind": "bounded", "K": 0.01},
    }
    cfg = write_config(tmp_path, "vb.json", payload)
    assert main(["verify-bound", "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["verdict"] == "FAIL"
    assert "verdict: FAIL" in err


def test_two_term_gaussian_product_tails_run(tmp_path, capsys):
    # more Gaussian factors make a heavier tail and so a larger integral term
    terms = []
    for m in (3, 4, 6):
        payload = dict(TWO_TERM, generator=dict(DEVIATION["generator"], d=3), shape=[4, 4, 4],
                       x_grid=[1.0, 4.0], bound={"kind": "two-term", "y": 1.0,
                                                 "tail": {"kind": "gaussian_product", "m": m}})
        cfg = write_config(tmp_path, "vb%d.json" % m, payload)
        assert main(["verify-bound", "--config", cfg]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert rows[0]["integral_term"] == rows[1]["integral_term"]
        terms.append(rows[0]["integral_term"])
    assert 0.0 < terms[0] < terms[1] < terms[2] < math.inf


def test_pass_verdict_is_exit_0(tmp_path, capsys):
    payload = {
        "experiment": "lemma-checks",
        "svarying": {"kind": "log_power", "beta": 2.0},
        "tail": {"kind": "weibull", "gamma": 1.0},
        "k_max": 30,
        "j_max": 30,
    }
    cfg = write_config(tmp_path, "lemma.json", payload)
    assert main(["lemma-checks", "--config", cfg]) == 0
    out, _ = capsys.readouterr()
    assert json.loads(out)["verdict"] == "PASS"


def test_out_file_receives_report(tmp_path, capsys):
    cfg = write_config(tmp_path, "dev.json", DEVIATION)
    out_path = tmp_path / "report.json"
    assert main(["deviation", "--config", cfg, "--out", str(out_path)]) == 0
    capsys.readouterr()
    report = json.loads(out_path.read_text())
    assert report["experiment"] == "deviation"
    assert "timing" in report


def test_unwritable_out_file_is_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path, "dev.json", DEVIATION)
    out_path = tmp_path / "no-such-dir" / "report.json"
    assert main(["deviation", "--config", cfg, "--out", str(out_path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and not out_path.exists()
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def test_seed_override_changes_numbers_threads_do_not(tmp_path, capsys):
    cfg = write_config(tmp_path, "dev.json", DEVIATION)

    def run(args):
        assert main(args) == 0
        out, _ = capsys.readouterr()
        report = json.loads(out)
        del report["timing"]
        return report

    base = run(["deviation", "--config", cfg])
    reseeded = run(["deviation", "--config", cfg, "--seed", "999"])
    threaded = run(["deviation", "--config", cfg, "--threads", "4"])
    assert reseeded != base
    assert threaded == base


def test_console_script_runs(tmp_path):
    cfg = write_config(tmp_path, "dev.json", DEVIATION)
    proc = subprocess.run(
        [sys.executable, "-m", "orthofield.cli", "deviation", "--config", cfg],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "INFO"


def test_allocator_policy_is_safe_to_miss(tmp_path, capsys, monkeypatch):
    # without a C library to call, main runs the experiment unchanged
    cfg = write_config(tmp_path, "vb.json", TWO_TERM)

    def canonical():
        assert main(["verify-bound", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        del report["timing"]
        return json.dumps(report, sort_keys=True)

    with_policy = canonical()
    lookups = []

    def no_libc():
        lookups.append(True)
        raise OSError("no C library")

    monkeypatch.setattr(cli, "_libc", no_libc)
    cli._set_allocator_policy.cache_clear()
    try:
        assert canonical() == with_policy
    finally:
        cli._set_allocator_policy.cache_clear()
    assert lookups == [True]


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "gnu_get_libc_version"),
                    reason="the allocator policy is set on glibc only")
def test_glibc_accepts_the_allocator_policy():
    cli._set_allocator_policy.cache_clear()
    assert cli._set_allocator_policy() is True


def test_block_arrays_stay_under_the_mmap_ceiling():
    # glibc caps the mmap threshold at 32 MiB on 64-bit machines; a block
    # budget above half of that would map and unmap block arrays afresh
    from orthofield.lattice import _BLOCK_BYTES

    assert 2 * _BLOCK_BYTES <= 32 << 20
    assert cli._ALLOCATOR_POLICY == ((cli._M_MMAP_THRESHOLD, 2 * _BLOCK_BYTES),
                                     (cli._M_TRIM_THRESHOLD, _BLOCK_BYTES))
