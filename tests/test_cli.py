import json
import subprocess
import sys

import pytest

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
    assert "config error" in capsys.readouterr().err


def test_malformed_json_is_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not valid json")
    assert main(["deviation", "--config", str(path)]) == 1
    assert "config error" in capsys.readouterr().err


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
    ],
    ids=["top-level-list", "replicas-string", "shape-int", "x-grid-string",
         "two-term-without-y", "weibull-tail-without-gamma"],
)
def test_malformed_config_is_one_line_exit_1(tmp_path, capsys, experiment, payload):
    cfg = write_config(tmp_path, "bad.json", payload)
    assert main([experiment, "--config", cfg]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "error" in err, err


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
