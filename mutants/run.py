"""Run the committed mutants of mutants/table.py.

    python mutants/run.py

For each row the runner copies src/, tests/, mutants/, pyproject.toml
and README.md to a temporary directory (tests/test_mutants.py reads the
copy's mutants/table.py), replaces the row's old text, which
must match its file exactly once, and runs each of the row's test ids
there on its own, with -x.  An id kills the mutant when pytest reports
a failing test (exit status 1); any other status (a test id that no
longer exists, a collection error) counts as not killed.  The row is
killed only when every one of its ids kills it alone.  One line per row
gives the verdict and the seconds taken, and one line under it names
each id that did not kill it; the exit status is 1 unless every row
was killed.
"""

import os
import pathlib
import runpy
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "mutants", "pyproject.toml", "README.md")
TIMEOUT_S = 300


def run_test(tmp: pathlib.Path, test_id: str) -> str:
    """The verdict of one test id on the mutated copy in tmp: killed,
    survived or error."""
    cmd = [sys.executable, "-B", "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", test_id]
    env = dict(os.environ, PYTHONPATH=str(tmp / "src"))  # the copy's package, not ROOT's
    try:
        done = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "error"
    return {0: "survived", 1: "killed"}.get(done.returncode, "error")


def run_mutant(row: dict) -> tuple:
    """The verdict of one row (killed, survived, stale or error) and the
    verdict of each of its test ids that did not kill it alone."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, tmp / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(ROOT / name, tmp / name)
        target = tmp / row["file"]
        text = target.read_text(encoding="utf-8")
        if text.count(row["old"]) != 1:
            return "stale", {}
        target.write_text(text.replace(row["old"], row["new"]), encoding="utf-8")
        verdicts = {test_id: run_test(tmp, test_id) for test_id in row["kills"]}
    alive = {test_id: v for test_id, v in verdicts.items() if v != "killed"}
    return ("error" if "error" in alive.values() else "survived" if alive else "killed"), alive


def main() -> int:
    verdicts = []
    for row in runpy.run_path(str(ROOT / "mutants" / "table.py"))["MUTANTS"]:
        t0 = time.perf_counter()
        verdict, alive = run_mutant(row)
        verdicts.append(verdict)
        print("%-45s %-8s %6.1f s" % (row["name"], verdict, time.perf_counter() - t0),
              flush=True)
        for test_id, v in alive.items():
            print("    %s: %s" % (v, test_id), flush=True)
    return 0 if all(v == "killed" for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
