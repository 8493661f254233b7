"""Run the committed mutants of mutants/table.py.

    python mutants/run.py

For each row the runner copies src/, tests/, pyproject.toml and
README.md to a temporary directory, replaces the row's old text, which
must match its file exactly once, and runs the row's tests there with
-x.  The mutant is killed when pytest reports a
failing test (exit status 1); any other status (a test id that no
longer exists, a collection error) counts as not killed.  One line per
row gives the verdict and the seconds taken; the exit status is 1
unless every row was killed.
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
COPIED = ("src", "tests", "pyproject.toml", "README.md")
TIMEOUT_S = 300


def run_mutant(row: dict) -> str:
    """The verdict of one row: killed, survived, stale or error."""
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
            return "stale"
        target.write_text(text.replace(row["old"], row["new"]), encoding="utf-8")
        cmd = [sys.executable, "-B", "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *row["kills"]]
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"))  # the copy's package, not ROOT's
        try:
            done = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "error"
        return {0: "survived", 1: "killed"}.get(done.returncode, "error")


def main() -> int:
    verdicts = []
    for row in runpy.run_path(str(ROOT / "mutants" / "table.py"))["MUTANTS"]:
        t0 = time.perf_counter()
        verdicts.append(run_mutant(row))
        print("%-45s %-8s %6.1f s" % (row["name"], verdicts[-1], time.perf_counter() - t0),
              flush=True)
    return 0 if all(v == "killed" for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
