"""List the statements of src/orthofield that no benchmark op runs.

    python mutants/traffic.py [--seed S] [--workload W ...]

For each workload (all of perfbench/workloads.py's by default) the
script builds its plan with workloads.build(W, S), computes the bound
constants the plan's set-up warms, and runs every op once, in this
process, through orthofield.cli.main with the op's config in a
temporary file.  All of it runs under sys.settrace and
threading.settrace, so the block driver's helper threads are traced
too.  The plan is only read: nothing under perfbench/ changes, and no
bytecode is written.

It then prints, per function of src/orthofield (methods and nested
functions by their qualified names), the lines of the statements no op
executed, and a summary count.  A statement counts when its first line
holds bytecode; docstrings and global declarations hold none.  The
script needs the standard library only, beside the package the ops
import; the trace makes the ops slower than a plain run.
"""

import argparse
import ast
import contextlib
import io
import json
import pathlib
import runpy
import sys
import tempfile
import threading

sys.dont_write_bytecode = True
ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import orthofield.bounds  # noqa: E402  (after the path holds this checkout's src)
import orthofield.cli  # noqa: E402

PACKAGE = pathlib.Path(orthofield.__file__).parent


def _code_lines(code) -> set:
    """The lines that hold bytecode in code and in every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(path: pathlib.Path) -> dict:
    """Per function of a module, by qualified name, the first lines of
    the statements of its own body (a nested function's body is its
    own) that hold bytecode."""
    source = path.read_text(encoding="utf-8")
    with_code = _code_lines(compile(source, str(path), "exec"))
    out = {}

    def visit(node, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if owner is not None and child.lineno in with_code:
                    out[owner].add(child.lineno)
                if isinstance(child, ast.ClassDef):
                    visit(child, name + ".", None)
                else:
                    out[name] = set()
                    visit(child, name + ".", name)
                continue
            if owner is not None and isinstance(child, ast.stmt) and child.lineno in with_code:
                out[owner].add(child.lineno)
            visit(child, prefix, owner)

    visit(ast.parse(source), "", None)
    return {name: lines for name, lines in out.items() if lines}


def run_ops(build, workloads, seed: int) -> set:
    """The (file, line) pairs of the package that ran during one pass of
    every op of the workloads at the seed, set-up included, with build
    perfbench/workloads.py's plan builder."""
    files = {str(path) for path in PACKAGE.glob("*.py")}
    executed = set()

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for workload in workloads:
                plan = build(workload, seed)
                for d in plan["warm_constants"]:
                    orthofield.bounds.recurse_constants(d)
                for op in plan["ops"]:
                    path = pathlib.Path(tmp) / ("%s.json" % op["name"])
                    path.write_text(json.dumps(op["config"]), encoding="utf-8")
                    argv = [path if arg is None else arg for arg in op["argv"]]
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        status = orthofield.cli.main([str(arg) for arg in argv])
                    print("op %s/%s: exit %d" % (workload, op["name"], status), flush=True)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return executed


def _spans(lines) -> str:
    """Sorted line numbers as comma-separated runs, 3-5 for 3, 4, 5."""
    runs = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join("%d" % a if a == b else "%d-%d" % (a, b) for a, b in runs)


def main() -> int:
    plans = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=plans["WORKLOADS"])
    args = ap.parse_args()
    executed = run_ops(plans["build"], args.workload or plans["WORKLOADS"], args.seed)
    counts = {"full": 0, "part": 0, "none": 0, "statements": 0, "missed": 0}
    for path in sorted(PACKAGE.glob("*.py")):
        report = []
        for name, lines in statements(path).items():
            missed = {line for line in lines if (str(path), line) not in executed}
            counts["statements"] += len(lines)
            counts["missed"] += len(missed)
            counts["full" if not missed else "none" if missed == lines else "part"] += 1
            if missed == lines:
                report.append("  %s: not run (%d statements)" % (name, len(lines)))
            elif missed:
                report.append("  %s: %d of %d statements not run, lines %s"
                              % (name, len(missed), len(lines), _spans(missed)))
        if report:
            print(path.relative_to(ROOT))
            print("\n".join(report))
    print("functions: %(full)d run in full, %(part)d in part, %(none)d not run; "
          "statements: %(missed)d of %(statements)d not run" % counts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
