"""Benchmark of orthofield through its command line entry point.

    python3 perfbench/run.py --workload mc-tail --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                  # every workload in turn, seed 1
    python3 perfbench/run.py --selfcheck      # span arithmetic and metric names

Run it from anywhere; it uses the ``src`` tree next to ``perfbench``.
Each workload is a closed loop with one client (see workloads.py).  A
run is a series of rounds; every round is a fresh interpreter
(worker.py) that imports orthofield, warms the caches the workload
needs, and runs the workload's experiments in order through
``orthofield.cli.main`` with generated config files, one or more
passes over them.  Rounds repeat until ``--seconds`` have passed, and
at least three run.  Set-up time is a median over rounds, peak memory
the highest round, and every other figure a median over passes.

With ``--trace 0`` the last line holds the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` a run is a series of cycles: an
untraced round, a traced round (and for a multi-threaded workload a
traced round at one thread); the last line holds the per-layer metrics,
including the traced-minus-untraced overhead.

Outputs are checked: every exit code must match its verdict, every
verdict must be the one expected at the seed, payload fields are
checked for consistency, every ``fdd`` KS statistic is recomputed
independently, and each op's payload digest (sha256 of the report
without its timing block) must be the same in every round.  A full
record of the run, with the machine facts, goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_ROUNDS = 3
BUDGET_S = 165.0  # every run ends within 180 s


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ------------------------------------------------------------ rounds


def _worker(plan_path, deadline, *args) -> tuple:
    """Run worker.py in a fresh interpreter; returns (its JSON line,
    spawn time, error).  Only workers import orthofield: this process
    stays small, because a child inherits its parent's ``ru_maxrss``."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--plan", str(plan_path),
           "--src", str(SRC)] + [str(a) for a in args]
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    t_spawn = _now()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=str(ROOT), text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, t_spawn, "worker timed out"
    if proc.returncode != 0:
        return None, t_spawn, "worker exited with status %d" % proc.returncode
    return json.loads(out.strip().splitlines()[-1]), t_spawn, None


def run_round(plan_path, deadline, passes=1, trace=0, threads=None, spans_path=None):
    """One round; returns (result, error)."""
    args = ["--passes", passes, "--trace", trace]
    if threads is not None:
        args += ["--threads", threads]
    if spans_path is not None:
        args += ["--spans", spans_path]
    result, t_spawn, err = _worker(plan_path, deadline, *args)
    if result is not None:
        result["setup_s"] = result["ready"] - t_spawn
        result["threads"] = threads
    return result, err


def write_plan(workload: str, seed: int) -> tuple:
    """Write the workload's config files and plan; returns (plan, path)."""
    plan = workloads.build(workload, seed)
    folder = OUT / ("%s-seed%d" % (workload, seed))
    folder.mkdir(parents=True, exist_ok=True)
    for k, op in enumerate(plan["ops"]):
        cfg_path = folder / ("%02d-%s.json" % (k, op["name"]))
        cfg_path.write_text(json.dumps(op["config"], indent=2) + "\n", encoding="utf-8")
        op["argv"][2] = str(cfg_path)
    plan_path = folder / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=2) + "\n", encoding="utf-8")
    return plan, plan_path


# ------------------------------------------------------------ checks


def _payload_problems(cfg: dict, payload: dict) -> list:
    exp = cfg["experiment"]
    probs = []
    if payload.get("experiment") != exp or payload["config"].get("seed") != cfg["seed"]:
        return ["payload echoes %r seed %r" % (payload.get("experiment"),
                                               payload["config"].get("seed"))]
    rows = payload["rows"]
    if exp == "verify-bound":
        if len(rows) != len(cfg["x_grid"]):
            probs.append("%d rows for %d grid points" % (len(rows), len(cfg["x_grid"])))
        for r in rows:
            if r["ok"] != (r["vacuous"] or r["ci_hi"] <= r["bound"]):
                probs.append("row at x=%r: ok flag disagrees with its interval" % r["x"])
            if not 0 <= r["hits"] <= cfg["replicas"]:
                probs.append("row at x=%r: %r hits" % (r["x"], r["hits"]))
    elif exp == "fdd":
        r = rows[0]
        k = [round(t * n) for t, n in zip(cfg["t_point"], cfg["shape"])]
        threshold = workloads.ks_threshold(cfg["replicas"])
        if r["k"] != k or abs(r["threshold"] - threshold) > 1e-12:
            probs.append("fdd row has k=%r threshold=%r" % (r["k"], r["threshold"]))
        if r["ok"] != (r["ks_stat"] <= r["threshold"]):
            probs.append("fdd ok flag disagrees with its KS statistic")
    elif exp == "induction-check":
        if len(rows) != len(cfg["x_grid"]):
            probs.append("%d rows for %d grid points" % (len(rows), len(cfg["x_grid"])))
    elif exp == "holder-norm":
        if [r["shape"] for r in rows] != cfg["shapes"]:
            probs.append("holder-norm rows for shapes %r" % [r["shape"] for r in rows])
        for r in rows:
            if not r["q25"] <= r["median"] <= r["q75"] <= r["q90"] <= r["max"]:
                probs.append("holder-norm quantiles out of order at %r" % r["shape"])
    elif exp == "tightness":
        sums = rows[-1]["tail_sums"]
        seq = [sums[str(j)] for j in range(cfg["j_from"], cfg["exponents"][cfg["axis_q"] - 1] + 1)]
        if any(a < b for a, b in zip(seq, seq[1:])):
            probs.append("tightness tail sums increase in J: %r" % seq)
    elif exp == "constants":
        if [r["p"] for r in rows] != [2 * d for d in range(1, 7)] or rows[1]["C"] != 1 / 16:
            probs.append("constants table has p=%r C_2=%r"
                         % ([r["p"] for r in rows], rows[1]["C"]))
    return probs


def check_rounds(plan: dict, rounds: list, fdd_ks: dict) -> tuple:
    """(attempted, failed, problems) over every op call of every round.
    ``fdd_ks`` holds each fdd op's KS statistic as recomputed by the
    worker's oracle.  A true 95 % KS test rejects at some seeds, so the
    recomputed statistic, not a fixed PASS, decides the verdict this
    seed expects."""
    attempted = failed = 0
    problems = []
    by_name = {op["name"]: op for op in plan["ops"]}
    expect = {op["name"]: op["expect"] for op in plan["ops"]}
    for name, ks in fdd_ks.items():
        threshold = workloads.ks_threshold(by_name[name]["config"]["replicas"])
        expect[name] = "PASS" if ks <= threshold else "FAIL"
    digests = {}
    for rec in (o for rnd in rounds for p in rnd["passes"] for o in p["ops"]):
        op = by_name[rec["name"]]
        attempted += 1
        if rec["error"]:
            probs = ["raised %s" % rec["error"]]
        elif rec["rc"] not in (0, 2) or rec["verdict"] is None:
            probs = ["exit code %r without a report: %s"
                     % (rec["rc"], rec.get("stderr", "").strip()[-300:])]
        else:
            probs = []
            if op["config"]["experiment"] == "fdd":
                ks = rec["payload"]["rows"][0]["ks_stat"]
                if abs(ks - fdd_ks.get(rec["name"], math.inf)) > 1e-9:
                    probs.append("KS statistic %r, recomputed %r"
                                 % (ks, fdd_ks.get(rec["name"])))
            if rec["rc"] != (2 if rec["verdict"] == "FAIL" else 0):
                probs.append("exit code %d for verdict %s" % (rec["rc"], rec["verdict"]))
            if rec["verdict"] != expect[rec["name"]]:
                probs.append("verdict %s, expected %s" % (rec["verdict"], expect[rec["name"]]))
            probs += _payload_problems(op["config"], rec["payload"])
            digests.setdefault(rec["name"], set()).add(rec["digest"])
        if probs:
            failed += 1
            problems += ["%s: %s" % (rec["name"], p) for p in probs]
    for name, seen in digests.items():
        if len(seen) > 1:
            problems.append("%s: payload differs between rounds (%d digests)" % (name, len(seen)))
    return attempted, failed, problems


# ------------------------------------------------------------ metrics


def e2e_metrics(plan: dict, rounds: list) -> dict:
    """The end-to-end metrics, then the workload-specific figures
    (per-experiment times, Mcell/s).  Times are medians over passes and
    set-up a median over rounds.  Peak memory is the highest round: with
    two threads, where freed blocks land in the allocator's per-thread
    heaps varies, so a round's peak takes one of a few levels."""
    med = statistics.median
    passes = [p for r in rounds for p in r["passes"]]
    m = {"wall_s": med(p["seq_s"] for p in passes),
         "setup_s": med(r["setup_s"] for r in rounds),
         "peak_rss_mb": max(r["maxrss_mb"] for r in rounds)}
    cells = {op["name"]: op["cells"] for op in plan["ops"]}
    groups = {op["name"]: op["group"] for op in plan["ops"]}
    for group in dict.fromkeys(groups.values()):
        m[group] = med(sum(o["dur_s"] for o in p["ops"] if groups[o["name"]] == group)
                       for p in passes)
    if any(cells.values()):
        m["mcells_per_s"] = med(
            sum(cells[o["name"]] for o in p["ops"])
            / sum(o["dur_s"] for o in p["ops"] if cells[o["name"]]) / 1e6 for p in passes)
    return m


def machine_facts(plan: dict) -> dict:
    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
            return int(out.stdout.strip())
        except (OSError, ValueError, subprocess.SubprocessError):
            return None

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    shapes = {"x".join(map(str, s)): 64 * math.prod(s) * 8
              for op in plan["ops"] for s in workloads.lattice_shapes(op["config"])}
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"), "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "block_bytes_computed": {
            "note": "computed, not measured: 64 replicas x cells x 8 B, one float64 "
                    "array of a 64-replica block",
            "by_shape": shapes},
    }


# ------------------------------------------------------------ runs


def _first_pass_s(rnd: dict) -> float:
    return rnd["passes"][0]["seq_s"]


def _units(bench: dict) -> dict:
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def run_workload(bench: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = _now()
    deadline = start + BUDGET_S
    plan, plan_path = write_plan(workload, seed)
    folder = plan_path.parent
    rounds, cycles, errors = [], [], []

    def room(last):  # is there time for one more round like the last one?
        return _now() + last < deadline

    if not trace:
        last = 0.0
        while (len(rounds) < MIN_ROUNDS or _now() - start < seconds) and room(last):
            t0 = _now()
            res, err = run_round(plan_path, deadline, passes=plan["passes"])
            last = _now() - t0
            if err:
                errors.append(err)
                break
            rounds.append(res)
    else:
        errors += ["selfcheck: " + p for p in spans.selfcheck()]
        threads = plan["threads"]
        last = 0.0
        while (not cycles or _now() - start < seconds) and room(last):
            t0 = _now()
            n = len(cycles)
            plain, err = run_round(plan_path, deadline)
            traced, err2 = run_round(plan_path, deadline, trace=1,
                                     spans_path=folder / ("spans-c%d.jsonl" % n))
            single, err3 = (None, None)
            if threads and threads > 1:
                single, err3 = run_round(plan_path, deadline, trace=1, threads=1,
                                         spans_path=folder / ("spans-c%d-t1.jsonl" % n))
            last = _now() - t0
            if err or err2 or err3:
                errors += [e for e in (err, err2, err3) if e]
                break
            seq = _first_pass_s
            layers = dict(traced["layers"])
            layers["tracing.overhead_s"] = seq(traced) - seq(plain)
            layers["tracing.overhead_pct"] = 100.0 * layers["tracing.overhead_s"] / seq(plain)
            layers["harness.speedup_t2_over_t1"] = seq(single) / seq(traced) if single else 0.0
            cycles.append({"plain": plain, "layers": layers})
            rounds += [r for r in (plain, traced, single) if r]

    fdd_ks = {}
    if any(op["config"]["experiment"] == "fdd" for op in plan["ops"]):
        fdd_ks, _, err = _worker(plan_path, deadline, "--oracle")
        errors += ["fdd oracle: " + err] if err else []
    attempted, failed, problems = check_rounds(plan, rounds, fdd_ks or {})
    problems = errors + problems
    if trace:
        metrics = {name: statistics.median(c["layers"][name] for c in cycles)
                   for name in (m["name"] for m in bench["per_layer"])} if cycles else {}
        figures = e2e_metrics(plan, [c["plain"] for c in cycles]) if cycles else {}
    else:
        figures = e2e_metrics(plan, rounds) if rounds else {}
        metrics = {m["name"]: figures[m["name"]] for m in bench["end_to_end"]} if rounds else {}
    problems += ["bad metric name %r" % n for n in list(metrics) + list(figures)
                 if not spans.METRIC_NAME.match(n)]
    digests = ({rec["name"]: rec["digest"] for rec in rounds[0]["passes"][0]["ops"]}
               if rounds else {})
    return {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "rounds": len(rounds), "cycles": len(cycles), "machine": machine_facts(plan),
        "figures": figures, "metrics": metrics, "digests": digests,
        "payload_digest": hashlib.sha256(
            "".join(digests[k] or "" for k in sorted(digests)).encode()).hexdigest(),
        "passes": sum(len(r["passes"]) for r in rounds),
        "attempted": attempted, "failed": failed,
        "correct": not problems, "problems": problems,
        "round_detail": [{"setup_s": r["setup_s"], "maxrss_mb": r["maxrss_mb"],
                          "threads": r["threads"], "traced": "layers" in r,
                          "passes": [{"seq_s": p["seq_s"], "ops": [
                              {k: o[k] for k in ("name", "dur_s", "rc", "verdict", "digest")}
                              for o in p["ops"]]} for p in r["passes"]]} for r in rounds],
    }


def report(bench: dict, rec: dict) -> None:
    units = _units(bench)
    print("machine %s" % json.dumps(rec["machine"], sort_keys=True))
    print("workload %s seed %d trace %d: %d rounds, %d passes, %d cycles; one client, "
          "closed loop" % (rec["workload"], rec["seed"], rec["trace"], rec["rounds"],
                           rec["passes"], rec["cycles"]))
    if rec["trace"]:
        rounds = passes = "%d untraced rounds, one per cycle" % rec["cycles"]
    else:
        rounds = "%d rounds" % rec["rounds"]
        passes = "%d passes in %d rounds" % (rec["passes"], rec["rounds"])
    basis = {"setup_s": "median of " + rounds, "peak_rss_mb": "highest of " + rounds}
    figure_units = {"mcells_per_s": "Mcell/s", "peak_rss_mb": "MB"}
    for name, value in rec["figures"].items():
        print("metric %s %.6g %s (%s)" % (name, value, figure_units.get(name, "s"),
                                          basis.get(name, "median of " + passes)))
    print("metric ops_failed %.6g share (%d of %d op calls)"
          % (rec["failed"] / rec["attempted"], rec["failed"], rec["attempted"]))
    if rec["trace"]:
        for name, value in rec["metrics"].items():
            print("layer %s %.6g %s (median of %d traced cycles)"
                  % (name, value, units[name], rec["cycles"]))
    for name, digest in rec["digests"].items():
        print("digest %s %s" % (name, digest))
    print("payload_digest %s" % rec["payload_digest"])
    for p in rec["problems"]:
        print("problem %s" % p)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.selfcheck:
        problems = spans.selfcheck() + ["bad metric name %r" % n for n in _units(bench)
                                        if not spans.METRIC_NAME.match(n)]
        print("\n".join(problems) or "selfcheck ok")
        return 1 if problems else 0
    if not (SRC / "orthofield" / "cli.py").is_file():
        print("no orthofield sources at %s; run from a full checkout" % SRC, file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        rec = run_workload(bench, name, args.seed, seconds, args.trace)
        if not rec["metrics"]:
            for p in rec["problems"]:
                print("problem %s" % p, file=sys.stderr)
            print("%s: no round completed" % name, file=sys.stderr)
            return 1
        (OUT / ("%s-seed%d-trace%d.json" % (name, args.seed, args.trace))).write_text(
            json.dumps(rec, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        report(bench, rec)
        records.append(rec)

    units = _units(bench)
    prefix = len(records) > 1
    line = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {("%s.%s" % (r["workload"], k) if prefix else k): {"value": v, "unit": units[k]}
                    for r in records for k, v in r["metrics"].items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
