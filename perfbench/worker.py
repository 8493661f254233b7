"""One round of a workload, in a fresh interpreter.

Started by run.py with the checkout's ``src`` on PYTHONPATH.  It imports
orthofield, computes the constants the plan names (that is set-up), notes the
monotonic clock, then runs every op of the plan in order through
``orthofield.cli.main``, ``--passes`` times over, and prints one JSON
line with per-op timings, verdicts, exit codes, payloads and payload
digests, and its own resource usage.  With ``--trace 1`` the layers are
wrapped before set-up; the per-layer metrics ride along in the JSON
line and the spans are written to ``--spans`` at exit.

CLOCK_MONOTONIC is one clock for the whole machine on Linux, so the
parent subtracts its own spawn time from ``ready`` to get set-up time
including interpreter start.

With ``--oracle`` it instead recomputes the KS statistic of every fdd op
of the plan without the harness, and prints them as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import math
import sys
import time

# E X^2 of each fdd field law: the symmetric Weibull(1) law has
# |X| = ln 2 + Exp(1), so E X^2 = 2 + 2 ln 2 + (ln 2)^2
_SITE_VARIANCE = {"gaussian": 1.0, "rademacher": 1.0,
                  "weibull_symmetric": 2.0 + 2.0 * math.log(2.0) + math.log(2.0) ** 2}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _run_op(cli, op, threads):
    argv = list(op["argv"])
    if threads is not None and "--threads" in argv:
        argv[argv.index("--threads") + 1] = str(threads)
    out, err = io.StringIO(), io.StringIO()
    rec = {"name": op["name"], "rc": None, "error": None, "verdict": None,
           "digest": None, "payload": None}
    t0 = _now()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rec["rc"] = cli.main(argv)
    except Exception as exc:  # an op that raises is counted as failed; the loop goes on
        rec["error"] = "%s: %s" % (type(exc).__name__, exc)
    rec["dur_s"] = _now() - t0
    if rec["error"] is None and out.getvalue().strip():
        payload = json.loads(out.getvalue())
        payload.pop("timing", None)
        canonical = json.dumps(payload, sort_keys=True)
        rec["digest"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        rec["verdict"] = payload.get("verdict")
        rec["payload"] = payload
    if rec["rc"] not in (0, 2):
        rec["stderr"] = err.getvalue()[-2000:]
    return rec


def fdd_ks(cfg: dict) -> float:
    """KS distance of an fdd config's samples, recomputed without the
    harness: the field on the box [1, k] is generated directly (the
    generator is counter-mode, so these are the values of that box of
    the full lattice) and summed."""
    import numpy as np
    from scipy.special import ndtr

    from orthofield.generators import generate_batch, spec_from_json

    spec = spec_from_json(json.dumps(cfg["generator"]))
    k = tuple(round(t * n) for t, n in zip(cfg["t_point"], cfg["shape"]))
    reps = cfg["replicas"]
    sums = [generate_batch(spec, k, cfg["seed"], start, min(1000, reps - start))
            .reshape(-1, math.prod(k)).sum(axis=1) for start in range(0, reps, 1000)]
    x = np.sort(np.concatenate(sums)) / math.sqrt(math.prod(cfg["shape"]))
    sigma2 = _SITE_VARIANCE[cfg["generator"]["params"]["dist"]] * math.prod(cfg["t_point"])
    cdf = ndtr(x / math.sqrt(sigma2))
    steps = np.arange(1, reps + 1) / reps
    return float(np.max(np.maximum(steps - cdf, cdf - (steps - 1.0 / reps))))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--threads", type=int, default=None)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--oracle", action="store_true")
    args = ap.parse_args()
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)

    import orthofield
    import orthofield.cli
    import orthofield.bounds

    here = os.path.dirname(os.path.abspath(orthofield.__file__))
    if os.path.dirname(here) != os.path.abspath(args.src):
        print("orthofield imported from %s, not from %s" % (here, args.src), file=sys.stderr)
        return 3
    if args.oracle:
        print(json.dumps({op["name"]: fdd_ks(op["config"]) for op in plan["ops"]
                          if op["config"]["experiment"] == "fdd"}))
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install(orthofield)
        tracer.op = "setup"
    for d in plan["warm_constants"]:
        orthofield.bounds.recurse_constants(d)
    ready = _now()

    passes = []
    for _ in range(args.passes):
        ops = []
        t_start = _now()
        for op in plan["ops"]:
            if tracer is not None:
                tracer.op = op["name"]
            ops.append(_run_op(orthofield.cli, op, args.threads))
        passes.append({"seq_s": _now() - t_start, "ops": ops})

    ru = resource.getrusage(resource.RUSAGE_SELF)
    result = {"ready": ready, "passes": passes, "maxrss_mb": ru.ru_maxrss / 1024.0}
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
