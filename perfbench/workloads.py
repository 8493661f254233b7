"""Workload definitions: experiment configs generated from a workload seed.

A workload is a closed loop with one client: it runs its experiments in
sequence through ``orthofield.cli.main`` and waits for each verdict
before sending the next.  Every config seed is derived from the
workload seed, so the same seed gives the same inputs and the same
report payloads.

Replica counts are sized so that the effects the benchmark must keep
visible stay visible: 8192 replicas of 64x64 keep ~250 MB of retained
block views alive in ``verify-bound``, and 10000 replicas of 64x64 do
the same in ``fdd``; the serial workload runs every block on the main
thread, where each 64-replica block takes thousands of minor faults.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("mc-tail", "serial-regularity", "constants-cold")

_VB_REPLICAS = 8192
_FDD_REPLICAS = 10000
_HOLDER_REPLICAS = 500
_CRIT03_GRID = [48.0 + 96.0 * i / 9 for i in range(10)]
_ITER_LOG = {"c": math.exp(4.0), "L": {"kind": "iter_log"}}
_KS_ALLOWANCE = 0.015

GAUSSIAN = {"variant": "iid_symmetric", "d": 2, "params": {"dist": "gaussian", "sigma": 1.0}}
WEIBULL = {"variant": "iid_symmetric", "d": 2,
           "params": {"dist": "weibull_symmetric", "gamma": 1.0}}
RADEMACHER = {"variant": "iid_symmetric", "d": 2, "params": {"dist": "rademacher"}}
PRODUCT = {"variant": "product_rademacher", "d": 2, "params": {}}


def lattice_shapes(cfg: dict) -> list:
    """Distinct lattice shapes one replica block of this experiment holds."""
    exp = cfg["experiment"]
    if exp == "tightness":
        m = cfg["exponents"]
        q = cfg["axis_q"] - 1
        return [[2 ** (mu - j) if u == q else 2 ** mu for u, mu in enumerate(m)]
                for j in range(cfg["j_from"], m[q] + 1)]
    if exp == "holder-norm":
        return [list(s) for s in cfg["shapes"]]
    if "shape" in cfg:
        return [list(cfg["shape"])]
    return []


def ks_threshold(replicas: int) -> float:
    """The fdd experiment's KS acceptance threshold at R replicas."""
    return 1.36 / math.sqrt(replicas) + _KS_ALLOWANCE


def mc_cells(cfg: dict) -> int:
    """Lattice cells the experiment generates: replicas x cells per replica."""
    return cfg.get("replicas", 0) * sum(math.prod(s) for s in lattice_shapes(cfg))


def _op(name, group, cfg, expect, threads=None):
    """One experiment call; ``group`` names the end-to-end figure its
    time adds to."""
    argv = [cfg["experiment"], "--config", None]
    if threads is not None:
        argv += ["--threads", str(threads)]
    return {"name": name, "group": group, "config": cfg, "argv": argv, "expect": expect,
            "cells": mc_cells(cfg)}


def build(workload: str, seed: int) -> dict:
    """The plan of one workload: its ops in order, the dimensions whose
    bound constants its set-up computes, and how many passes over the
    ops one round makes (a pass of ``constants-cold`` must start cold,
    so it makes one).  ``argv[2]`` is filled with the config path once
    the config file is written."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % (workload,))
    rng = random.Random("%s:%d" % (workload, seed))

    def s():
        return rng.randrange(1, 2**31)

    if workload == "mc-tail":
        threads = 2
        ops = [
            _op("vb_product", "vb_product_s", {
                "experiment": "verify-bound", "generator": PRODUCT, "shape": [64, 64],
                "x_grid": _CRIT03_GRID, "replicas": _VB_REPLICAS, "seed": s(),
                "bound": {"kind": "bounded", "K": 1.0}}, "PASS", threads),
            _op("vb_iid", "vb_iid_s", {
                "experiment": "verify-bound", "generator": RADEMACHER, "shape": [64, 64],
                "x_grid": _CRIT03_GRID, "replicas": _VB_REPLICAS, "seed": s(),
                "bound": {"kind": "two-term", "y": 16.0,
                          "tail": {"kind": "bounded", "K": 1.0}}}, "PASS", threads),
            _op("vb_ld", "vb_ld_s", {
                "experiment": "verify-bound", "generator": WEIBULL, "shape": [64, 64],
                "x_grid": [0.25, 0.5, 1.0], "replicas": _VB_REPLICAS, "seed": s(),
                "bound": {"kind": "large-deviation", "gamma": 1.0}}, "PASS", threads),
            _op("tightness", "tightness_s", {
                "experiment": "tightness", "generator": GAUSSIAN, "exponents": [8, 8],
                "eps": 1.0, "axis_q": 1, "j_from": 2, "replicas": 400, "seed": s(),
                "modulus": _ITER_LOG}, "INFO", threads),
        ]
        return {"workload": workload, "threads": threads, "warm_constants": [2],
                "passes": 2, "ops": ops}

    if workload == "serial-regularity":
        threads = 1
        ops = []
        for label, gen, shape in (("gaussian", GAUSSIAN, [16, 16]),
                                  ("weibull", WEIBULL, [16, 16]),
                                  ("rademacher", RADEMACHER, [64, 64])):
            for t in ([1.0, 1.0], [0.5, 1.0], [0.25, 0.75]):
                ops.append(_op("fdd_%s_%g_%g" % (label, t[0], t[1]), "fdd_s", {
                    "experiment": "fdd", "generator": gen, "shape": shape, "t_point": t,
                    "replicas": _FDD_REPLICAS, "seed": s()}, "PASS", threads))
        ops.append(_op("induction", "induction_s", {
            "experiment": "induction-check", "generator": GAUSSIAN, "shape": [32, 32],
            "x_grid": [0.25 + 0.25 * i for i in range(10)], "replicas": 4000,
            "seed": s()}, "PASS", threads))
        ops.append(_op("holder_norm", "holder_norm_s", {
            "experiment": "holder-norm", "generator": GAUSSIAN,
            "shapes": [[8, 8], [16, 16], [32, 32]], "modulus": _ITER_LOG,
            "replicas": _HOLDER_REPLICAS, "seed": s()}, "INFO", threads))
        return {"workload": workload, "threads": threads, "warm_constants": [],
                "passes": 1, "ops": ops}

    ops = [_op("constants", "constants_s", {"experiment": "constants", "seed": s()}, "PASS")]
    return {"workload": workload, "threads": None, "warm_constants": [], "passes": 1,
            "ops": ops}
