"""Command line front end.

One subcommand per experiment; the experiment payload comes from a JSON
config file, with --seed and --threads as overrides.  Exit codes: 0 when
every verdict is PASS (or the experiment is purely informational), 2
when a verdict is FAIL, 1 for anything that prevented a verdict
(malformed config, missing file, invalid arguments, numeric failure).

Before the first experiment runs, main sets the process allocator
policy once, where the C library is glibc (elsewhere it does nothing;
no library module touches the allocator).  A Monte Carlo experiment
allocates and frees arrays of one replica block over and over: about
1 MiB each (lattice._BLOCK_CELLS cells) on lattices of up to that many
cells, and one replica's array, up to 16 MiB, on larger ones.
glibc's defaults serve an allocation above the mmap threshold with a
fresh mapping and hand freed memory at the top of the heap back to the
system above the trim threshold, so each block faults its pages in
anew.  Both thresholds follow the block budget (lattice._BLOCK_BYTES,
16 MiB, the most one block array holds): main raises the mmap
threshold to twice the budget, 32 MiB, the glibc maximum on 64-bit
machines, so block arrays come from the heap, and sets the trim
threshold to the budget, so freed blocks are reused.  Both must be set:
setting one switches off glibc's dynamic adjustment of the other.  On
the Monte Carlo benchmark the mmap threshold alone was no faster than
the defaults, and the trim threshold alone was slower.
A 64 MiB trim threshold was no faster, and up to the trim threshold of
freed memory stays resident, so the smaller value is kept.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import sys

from .errors import OrthofieldError
from .harness import EXPERIMENTS, config_from_dict, run_experiment
from .lattice import _BLOCK_BYTES


# glibc mallopt parameters (malloc.h) and the values main sets, see the
# module docstring; constants, not options
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_ALLOCATOR_POLICY = ((_M_MMAP_THRESHOLD, 2 * _BLOCK_BYTES), (_M_TRIM_THRESHOLD, _BLOCK_BYTES))


def _libc():
    """The symbols of this process, the C library's among them."""
    return ctypes.CDLL(None)


@functools.cache
def _set_allocator_policy() -> bool:
    """Apply _ALLOCATOR_POLICY once per process, in order, stopping at
    a setting glibc refuses; False then and where the C library is not
    glibc."""
    try:
        libc = _libc()
        libc.gnu_get_libc_version  # glibc only: other mallopts read other parameters
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all(mallopt(param, value) == 1 for param, value in _ALLOCATOR_POLICY)


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors, which this CLI
    reserves for FAIL verdicts; remap usage problems to status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(1)


@functools.cache  # parse_args leaves the parser as it was, so one serves every main call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="orthofield", description=__doc__)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help="run the %s experiment" % name)
        p.add_argument("--config", help="JSON experiment config", default=None)
        p.add_argument("--out", help="write the report here (default stdout)", default=None)
        p.add_argument("--threads", type=int, default=None, help="worker threads")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    data = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print("config error: %s" % exc, file=sys.stderr)
            return 1
        if not isinstance(data, dict):
            print("config error: the top level must be a JSON object", file=sys.stderr)
            return 1
    if data.get("experiment", args.experiment) != args.experiment:
        print("config is for experiment %r, not %r" % (data["experiment"], args.experiment),
              file=sys.stderr)
        return 1
    data["experiment"] = args.experiment
    if args.seed is not None:
        data["seed"] = args.seed
    if args.threads is not None:
        data["threads"] = args.threads

    _set_allocator_policy()
    try:
        report = run_experiment(config_from_dict(data))
    except OrthofieldError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    text = report.to_json()
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print("output error: %s" % exc, file=sys.stderr)
            return 1
    else:
        print(text)
    print("verdict: %s (%.2fs)" % (report.verdict, report.wall_clock_s), file=sys.stderr)
    return 0 if report.verdict in ("PASS", "INFO") else 2


if __name__ == "__main__":
    sys.exit(main())
