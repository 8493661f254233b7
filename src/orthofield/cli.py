"""Command line front end.

One subcommand per experiment; the experiment payload comes from a JSON
config file, with --seed and --threads as overrides.  Exit codes: 0 when
every verdict is PASS (or the experiment is purely informational), 2
when a verdict is FAIL, 1 with one "error: " line on stderr for anything
that prevented a verdict or its report (an unreadable, undecodable or
invalid config, a usage error, a numeric failure, an unwritable report).

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
import contextlib
import ctypes
import functools
import os
import sys

from .errors import InvalidInputError, OrthofieldError, check_object, quote, read_json
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
    reserves for FAIL verdicts; a usage error is an InvalidInputError
    with argparse's own message, which names the argument."""

    def error(self, message):
        raise InvalidInputError(message)


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
        data = {}
        if args.config is not None:
            with open(args.config, "rb") as fh:
                data = read_json("config %r" % args.config, fh.read())
        check_object("config", data)
        if data.setdefault("experiment", args.experiment) != args.experiment:
            raise InvalidInputError("config is for experiment %s, not %r"
                                    % (quote(data["experiment"]), args.experiment))
        for key in ("seed", "threads"):  # the command line's overrides
            if getattr(args, key) is not None:
                data[key] = getattr(args, key)
        _set_allocator_policy()
        report = run_experiment(config_from_dict(data))
        with (contextlib.nullcontext(sys.stdout) if args.out is None
              else open(args.out, "w", encoding="utf-8")) as fh:
            fh.write(report.to_json() + "\n")
            fh.flush()
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (OrthofieldError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):  # stdout's reader left: exit flushes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print("verdict: %s (%.2fs)" % (report.verdict, report.wall_clock_s), file=sys.stderr)
    return 0 if report.verdict in ("PASS", "INFO") else 2


if __name__ == "__main__":
    sys.exit(main())
