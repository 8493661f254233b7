"""Exception taxonomy shared across the package, and the checks every JSON input parser uses.

Every error raised on purpose derives from OrthofieldError so callers
(and the command line driver) can separate "the input was bad" from a
genuine crash.
"""

import math
import numbers
import sys


class OrthofieldError(Exception):
    """Base class for all deliberate errors raised by this package."""


class InvalidInputError(OrthofieldError, ValueError):
    """Malformed argument: wrong shape, unknown variant, bad JSON."""


class InvalidRangeError(OrthofieldError, ValueError):
    """Argument outside its mathematical domain (x <= 0, h > 1, ...)."""


class TooLargeError(OrthofieldError, ValueError):
    """One replica's array (a lattice, a level grid, node pair draws)
    would exceed the block budget, lattice._BLOCK_BYTES."""


class NotTranslatableError(OrthofieldError, ValueError):
    """Generator variant does not support evaluation on shifted sites."""


class NumericFailureError(OrthofieldError, RuntimeError):
    """A quadrature or grid sup did not converge / stabilize."""


class InsufficientDataError(OrthofieldError, ValueError):
    """Too few (or degenerate) samples for the requested estimate."""


class DegenerateModulusError(OrthofieldError, ValueError):
    """Modulus is not increasing on (0, 1] at the checked resolution."""


class InvalidSiteError(OrthofieldError, ValueError):
    """Dyadic site outside its level grid, or not in the level set."""


class NoParentsError(OrthofieldError, ValueError):
    """Corner sites of a level-0 grid have no parent pair."""


def check_object(what: str, data, required=(), optional=None) -> dict:
    """data itself once it is a JSON object that holds every required
    key and, unless optional is None, no key outside required and
    optional."""
    if not isinstance(data, dict):
        raise InvalidInputError("%s must be a JSON object, not %r" % (what, data))
    missing = [key for key in required if key not in data]
    if missing:
        raise InvalidInputError("%s needs %s" % (what, ", ".join(map(repr, missing))))
    allowed = set(required) | set(data if optional is None else optional)
    unread = sorted(map(repr, set(data) - allowed))
    if unread:
        raise InvalidInputError("%s does not read %s" % (what, ", ".join(unread)))
    return data


def check_kind(what: str, data, kinds: dict, optional=False) -> str:
    """The "kind" of a JSON object whose other keys are those kinds[kind]
    lists: all of them, or any of them when optional is set."""
    kind = check_object(what, data).get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise InvalidInputError("unknown %s kind %r" % (what, kind))
    keys = ("kind",) + tuple(kinds[kind])
    check_object("%s %r" % (what, kind), data, keys[:1] if optional else keys, keys)
    return kind


def check_number(what: str, value, lo=-math.inf, hi=math.inf, integer=False, above=False):
    """value itself once it is a finite JSON number (an integer if asked)
    with lo <= value <= hi, or lo < value <= hi when above is set."""
    kind = numbers.Integral if integer else numbers.Real
    if (isinstance(value, bool) or not isinstance(value, kind)
            or not abs(value) <= sys.float_info.max):  # nan, inf and huge integers
        raise InvalidInputError("%s must be %s, not %r"
                                % (what, "an integer" if integer else "a finite number", value))
    if not (lo < value if above else lo <= value) or value > hi:
        raise InvalidRangeError("%s must be in %s%s, %s], not %r"
                                % (what, "(" if above else "[", lo, hi, value))
    return value
