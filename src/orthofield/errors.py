"""Exception taxonomy shared across the package, the one reader of JSON
text, and the checks of every input field.

Every error raised on purpose derives from OrthofieldError so callers
(and the command line driver) can separate "the input was bad" from a
genuine crash.  Each class here is raised by package code; the dyadic
site errors of the single-field test oracle (tests/single_field.py)
derive from OrthofieldError there.
"""

import json
import math
import numbers
import reprlib
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


class NumericFailureError(OrthofieldError, RuntimeError):
    """A quadrature or grid sup did not converge / stabilize."""


class InsufficientDataError(OrthofieldError, ValueError):
    """Too few (or degenerate) samples for the requested estimate."""


class DegenerateModulusError(OrthofieldError, ValueError):
    """Modulus is not increasing on (0, 1] at the checked resolution."""


def read_json(what: str, text):
    """The value a JSON text (a str, or bytes in UTF-8) holds.  A text
    that is not UTF-8 or not JSON, nests past the recursion limit or
    holds an integer past the digit limit is one InvalidInputError that
    names what and gives the decoder's one-line reason, not the text."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as exc:
        raise InvalidInputError("%s is not JSON: %s" % (what, exc)) from exc


def quote(value) -> str:
    """value in brief for an error message: reprlib's bounded repr, or
    an integer's size when it is past repr's digit limit."""
    try:
        return reprlib.repr(value)
    except ValueError:  # int to str's digit limit, maybe inside a container
        return ("an integer of %d bits" % value.bit_length() if isinstance(value, int)
                else "a value too long to quote")


def check_object(what: str, data, required=(), optional=None) -> dict:
    """data itself once it is a JSON object that holds every required
    key and, unless optional is None, no key outside required and
    optional (its error names three of those at most)."""
    if not isinstance(data, dict):
        raise InvalidInputError("%s must be a JSON object, not %s" % (what, quote(data)))
    missing = [key for key in required if key not in data]
    if missing:
        raise InvalidInputError("%s needs %s" % (what, ", ".join(map(repr, missing))))
    allowed = set(required) | set(data if optional is None else optional)
    unread = sorted(set(data) - allowed, key=repr)
    if unread:
        raise InvalidInputError("%s does not read %s%s" % (what, ", ".join(map(quote, unread[:3])),
                                "" if len(unread) < 4 else " and %d more" % (len(unread) - 3)))
    return data


def check_kind(what: str, data, kinds: dict, optional=False) -> str:
    """The "kind" of a JSON object whose other keys are those kinds[kind]
    lists: all of them, or any of them when optional is set."""
    kind = check_object(what, data).get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise InvalidInputError("unknown %s kind %s" % (what, quote(kind)))
    keys = ("kind",) + tuple(kinds[kind])
    check_object("%s %r" % (what, kind), data, keys[:1] if optional else keys, keys)
    return kind


def check_number(what: str, value, lo=-math.inf, hi=math.inf, integer=False, above=False):
    """value (an int if integer is set) once it is a finite JSON number
    with lo <= value <= hi, or lo < value <= hi when above is set.  A
    NumPy number is read as the Python number of its value first: a
    narrow float's own type would round the largest double to inf."""
    kind = numbers.Integral if integer else numbers.Real
    number = isinstance(value, kind) and not isinstance(value, bool)
    if number and type(value) not in (int, float):
        value = int(value) if isinstance(value, numbers.Integral) else float(value)
    if not number or not abs(value) <= sys.float_info.max:  # nan, inf and huge integers
        raise InvalidInputError("%s must be %s, not %s" % (
            what, "an integer" if integer else "a finite number", quote(value)))
    if not (lo < value if above else lo <= value) or value > hi:
        raise InvalidRangeError("%s must be in %s%s, %s], not %r"
                                % (what, "(" if above else "[", lo, hi, value))
    return value
