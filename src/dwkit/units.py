"""Unit-suffixed quantity parsing, and field tables for JSON input.

All quantities are stored internally in base SI units: bytes, bytes/s,
seconds, watts.  Decimal prefixes only (GB = 10^9 bytes); binary prefixes
(GiB, MiB, ...) are rejected so configs cannot silently mix conventions.
"""
from __future__ import annotations

import math
import re
import reprlib

from .errors import ConfigError, UnitError

_PREFIX = {"": 1.0, "k": 1e3, "K": 1e3, "M": 1e6, "G": 1e9, "T": 1e12,
           "P": 1e15}

_QUANTITY_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([A-Za-z/]*)\s*$")

# dimension -> base unit symbols accepted after an optional decimal prefix
_BASE_UNITS = {
    "bytes": ("B",),
    "rate": ("B/s",),
    "seconds": ("s", "sec"),
    "watts": ("W",),
}


def _split(text):
    m = _QUANTITY_RE.match(str(text))
    if m is None:
        raise UnitError(text, "expected '<number><unit>'")
    return float(m.group(1)), m.group(2)


def parse_quantity(text, dimension):
    """Parse ``text`` (number or unit-suffixed string) to base SI units.

    ``dimension`` is one of ``bytes``, ``rate``, ``seconds``, ``watts``.
    Bare numbers are taken as already being in base units; a boolean is
    not a number, and NaN and infinities are refused.
    """
    try:
        value = (float(text) if type(text) in (int, float)
                 else _base_units(text, dimension))
    except OverflowError:   # an integer past the largest float
        value = math.inf
    if not math.isfinite(value):
        raise UnitError(text, "not a finite number")
    return value


def _base_units(text, dimension):
    value, suffix = _split(text)
    if suffix == "":
        return value
    if suffix.lower().startswith(("ki", "mi", "gi", "ti", "pi")):
        raise UnitError(text, "binary prefixes are not accepted; "
                               "use decimal units (GB = 10^9)")
    for base in _BASE_UNITS[dimension]:
        for prefix, scale in _PREFIX.items():
            if suffix == prefix + base:
                return value * scale
    raise UnitError(text, f"unit {suffix!r} does not measure {dimension}")


def parse_bytes(text):
    return parse_quantity(text, "bytes")


def parse_rate(text):
    return parse_quantity(text, "rate")


def parse_seconds(text):
    return parse_quantity(text, "seconds")


def parse_watts(text):
    return parse_quantity(text, "watts")


# --- field tables ---
#
# A table maps each key of a JSON object to a converter: a function that
# returns the value in the form its user takes, or raises ValueError (a
# UnitError is one) with a reason that follows the value's name.

def normalize(obj, fields, context, required=()):
    """``obj`` normalized by ``fields``, or a ConfigError that says why."""
    try:
        return table(fields, required)(obj)
    except ValueError as exc:
        raise ConfigError(f"{context} {exc}") from None


def _refuse(expected, value):
    raise ValueError(f"must be {expected}, got {reprlib.repr(value)}")


def table(fields, required=()):
    """Converter: a JSON object, normalized by ``fields``; the object
    itself when every value is already in normal form."""
    def convert_object(obj):
        if type(obj) is not dict:
            _refuse("a JSON object", obj)
        out = obj   # copied only once a value converts to a new object
        for key, value in obj.items():
            convert = fields.get(key)
            if convert is string and type(value) is str:
                continue   # the commonest field, checked without a call
            if convert is None:
                raise ValueError(f"has unknown key(s) "
                                 f"{sorted(obj.keys() - fields.keys())}")
            try:
                new = convert(value)
            except ValueError as exc:
                gap = "" if str(exc).startswith("[") else " "
                raise ValueError(f"{key}{gap}{exc}") from None
            if new is not value:
                if out is obj:
                    out = dict(obj)
                out[key] = new
        for key in required:
            if key not in out:
                raise ValueError(f"lacks required key(s) "
                                 f"{sorted(set(required) - out.keys())}")
        return out
    return convert_object


def list_of(convert):
    """Converter: a JSON list (never a string) of values ``convert``
    accepts."""
    def convert_list(value):
        if type(value) is not list:
            _refuse("a list", value)
        out = []
        for i, item in enumerate(value):
            try:
                out.append(convert(item))
            except ValueError as exc:
                raise ValueError(f"[{i}] {exc}") from None
        return out
    return convert_list


def accept(expected, test, cast=None):
    """Converter: a value that passes ``test`` (as ``cast`` makes it)."""
    def convert(value):
        if not test(value):
            _refuse(expected, value)
        return value if cast is None else cast(value)
    return convert


string = accept("a string", lambda v: type(v) is str)
boolean = accept("true or false", lambda v: type(v) is bool)


def choice(*options):
    return accept(f"one of {list(options)}",
                  lambda v: type(v) is str and v in options)


def integer(minimum=1 - 2**53):
    """Converter: a JSON integer (never a float or a boolean) of the range
    RFC 8259 calls interoperable, |v| < 2**53, and at least ``minimum``."""
    return accept(f"an integer in [{minimum}, 2**53)"
                  if minimum > 1 - 2**53 else "an integer of |v| < 2**53",
                  lambda v: type(v) is int and minimum <= v < 2**53)


def fraction(zero=True):
    """Converter: a number in [0, 1], or in (0, 1] without ``zero``."""
    return accept(f"a number in {'[' if zero else '('}0, 1]",
                  lambda v: type(v) in (int, float) and 0 <= v <= 1
                  and (zero or v > 0), float)


def optional(convert):
    return lambda value: None if value is None else convert(value)


def quantity(dimension, positive=False):
    """Converter: a quantity of ``dimension`` (see parse_quantity), >= 0,
    or > 0 if ``positive``."""
    def convert(value):
        # a float needs no parsing; NaN and infinities fail the range
        q = (value if type(value) is float
             else parse_quantity(value, dimension))
        if not 0 <= q < math.inf or positive and q == 0:
            _refuse(f"a finite quantity {'>' if positive else '>='} 0",
                    value)
        return q
    return convert
