"""One rule for every input document: a number is a finite real, never
a bool; an object has exactly its keys, each once; a list is empty only
where its reader allows it.  Each reader takes its value's path, such as
problem.constraints[0].rhs, and raises DomainError naming that path."""

import json
import re
import sys
from numbers import Integral, Real

import numpy as np

from .errors import DomainError

__all__ = ["is_number", "numbers_only", "load", "obj", "number", "cell",
           "one_of", "entries", "array"]


def is_number(value) -> bool:
    """The one test of a number: a real that is not a bool."""
    return isinstance(value, Real) and not isinstance(value, bool)


def numbers_only(value) -> bool:
    """Whether value is a number, a numeric array or a nesting of them."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iuf"
    if isinstance(value, (list, tuple)):
        return all(numbers_only(v) for v in value)
    return is_number(value)


def _fail(path: str, expected: str, value):
    shown = (f"a list of {len(value)}" if isinstance(value, (list, tuple))
             else "an object" if isinstance(value, dict)
             else json.dumps(value, default=repr))
    raise DomainError(f"{path}: expected {expected}, got {shown}")


def load(text: str, name: str):
    """The JSON document text, called name in its message.  An object
    that repeats a key is an error, where json would keep the last value."""
    def unique(pairs):
        out = {}
        for key, value in pairs:
            if key in out:
                raise DomainError(f"{name}: repeated key {json.dumps(key)}")
            out[key] = value
        return out

    try:
        return json.loads(text, object_pairs_hook=unique)
    except ValueError as exc:
        raise DomainError(f"{name}: not valid JSON: {exc}") from exc


def obj(value, path: str, required, optional=()) -> dict:
    """value, an object with the required keys and no others but optional."""
    if not isinstance(value, dict):
        _fail(path, "an object", value)
    for key in required:
        if key not in value:
            raise DomainError(f"{path}.{key}: missing required key")
    for key in value:
        if key not in required and key not in optional:
            raise DomainError(f"{path}.{key}: unknown key; expected one of "
                              f"{[*required, *optional]}")
    return value


def number(value, path: str, integer: bool = False):
    """value, a finite number (an integer if integer is set)."""
    if (not (is_number(value) and abs(value) <= sys.float_info.max)
            or integer and not isinstance(value, Integral)):
        _fail(path, "an integer" if integer else "a finite number", value)
    return value


# JSON's number grammar, and the non-finite spellings float() reads,
# which number() rejects by their value.  int() and float() also take
# digit grouping (1_000), a leading + and a bare point (.5, 5.), which
# JSON does not.
_NUMBER_TEXT = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
                          r"|[+-]?(?:nan|inf|infinity)", re.IGNORECASE)


def cell(text: str, path: str, integer: bool = False):
    """A CSV cell parsed as a number, then read by number's rule; a cell
    that spells no JSON number is read as the string it is."""
    if _NUMBER_TEXT.fullmatch(text.strip()):
        try:
            return number(int(text) if integer else float(text), path, integer)
        except ValueError:  # int() of a fraction, an exponent or nan
            pass
    return number(text, path, integer)


def one_of(value, path: str, choices) -> str:
    """value, one of the strings choices."""
    if not (isinstance(value, str) and value in choices):
        _fail(path, f"one of {list(choices)}", value)
    return value


def entries(value, path: str, length=None, allow_empty=False) -> list:
    """(path, item) for each item of value, a list of length items that is
    non-empty unless allow_empty is set."""
    if (not isinstance(value, (list, tuple)) or not (value or allow_empty)
            or length not in (None, len(value))):
        _fail(path, f"a list of {length}" if length else
              "a list" if allow_empty else "a non-empty list", value)
    return [(f"{path}[{i}]", item) for i, item in enumerate(value)]


def array(value, path: str, shape=(None,)) -> np.ndarray:
    """value, a rectangular nesting of numbers as a float array: shape
    fixes each depth's list length, or None lets the first list fix it."""
    shape = list(shape)

    def nest(item, where, depth):
        if depth == len(shape):
            number(item, where)
            return
        items = entries(item, where, shape[depth])
        shape[depth] = len(items)
        for sub, inner in items:
            nest(inner, sub, depth + 1)

    nest(value, path, 0)
    return np.array(value, dtype=float)
