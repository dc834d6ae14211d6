"""JSON conventions shared by the file formats and the CLI.

Rationals serialize as ``"p/q"`` strings (integers as plain JSON numbers),
floats as their shortest round-trip decimal. Parsing is the inverse: JSON
integers stay exact, ``"p/q"`` strings (``-?digits/digits``, ASCII) become
fractions, other numbers are floats. Other strings, non-finite floats, zero
denominators, non-object documents and documents nested beyond the parser's
recursion limit are rejected.

Each document's lists of scalars are read by one :func:`vec_parser`, which
parses each distinct ``"p/q"`` string once: a dataset on a coarse grid
repeats a few dozen strings hundreds of times. The strings seen are kept in
a dict that lives as long as the parser, one document; every entry gets the
value, type and error message that :func:`scalar_from_json` gives it.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .geometry import Scalar, Vec


def scalar_to_json(s: Scalar):
    if isinstance(s, bool):
        raise ValueError("booleans are not scalars")
    if isinstance(s, int):
        return s
    if isinstance(s, Fraction):
        if s.denominator == 1:
            return int(s)
        return f"{s.numerator}/{s.denominator}"
    if isinstance(s, float):
        return s
    raise ValueError(f"unsupported scalar type: {type(s).__name__}")


def scalar_from_json(v) -> Scalar:
    if isinstance(v, str):  # first: most scalars of a document are "p/q" strings
        num, _, den = v.partition("/")
        sign = num.rstrip("0123456789")  # "" or "-", no new string, when num is -?digits
        if not (v.isascii() and den.isdigit() and sign in ("", "-") and num != sign):
            raise ValueError(f'not a "p/q" scalar: {v!r}')
        try:
            return Fraction(int(num), int(den))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {v!r}") from None
    if isinstance(v, bool):
        raise ValueError("booleans are not scalars")
    if isinstance(v, int):
        return v
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"not a finite number: {v!r}")
        return v
    raise ValueError(f"not a scalar: {v!r}")


def vec_to_json(v: Vec) -> list:
    return [scalar_to_json(x) for x in v]


class _Strings(dict):
    """The ``"p/q"`` strings of one document, each parsed at its first
    lookup. Only strings are stored: 1, 1.0 and True are one key but parse
    to three things."""

    def __missing__(self, v):
        s = scalar_from_json(v)
        if type(v) is str:
            self[v] = s
        return s


def vec_parser():
    """The parser of the lists of scalars of one document: each distinct
    string is parsed once."""
    strings = _Strings()

    def parse(doc) -> Vec:
        if not isinstance(doc, list):
            raise ValueError(f"expected a list of scalars, got {doc!r}")
        try:
            return tuple([strings[x] for x in doc])
        except TypeError:  # an unhashable entry, which is no scalar
            return tuple(map(scalar_from_json, doc))

    return parse


def required(doc: dict, key: str):
    """doc[key], or a ValueError naming the missing field."""
    if key not in doc:
        raise ValueError(f'missing field "{key}"')
    return doc[key]


def dumps(doc) -> str:
    """Deterministic document rendering: fixed key order, fixed layout."""
    return json.dumps(doc, indent=2, sort_keys=True)


def load_document(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: the document is nested too deeply to parse") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: the top level must be a JSON object, not {type(doc).__name__}")
    return doc
