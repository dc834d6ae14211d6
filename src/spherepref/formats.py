"""JSON conventions shared by the file formats and the CLI.

Results render through :func:`to_json`, which each ``to_dict`` hands its
fields: rationals serialize as ``"p/q"`` strings (integers as plain JSON
numbers), floats as their shortest round-trip decimal, and booleans and
other non-numbers are refused. Parsing is the inverse: JSON integers stay
exact, ``"p/q"`` strings (``-?digits/digits``, ASCII) become fractions,
other numbers are floats. Other strings, non-finite floats, zero
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
        n, d = s.as_integer_ratio()
        return n if d == 1 else f"{n}/{d}"
    if isinstance(s, float):
        return s
    raise ValueError(f"unsupported scalar type: {type(s).__name__}")


_SCALARS = {int, Fraction, float}  # by exact type: isinstance(v, Fraction) is a slow ABC check


def to_json(v):
    """JSON for a result: None as None, a tuple, list or dict entry by entry
    (keys as they are), an object through its ``to_dict``, else a scalar."""
    if type(v) in _SCALARS:  # first: most values are scalars
        return scalar_to_json(v)
    if v is None:
        return None
    if isinstance(v, (tuple, list)):
        return [to_json(x) for x in v]
    if isinstance(v, dict):
        return {k: to_json(x) for k, x in v.items()}
    return v.to_dict() if hasattr(v, "to_dict") else scalar_to_json(v)


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
