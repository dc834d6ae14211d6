"""JSON conventions shared by the file formats and the CLI.

Rationals serialize as ``"p/q"`` strings (integers as plain JSON numbers),
floats as their shortest round-trip decimal. Parsing is the inverse: JSON
integers stay exact, ``"p/q"`` strings (``-?digits/digits``, ASCII) become
fractions, other numbers are floats. Other strings, non-finite floats, zero
denominators, non-object documents and documents nested beyond the parser's
recursion limit are rejected.
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


def vec_from_json(doc) -> Vec:
    if not isinstance(doc, list):
        raise ValueError(f"expected a list of scalars, got {doc!r}")
    return tuple(scalar_from_json(x) for x in doc)


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
