"""Vector kernels over exact rationals or binary floats.

Vectors are plain tuples. Entries are ``int``/``fractions.Fraction`` in exact
mode or ``float`` in float mode; arithmetic follows the entry types, so one
set of functions serves both modes. Comparisons that feed yes/no decisions
(rationalizability) are run in exact mode so no tolerance is involved.

Exact vectors with a ``Fraction`` entry go through one integer kernel: their
denominators are cleared once (:func:`clear_denominators`), the products and
sums are taken in ``int`` and a single ``Fraction`` is built per result
(:func:`dot`) or per entry (a Gram-Schmidt step of :func:`project_out`),
instead of a gcd-normalized ``Fraction`` per operation. The values and the
result types (``int``, ``Fraction`` or ``float``) are those of plain
entry-by-entry arithmetic; floats, all-``int`` dot products and mixed
vectors keep that arithmetic, in the same order.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction, float]
Vec = tuple

EXACT = "exact"
FLOAT = "float"

# Float-mode projection residual target: |dot(result, b)| <= PROJ_TOL*|v||b|.
PROJ_TOL = 1e-12


class DimensionMismatch(ValueError):
    """Two vectors of different lengths were combined."""


def _same_dim(a: Sequence, b: Sequence) -> None:
    if len(a) != len(b):
        raise DimensionMismatch(f"dimension mismatch: {len(a)} vs {len(b)}")


def _rational(v: Sequence) -> bool:
    """True when every entry is exactly an ``int`` or a ``Fraction``."""
    return {int, Fraction}.issuperset(map(type, v))


def dot(a: Vec, b: Vec) -> Scalar:
    """Inner product sum(a_i * b_i); exact when entries are rational.

    When one vector starts with a ``Fraction`` and both are all ``int`` or
    ``Fraction``, the sum is A.B / (La*Lb) over the cleared integer vectors:
    one ``Fraction``, equal to the entry-by-entry sum. Any other input (floats,
    all ``int``, a mix with floats) takes the left-to-right loop, so a float
    result keeps its bits and an all-``int`` one stays ``int``.
    """
    n = len(a)
    if n != len(b):
        raise DimensionMismatch(f"dimension mismatch: {n} vs {len(b)}")
    # the first entry's type sends floats to the loop before any scan
    if (n and type(a[0]) is not float and Fraction in (type(a[0]), type(b[0]))
            and _rational(a) and (b is a or _rational(b))):
        la, ia = clear_denominators(a)
        lb, ib = (la, ia) if b is a else clear_denominators(b)
        return Fraction(sum(map(operator.mul, ia, ib)), la * lb)
    s = 0
    for i in range(n):
        s += a[i] * b[i]
    return s


def sq_norm(a: Vec) -> Scalar:
    """Squared Euclidean norm dot(a, a); no square root is taken."""
    return dot(a, a)


def add(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise DimensionMismatch(f"dimension mismatch: {len(a)} vs {len(b)}")
    return tuple(map(operator.add, a, b))


def sub(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise DimensionMismatch(f"dimension mismatch: {len(a)} vs {len(b)}")
    return tuple(map(operator.sub, a, b))


def scale(alpha: Scalar, a: Vec) -> Vec:
    return tuple(alpha * x for x in a)


def neg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def zeros(n: int) -> Vec:
    return (0,) * n


def basis_vector(n: int, i: int, one: Scalar = 1) -> Vec:
    return tuple(one if j == i else 0 for j in range(n))


def is_zero(a: Vec) -> bool:
    return all(x == 0 for x in a)


def is_exact(a: Iterable[Scalar]) -> bool:
    """True when no entry is a binary float."""
    return all(not isinstance(x, float) for x in a)


def to_exact(a: Vec) -> Vec:
    """Convert entries to rationals; floats convert verbatim (dyadic)."""
    return tuple(x if isinstance(x, (int, Fraction)) else Fraction(x) for x in a)


def to_float(a: Vec) -> Vec:
    return tuple(float(x) for x in a)


def norm(a: Vec) -> float:
    """Euclidean length as a float (float-mode helper)."""
    return math.sqrt(float(sq_norm(a)))


def normalize(a: Vec) -> Vec:
    """Unit vector along a, in float arithmetic."""
    n = norm(a)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return tuple(float(x) / n for x in a)


def clear_denominators(values: Iterable[Scalar]) -> tuple:
    """(L, [L * v for v in values]) in integers, with L the lcm of the values'
    denominators; a float is taken verbatim (dyadic)."""
    ratios = [v.as_integer_ratio() for v in values]
    L = math.lcm(*[d for _, d in ratios])
    return L, [a * (L // d) for a, d in ratios]


def _reduce(w: Vec, ortho: Sequence[Vec], unit: bool = False) -> Vec:
    """w minus its component along each u in turn; ``unit`` takes dot(u, u) as 1.

    For all-``int``/``Fraction`` w and u the step is, over the cleared
    integer vectors, (W*(U.U) - (W.U)*U) / (Lw*(U.U)): u's scale cancels, and
    each entry is one ``Fraction``.
    """
    for u in ortho:
        if not unit and type(w[0]) is not float and _rational(w) and _rational(u):
            lw, iw = clear_denominators(w)
            iu = clear_denominators(u)[1]
            uu = sum(map(operator.mul, iu, iu))
            wu = sum(map(operator.mul, iw, iu))
            den = lw * uu
            w = tuple(Fraction(x * uu - wu * y, den) for x, y in zip(iw, iu))
            continue
        coeff = dot(w, u) if unit else dot(w, u) / dot(u, u)
        w = tuple(w[i] - coeff * u[i] for i in range(len(w)))
    return w


def project_out(v: Vec, basis: Sequence[Vec]) -> Vec:
    """Remove from v its orthogonal projection onto span(basis).

    Gram-Schmidt drops zero and dependent basis vectors: classical and
    unnormalized for an exact basis, so entries stay rational (``Fraction``s,
    all-``int`` input included; one per entry and step); else modified,
    normalized and run twice. The result is orthogonal to every basis vector:
    exactly in exact mode, within PROJ_TOL*|v||b| in float mode.
    """
    for b in basis:
        _same_dim(v, b)
    basis = [b for b in basis if not is_zero(b)]
    exact = all(is_exact(b) for b in basis)
    ortho: list[Vec] = []
    for b in basis:
        w = _reduce(b, ortho)
        if exact:
            if not is_zero(w):
                ortho.append(w)
            continue
        # Second pass kills the residual components left by rounding.
        w = _reduce(w, ortho, unit=True)
        wn = norm(w)
        if wn > 1e-13 * max(1.0, norm(b)):
            ortho.append(tuple(x / wn for x in w))
    r = _reduce(v, ortho)
    if not is_exact(v) or any(not is_exact(u) for u in ortho):
        r = _reduce(r, ortho)
    return r
