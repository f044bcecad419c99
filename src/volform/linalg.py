"""Exact linear algebra over the rationals.

:class:`SpanBuilder` is the one elimination engine: a fraction-free echelon
form over sparse integer vectors with an arbitrary ordered column space
(Laurent-monomial columns for kernels and spans, integer columns for dense
matrices), reduced when its rows are read.  :func:`row_echelon` is its dense
front end for rational rows, each scaled to integers, and :func:`solve_exact`
reads every column of ``A X = B`` from the reduced echelon form of
``[A | B]``, ``B = I`` for :func:`mat_inverse`.  :func:`det_bareiss` is
separate: a fraction-free determinant.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from operator import mul
from types import MappingProxyType
from typing import Callable, Hashable, Iterable, KeysView, Mapping, Sequence

from .algebra import _integral, exact_scalar
from .errors import GroupError

Matrix = tuple[tuple[Fraction, ...], ...]


def make_matrix(rows: Iterable[Iterable]) -> Matrix:
    """Rows of Fractions: a Fraction is kept, an int wrapped, and any other
    entry a ScalarError (``Fraction`` would read a float as some rational)."""
    return tuple(
        tuple(x if isinstance(x, Fraction) else Fraction(exact_scalar(x, "matrix entry", (r, c)))
              for c, x in enumerate(row))
        for r, row in enumerate(rows))


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def _scaled(a: Matrix) -> tuple[int, list[list[int]]]:
    """The lcm of the denominators of a's entries, and a's rows times it."""
    den = math.lcm(*(x.denominator for row in a for x in row))
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """A B, from the integer product of the operands each scaled once by the
    lcm of its denominators; one Fraction per output entry."""
    assert all(len(row) == len(b) for row in a)
    (da, ia), (db, ib) = _scaled(a), _scaled(b)
    den, columns = da * db, list(zip(*ib))
    return tuple(tuple(Fraction(sum(map(mul, row, col)), den) for col in columns) for row in ia)


def det_bareiss(a: Matrix) -> Fraction:
    """Determinant by fraction-free Bareiss elimination.

    The matrix is scaled to integers first (Bareiss needs an integral
    domain), by the lcm of its denominators; its n-th power divides the
    integer determinant at the end.
    """
    n = len(a)
    if n == 0:
        return Fraction(1)
    scale, m = _scaled(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot is None:
                return Fraction(0)
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return Fraction(sign * m[n - 1][n - 1], scale ** n)


def _eliminate(vec: dict, key: Hashable, row: dict) -> dict:
    """a*vec - c*row, where p and c are the entries of row and vec at ``key``,
    g = gcd(p, c) and a = p/g: integral, and 0 at ``key``.  Consumes vec."""
    p, c = row[key], vec[key]
    g = math.gcd(p, c)
    a, c = p // g, c // g
    out = {k: a * v for k, v in vec.items()} if a != 1 else vec
    for k, v in row.items():
        nv = out.get(k, 0) - c * v
        if nv:
            out[k] = nv
        else:
            del out[k]
    return out


def _primitive(vec: dict, pivot: Hashable) -> dict:
    """The vector over its content, signed so that the pivot entry is positive."""
    g = math.gcd(*vec.values())
    if vec[pivot] < 0:
        g = -g
    return vec if g == 1 else {k: v // g for k, v in vec.items()}


class SpanBuilder:
    """Incremental echelon form over sparse integer vectors, reduced on read.

    Vectors are dicts mapping hashable column keys to nonzero ints; inserting
    a Fraction is a TypeError (in the gcd of :func:`_primitive`), and so is
    testing one that is not contained.  A row's largest key under
    ``key_order`` is its pivot.  Rows are primitive integer vectors, positive
    at their pivot, in a pivot -> row dict in the order stored.  Inserts only
    forward-eliminate, so a row holds no key above its pivot and is 0 at the
    pivots stored before it.  ``len``, :attr:`pivots` and :meth:`contains`
    read the rows as stored, since all echelon forms of a span share their
    pivots.  Readers of the rows get the unique reduced form: a row over its
    pivot entry is the rational row of Gauss-Jordan elimination.
    """

    def __init__(self, key_order: Callable[[Hashable], object]):
        self._key_order = key_order
        self._rows: dict[Hashable, dict[Hashable, int]] = {}
        self._reduced = True  # no insert since the last back-substitution

    def __len__(self) -> int:
        return len(self._rows)

    def _reduce(self, vec: dict) -> dict[Hashable, int]:
        """A positive multiple of a copy of vec (elimination consumes it) minus
        its projection on the rows, its pivots cleared highest first: clearing
        p brings in only keys below p, and reduced rows bring in no pivot."""
        vec, rows, order = dict(vec), self._rows, self._key_order
        pending = [k for k in vec if k in rows]
        if len(pending) > 1 and not self._reduced:
            pending.sort(key=order)
        while pending:
            pivot = pending.pop()
            if pivot in vec:  # else it cancelled before its turn
                vec = _eliminate(vec, pivot, rows[pivot])
                for key in () if self._reduced else rows[pivot].keys() & rows.keys():
                    if key != pivot:
                        bisect.insort(pending, key, key=order)
        return vec

    def insert(self, vec: dict) -> tuple[bool, Hashable | None]:
        """Insert a vector.  Returns (was_new, pivot of the new row or None)."""
        vec = self._reduce(vec)
        if not vec:
            return (False, None)
        pivot = max(vec, key=self._key_order)  # type: ignore[arg-type]
        self._rows[pivot] = _primitive(vec, pivot)
        self._reduced = False
        return (True, pivot)

    def contains(self, vec: dict) -> bool:
        rest = self._reduce(vec)
        # elimination meets the values at pivots only; a hit leaves no rest
        if rest and not all(type(v) is int for v in rest.values()):
            raise TypeError("SpanBuilder takes integer vectors only")
        return not rest

    def _sorted_rows(self) -> list[tuple[Hashable, dict[Hashable, int]]]:
        # the reduced echelon form: a row holds only pivots stored after it,
        # so rows are cleared newest first, each by reduced rows
        rows = self._rows
        for pivot, row in () if self._reduced else reversed(rows.items()):
            if len(keys := row.keys() & rows.keys()) > 1:
                for key in keys - {pivot}:
                    row = _eliminate(row, key, rows[key])
                rows[pivot] = _primitive(row, pivot)
        self._reduced = True
        return sorted(rows.items(), key=lambda t: self._key_order(t[0]), reverse=True)

    @property
    def pivots(self) -> KeysView[Hashable]:  # a read-only view
        return self._rows.keys()

    def primitive_rows(self) -> list[Mapping[Hashable, int]]:
        """Read-only views of the rows of the reduced echelon basis, pivot
        columns descending, each a primitive integer row."""
        return [MappingProxyType(row) for _, row in self._sorted_rows()]

    def nullspace(self, keys: Iterable[Hashable]) -> list[dict[Hashable, int]]:
        """Basis of {x : sum over k of x[k] * (column k) = 0} on ``keys``.

        One integer vector per non-pivot key, in the order of ``keys``: the
        rational vector with 1 at that key and -row[key] / row[pivot] at the
        pivot of each stored row, times the lcm of its denominators.
        """
        ordered = self._sorted_rows()
        out = []
        for key in keys:
            if key in self._rows:
                continue
            entries = [(pivot, row[key], row[pivot]) for pivot, row in ordered if key in row]
            den = math.lcm(*(p // math.gcd(c, p) for _, c, p in entries))
            vec = {key: den}
            for pivot, c, p in entries:
                vec[pivot] = -c * den // p  # exact: p / gcd(c, p) divides den
            out.append(vec)
        return out


def row_echelon(rows: Iterable[Sequence[Fraction]]) -> SpanBuilder:
    """Reduced echelon form of dense rational rows, each scaled to integers;
    column c is keyed by c, and the leftmost column pivots first (Gauss-Jordan)."""
    span = SpanBuilder(key_order=lambda c: -c)
    for row in rows:
        span.insert(dict(_integral([(c, x) for c, x in enumerate(row) if x])[1]))
    return span


def solve_exact(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> Matrix | None:
    """One solution X of A X = B, a column per column of B, all read from one
    reduced echelon form of [A | B]; None when any column is inconsistent (a
    row pivots in B).  Free variables are zero, so the result is deterministic.
    """
    ncols = len(a[0]) if a else 0
    width = len(b[0]) if b else 0
    x = [(Fraction(0),) * width] * ncols
    for row in row_echelon((*ra, *rb) for ra, rb in zip(a, b)).primitive_rows():
        if (pivot := min(row)) >= ncols:  # the leftmost column
            return None
        x[pivot] = tuple(Fraction(row.get(c, 0), row[pivot]) for c in range(ncols, ncols + width))
    return tuple(x)


def mat_inverse(a: Matrix) -> Matrix:
    """The solution X of A X = I; GroupError when A is singular (a row of the
    echelon form of [A | I] pivots in I)."""
    inverse = solve_exact(a, identity_matrix(len(a)))
    if inverse is None:
        raise GroupError("matrix is singular")
    return inverse
