"""Exact linear algebra over the rationals.

:class:`SpanBuilder` is the one elimination engine: incremental reduced
echelon form over sparse integer vectors with an arbitrary ordered column
space (Laurent-monomial columns for kernels and spans, integer columns for
dense matrices).  It is fraction-free and takes integer vectors only, since
a positive multiple spans the same line: callers with rational data scale
each vector first.  It stores rows as primitive integer vectors, reads them
out as they are (a reader divides a row by its pivot entry), and gives an
integer nullspace.  :func:`row_echelon` is its dense front end for rational
rows, and :func:`solve_exact` reads every column of ``A X = B`` from the
reduced echelon form of ``[A | B]`` it builds, ``B = I`` for :func:`mat_inverse`.
:func:`det_bareiss` is separate: a fraction-free determinant.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Hashable, Iterable, KeysView, Mapping, Sequence

from .algebra import _integral
from .errors import GroupError

Matrix = tuple[tuple[Fraction, ...], ...]


def make_matrix(rows: Iterable[Iterable]) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def identity_matrix(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    assert all(len(row) == k for row in a)
    return tuple(
        tuple(sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(m))
        for i in range(n)
    )


def det_bareiss(a: Matrix) -> Fraction:
    """Determinant by fraction-free Bareiss elimination.

    Rows are scaled to integers first (Bareiss needs an integral domain); the
    accumulated scale divides the integer determinant at the end.
    """
    n = len(a)
    if n == 0:
        return Fraction(1)
    scale = 1
    m: list[list[int]] = []
    for row in a:
        den, scaled = _integral(list(enumerate(row)))
        scale *= den
        m.append([x for _, x in scaled])
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
    return Fraction(sign * m[n - 1][n - 1], scale)


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
    """Incremental reduced echelon form over sparse integer vectors.

    Vectors are dicts mapping hashable column keys to nonzero ints; inserting
    a Fraction is a TypeError (in the gcd of :func:`_primitive`), and so is
    testing one that is not contained.  The column order is fixed by
    ``key_order`` (largest column = pivot, compared descending).
    Elimination is fraction-free: each stored row is a primitive integer
    vector with a positive entry at its own pivot and 0 at every other
    pivot, kept in a pivot -> row dict.  The reduced echelon form
    is unique, so a stored row divided by its pivot entry is exactly the
    rational row of Gauss-Jordan elimination; only readers of the rows divide.

    ``_keys`` holds every key of every vector :meth:`insert` has stored, as
    it stored it.  Back-substitution gives a row only keys of vectors stored
    after it, so every key of every stored row is in ``_keys``, and a new
    pivot outside it is in no stored row.
    """

    def __init__(self, key_order: Callable[[Hashable], object]):
        self._key_order = key_order
        self._rows: dict[Hashable, dict[Hashable, int]] = {}
        self._keys: set[Hashable] = set()

    def __len__(self) -> int:
        return len(self._rows)

    def _reduce(self, vec: dict) -> dict[Hashable, int]:
        """A positive multiple of vec minus its projection on the stored rows.

        Rows are 0 at every pivot but their own, so eliminating one pivot only
        rescales the entries at the others: the pivots to clear are those
        present in the input, which is copied, as elimination consumes it."""
        vec = dict(vec)
        rows = self._rows
        for pivot in [k for k in vec if k in rows]:
            vec = _eliminate(vec, pivot, rows[pivot])
        return vec

    def insert(self, vec: dict) -> tuple[bool, Hashable | None]:
        """Insert a vector.  Returns (was_new, pivot of the new row or None)."""
        vec = self._reduce(vec)
        if not vec:
            return (False, None)
        pivot = max(vec, key=self._key_order)  # type: ignore[arg-type]
        vec = _primitive(vec, pivot)
        # back-substitute to keep the basis fully reduced
        rows = self._rows
        if pivot in self._keys:
            for key, row in rows.items():
                if pivot in row:
                    rows[key] = _primitive(_eliminate(row, pivot, vec), key)
        self._keys.update(vec)
        rows[pivot] = vec
        return (True, pivot)

    def contains(self, vec: dict) -> bool:
        rest = self._reduce(vec)
        # elimination meets the values at pivots only; a hit leaves no rest
        if rest and not all(type(v) is int for v in rest.values()):
            raise TypeError("SpanBuilder takes integer vectors only")
        return not rest

    def _sorted_rows(self) -> list[tuple[Hashable, dict[Hashable, int]]]:
        return sorted(self._rows.items(), key=lambda t: self._key_order(t[0]), reverse=True)

    @property
    def pivots(self) -> KeysView[Hashable]:  # a read-only view
        return self._rows.keys()

    def primitive_rows(self) -> list[Mapping[Hashable, int]]:
        """Read-only views of the stored primitive integer rows, pivot columns
        descending: the rows of the reduced echelon basis, each times its
        pivot entry."""
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
    for pivot, row in row_echelon((*ra, *rb) for ra, rb in zip(a, b))._rows.items():
        if pivot >= ncols:
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
