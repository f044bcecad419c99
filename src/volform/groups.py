"""Sub-modular functions of matrix groups via exact adjoint determinants.

Groups are handled purely through explicit rational matrices: a basis of the
subgroup's Lie algebra and a finite list of test elements.  No Lie-group
structure is modelled; the adjoint action B -> h B h^-1 is solved exactly in
the given basis and its determinant is the sub-modular value at h.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import GroupError
from .linalg import (
    Matrix, det_bareiss, make_matrix, mat_inverse, mat_mul, row_echelon, solve_exact,
)


def _vectorize(m: Matrix) -> list[Fraction]:
    return [entry for row in m for entry in row]


def _check_square(m: Matrix, size: int, what: str) -> None:
    if len(m) != size or any(len(row) != size for row in m):
        raise GroupError(f"{what} is not a {size}x{size} matrix")


@dataclass(frozen=True)
class GroupPresentation:
    size: int
    lie_basis: tuple[Matrix, ...]
    test_elements: tuple[tuple[str, Matrix], ...]
    # submodular(h, lie_basis) of each test element h, kept from the Ad_h
    # stability test; the basis and elements fix it, so equality ignores it
    submodular_values: Mapping[Matrix, Fraction] = field(compare=False)

    def element(self, name: str) -> Matrix:
        for key, value in self.test_elements:
            if key == name:
                return value
        raise GroupError(f"no test element named {name!r}")


def group_presentation(
    size: int,
    lie_basis: Iterable[Sequence[Sequence]],
    test_elements: Iterable[tuple[str, Sequence[Sequence]]] = (),
) -> GroupPresentation:
    basis = tuple(make_matrix(b) for b in lie_basis)
    if not basis:
        raise GroupError("empty Lie algebra basis")
    for b in basis:
        _check_square(b, size, "basis matrix")
    span = row_echelon(_vectorize(b) for b in basis)
    if len(span) != len(basis):
        raise GroupError("Lie algebra basis matrices are linearly dependent")
    # the bracket of integer multiples of two basis matrices is a multiple of theirs
    whole = []
    for b in basis:
        den = math.lcm(*(x.denominator for x in _vectorize(b)))
        whole.append([[x.numerator * (den // x.denominator) for x in row] for row in b])
    for (i, x), (j, y) in itertools.combinations(enumerate(whole, 1), 2):
        bracket = {r * size + c: v for r in range(size) for c in range(size)
                   if (v := sum(x[r][k] * y[k][c] - y[r][k] * x[k][c] for k in range(size)))}
        if not span.contains(bracket):
            raise GroupError(f"basis spans no Lie algebra: the bracket of matrices {i} and {j} "
                             "lies outside its span")

    elements = []
    for name, raw in test_elements:
        h = make_matrix(raw)
        _check_square(h, size, f"element {name!r}")
        if det_bareiss(h) == 0:
            raise GroupError(f"element {name!r} is singular")
        elements.append((name, h))
    # adjoint_matrix raises when the span is not Ad_h-stable
    values = {h: submodular(h, basis) for _, h in elements}
    return GroupPresentation(size, basis, tuple(elements), values)


def adjoint_matrix(h: Matrix | Sequence[Sequence], basis: Sequence[Matrix]) -> Matrix:
    """Matrix of B -> h B h^-1 in the given basis; exact rational entries.

    Raises GroupError when h is singular or the span is not Ad_h-stable.
    """
    hm = make_matrix(h)
    size = len(hm)
    _check_square(hm, size, "group element")
    basis_mats = [make_matrix(b) for b in basis]
    for b in basis_mats:
        _check_square(b, size, "basis matrix")
    h_inv = mat_inverse(hm)
    columns_matrix = [[Fraction(0)] * len(basis_mats) for _ in range(size * size)]
    for j, b in enumerate(basis_mats):
        for i, value in enumerate(_vectorize(b)):
            columns_matrix[i][j] = value
    result_columns = []
    for b in basis_mats:
        conjugated = mat_mul(mat_mul(hm, b), h_inv)
        coords = solve_exact(columns_matrix, _vectorize(conjugated))
        if coords is None:
            raise GroupError(
                "adjoint action leaves the span of the Lie algebra basis"
            )
        result_columns.append(coords)
    k = len(basis_mats)
    return tuple(tuple(result_columns[j][i] for j in range(k)) for i in range(k))


def submodular(h: Matrix | Sequence[Sequence], basis: Sequence[Matrix]) -> Fraction:
    """Determinant of the adjoint action of h on the basis span."""
    return det_bareiss(adjoint_matrix(h, basis))
