"""Sub-modular functions of matrix groups via exact adjoint determinants.

Groups are handled purely through explicit rational matrices: a basis of the
subgroup's Lie algebra and a finite list of test elements.  No Lie-group
structure is modelled; the adjoint action B -> h B h^-1 is solved exactly in
the given basis, every basis matrix in one solve, and its determinant is the
sub-modular value at h.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .algebra import _integral
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
        if name not in (elements := dict(self.test_elements)):
            raise GroupError(f"no test element named {name!r}")
        return elements[name]


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
    whole = [dict(_integral([((r, c), x) for r, row in enumerate(b) for c, x in enumerate(row)])[1])
             for b in basis]
    for (i, x), (j, y) in itertools.combinations(enumerate(whole, 1), 2):
        bracket = {r * size + c: v for r in range(size) for c in range(size)
                   if (v := sum(x[r, k] * y[k, c] - y[r, k] * x[k, c] for k in range(size)))}
        if not span.contains(bracket):
            raise GroupError(f"basis spans no Lie algebra: the bracket of matrices {i} and {j} "
                             "lies outside its span")

    elements, inverses = [], []
    for name, raw in test_elements:
        if any(name == other for other, _ in elements):
            raise GroupError(f"element {name!r} is already defined")
        h = make_matrix(raw)
        _check_square(h, size, f"element {name!r}")
        try:
            inverses.append(mat_inverse(h))
        except GroupError:
            raise GroupError(f"element {name!r} is singular") from None
        elements.append((name, h))
    # adjoint_matrix raises when the span is not Ad_h-stable
    values = {h: submodular(h, basis, h_inv) for (_, h), h_inv in zip(elements, inverses)}
    return GroupPresentation(size, basis, tuple(elements), values)


def adjoint_matrix(h: Matrix | Sequence[Sequence], basis: Sequence[Matrix],
                   inverse: Matrix | None = None) -> Matrix:
    """Matrix of B -> h B h^-1 in the given basis; exact rational entries,
    with h^-1 the ``inverse`` a caller holds (group_presentation's) or computed.

    Ad_h is the solution X of one solve A X = C, with the flattened B_j and
    h B_j h^-1 as the columns of A and C.  Raises GroupError when h is
    singular, the span is not Ad_h-stable, or the basis is dependent: a free
    variable leaves a zero row in X, and Ad_h of an independent basis is
    invertible.
    """
    hm = make_matrix(h)
    size = len(hm)
    _check_square(hm, size, "group element")
    basis_mats = [make_matrix(b) for b in basis]
    for b in basis_mats:
        _check_square(b, size, "basis matrix")
    h_inv = mat_inverse(hm) if inverse is None else inverse
    conjugated = [mat_mul(mat_mul(hm, b), h_inv) for b in basis_mats]
    ad = solve_exact(list(zip(*map(_vectorize, basis_mats))),
                     list(zip(*map(_vectorize, conjugated))))
    if ad is None:
        raise GroupError("adjoint action leaves the span of the Lie algebra basis")
    if not all(any(row) for row in ad):
        raise GroupError("Lie algebra basis matrices are linearly dependent")
    return ad


def submodular(h: Matrix | Sequence[Sequence], basis: Sequence[Matrix],
               inverse: Matrix | None = None) -> Fraction:
    """Determinant of the adjoint action of h on the basis span."""
    return det_bareiss(adjoint_matrix(h, basis, inverse))
