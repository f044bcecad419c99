"""Independent oracles: dense Gaussian elimination over Fraction, sympy
conversions and substitution, dense kernels and semi-compatibility, field
invariance through a sympy inverse Jacobian, wedge spans evaluated in sympy,
and brute-force form coefficients summed over permutations.
Nothing here reuses the package's echelon, kernel or form-key machinery.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import sympy

from volform import Chart, DiffForm, LaurentPoly, Point, SubstitutionAction, VectorField


def poly_to_sympy(p: LaurentPoly):
    symbols = sympy.symbols(p.variables)
    terms = []
    for exps, coeff in p.terms:
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for sym, e in zip(symbols, exps):
            term *= sym ** e
        terms.append(term)
    # one Add of all terms: adding them one by one is quadratic in sympy
    return sympy.expand(sympy.Add(*terms))


def substitute_by_sympy(p: LaurentPoly, bindings: dict[str, LaurentPoly]):
    """p with each bound variable replaced by its image at once, expanded."""
    symbols = dict(zip(p.variables, sympy.symbols(p.variables)))
    images = {symbols[name]: poly_to_sympy(image) for name, image in bindings.items()}
    return sympy.expand(poly_to_sympy(p).xreplace(images))


def sympy_equal(p: LaurentPoly, expr) -> bool:
    return sympy.simplify(poly_to_sympy(p) - expr) == 0


def dense_rref(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Nonzero rows of the reduced row echelon form of a dense rational
    matrix, by textbook Gauss-Jordan: the leftmost column pivots first, and
    each pivot is 1 and the only nonzero entry of its column."""
    m = [[Fraction(x) for x in r] for r in rows]
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return m[:r]


def dense_pivots(rref: list[list[Fraction]]) -> list[int]:
    return [next(c for c, x in enumerate(row) if x) for row in rref]


def dense_nullspace(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Right nullspace basis of a dense rational matrix, read from its RREF."""
    if not rows:
        return []
    ncols = len(rows[0])
    rref = dense_rref(rows)
    pivots = dense_pivots(rref)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, col in zip(rref, pivots):
            vec[col] = -row[free]
        basis.append(vec)
    return basis


def dense_rank(rows: list[list[Fraction]]) -> int:
    return len(dense_rref(rows))


def row_space_contains(rows: list[list[Fraction]], vec: list[Fraction]) -> bool:
    return dense_rank(rows + [list(vec)]) == dense_rank(rows)


def brute_force_kernel(
    xi: VectorField, on: Chart, degree_bound: int
) -> tuple[int, list[list[Fraction]], list[tuple]]:
    """Kernel of f -> xi(f) on ambient monomials of degree <= bound, solved
    densely from scratch.

    Returns (dimension, kernel function vectors, column keys); the vectors
    are coefficient rows of the kernel *functions* in normal form over the
    returned Laurent-monomial columns.
    """
    from volform import monomials_up_to

    monomials = monomials_up_to(on, degree_bound)
    reduced = [on.normal_form(m) for m in monomials]
    images = [xi.apply(m) for m in monomials]

    image_cols = sorted({e for img in images for e, _ in img.terms})
    matrix = [
        [dict(img.terms).get(col, Fraction(0)) for col in image_cols] for img in images
    ]
    # combos c with sum_i c_i * xi(m_i) = 0: right nullspace of matrix^T
    transposed = [
        [matrix[i][j] for i in range(len(images))] for j in range(len(image_cols))
    ]
    combos = dense_nullspace(transposed) if image_cols else [
        [Fraction(1) if i == j else Fraction(0) for i in range(len(images))]
        for j in range(len(images))
    ]

    value_cols = sorted({e for red in reduced for e, _ in red.terms})
    functions = []
    for combo in combos:
        vec = [Fraction(0)] * len(value_cols)
        for i, c in enumerate(combo):
            if c == 0:
                continue
            for e, coeff in reduced[i].terms:
                vec[value_cols.index(e)] += c * coeff
        if any(v != 0 for v in vec):
            functions.append(vec)
    # dimension of the function span
    dimension = dense_rank(functions)
    return dimension, functions, value_cols


def dict_product(f: dict, g: dict) -> dict:
    """Product of two polynomials given as exponents -> coefficient dicts."""
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def brute_force_semicompat(a: VectorField, b: VectorField, degree_bound: int):
    """Semi-compatibility status of two fields at a bound, solved densely.

    The span is that of the products of the two fields' kernel functions
    from :func:`brute_force_kernel`.  The status is FULL_RING when the span
    holds the normal form of every monomial of degree <= bound,
    IDEAL_WITNESS when some row w of its reduced echelon form (columns in
    graded-lex descending order) has w*nf(m) in the span for every such m,
    and UNKNOWN otherwise.  Returns the status and the witness as an
    exponents -> coefficient dict: 1 for FULL_RING, the first such row
    divided by its pivot entry for IDEAL_WITNESS, None for UNKNOWN.
    """
    from volform import monomials_up_to

    on = a.chart
    kernels = []
    for field in (a, b):
        _, functions, columns = brute_force_kernel(field, on, degree_bound)
        kernels.append([{c: x for c, x in zip(columns, row) if x} for row in functions])
    products = [dict_product(f, g) for f in kernels[0] for g in kernels[1]]
    columns = sorted({e for p in products for e in p}, key=lambda e: (sum(e), e), reverse=True)
    rref = dense_rref([[p.get(c, Fraction(0)) for c in columns] for p in products])
    pivots = dense_pivots(rref)

    def contains(terms: dict) -> bool:
        # a term outside every product's support cannot be cancelled
        if not set(terms) <= set(columns):
            return False
        # each rref row has pivot entry 1 and is 0 at the other pivots, so
        # clearing the pivots row by row leaves 0 exactly on the row space
        vec = [Fraction(terms.get(c, 0)) for c in columns]
        for row, pivot in zip(rref, pivots):
            if vec[pivot]:
                f = vec[pivot]
                vec = [x - f * y for x, y in zip(vec, row)]
        return not any(vec)

    normal_forms = [dict(on.normal_form(m).terms) for m in monomials_up_to(on, degree_bound)]
    if all(contains(nf) for nf in normal_forms):
        return "FULL_RING", {(0,) * len(on.coordinates): Fraction(1)}
    for row in rref:
        pivot = next(x for x in row if x)
        w = {c: x / pivot for c, x in zip(columns, row) if x}
        if all(contains(dict_product(w, nf)) for nf in normal_forms):
            return "IDEAL_WITNESS", w
    return "UNKNOWN", None


# ------------------------------------------------------------ wedge spans


def wedge_span_by_substitution(
    pairs: list[tuple[VectorField, VectorField, LaurentPoly]], point: Point
) -> bool:
    """Whether the rows w*(a_i*b_j - a_j*b_i), i < j over the free
    coordinates, have rank n(n-1)/2 at the point.  The witness w and the
    fields' free components go to sympy, and the point's value replaces
    every coordinate, solvable ones included, so no normal form is taken."""
    free = pairs[0][0].chart.free_coordinates
    n = len(free)
    values = {sympy.Symbol(c): sympy.Rational(v.numerator, v.denominator)
              for c, v in point.as_dict().items()}

    def at(p: LaurentPoly) -> Fraction:
        value = sympy.Rational(poly_to_sympy(p).subs(values))
        return Fraction(int(value.p), int(value.q))

    rows = []
    for a, b, witness in pairs:
        w = at(witness)
        va = [at(a.coefficient(c)) for c in free]
        vb = [at(b.coefficient(c)) for c in free]
        rows.append([w * (va[i] * vb[j] - va[j] * vb[i])
                     for i, j in itertools.combinations(range(n), 2)])
    return dense_rank(rows) == n * (n - 1) // 2


# ------------------------------------------------------------- invariance


def field_invariant_by_inverse_jacobian(xi: VectorField, act: SubstitutionAction) -> bool:
    """Whether xi = J^-1 (xi o s) modulo the relations, in sympy alone.

    J is the ambient Jacobian of the substitution s, inverted by
    ``Matrix.inv()``.  Each solved coordinate is replaced by the solution of
    its relation (repeatedly, for triangular charts), so the coordinate ring
    becomes rational functions of the free coordinates, where ``cancel``
    decides equality.
    """
    on = xi.chart
    symbols = sympy.symbols(on.coordinates)
    images = [poly_to_sympy(act.image(c)) for c in on.coordinates]
    jacobian = sympy.Matrix([[sympy.diff(img, s) for s in symbols] for img in images])
    coeffs = sympy.Matrix([poly_to_sympy(xi.coefficient(c)) for c in on.coordinates])
    moved = coeffs.subs(dict(zip(symbols, images)), simultaneous=True)
    residual = jacobian.inv() * moved - coeffs
    solved = {}
    for rel in on.relations:
        target = sympy.Symbol(rel.solves)
        (solved[target],) = sympy.solve(poly_to_sympy(rel.poly), target)
    for _ in on.relations:
        residual = residual.subs(solved)
    return all(sympy.cancel(entry) == 0 for entry in residual)


# ------------------------------------------------------------------ forms
#
# A k-form is read as its alternating extension: the coefficient on every
# ordered tuple of distinct free coordinates, i.e. sgn(sigma) * c_K on each
# arrangement sigma(K) of a sorted key K.  Wedge and d are the alternating
# sums over S_{k+l}; the contraction puts the field in the first slot.


def _permutation_sign(seq: tuple[str, ...], order: tuple[str, ...]) -> int:
    positions = [order.index(name) for name in seq]
    inversions = sum(
        1 for i in range(len(positions)) for j in range(i + 1, len(positions))
        if positions[i] > positions[j]
    )
    return -1 if inversions % 2 else 1


def _alternating(form: DiffForm) -> dict[tuple[str, ...], LaurentPoly]:
    order = form.chart.free_coordinates
    out = {}
    for key, coeff in form.coefficients:
        for arrangement in itertools.permutations(key):
            out[arrangement] = coeff * _permutation_sign(arrangement, order)
    return out


def _collect(on: Chart, degree: int, component) -> dict[tuple[str, ...], LaurentPoly]:
    """Coefficient of every sorted key of the degree, zeros dropped."""
    out = {}
    for key in itertools.combinations(on.free_coordinates, degree):
        value = component(key)
        if not value.is_zero:
            out[key] = value
    return out


def brute_force_wedge(a: DiffForm, b: DiffForm) -> dict[tuple[str, ...], LaurentPoly]:
    """(a ^ b)_K = 1/(k! l!) sum over sigma in S_{k+l} of
    sgn(sigma) a_{sigma(K)[:k]} b_{sigma(K)[k:]}."""
    on, k, l = a.chart, a.degree, b.degree
    alt_a, alt_b = _alternating(a), _alternating(b)
    zero = LaurentPoly.zero(on.coordinates)
    scale = Fraction(1, math.factorial(k) * math.factorial(l))

    def component(key):
        total = zero
        for arrangement in itertools.permutations(key):
            left, right = arrangement[:k], arrangement[k:]
            if left in alt_a and right in alt_b:
                sign = _permutation_sign(arrangement, on.free_coordinates)
                total = total + alt_a[left] * alt_b[right] * sign
        return total * scale

    return _collect(on, k + l, component)


def brute_force_d(form: DiffForm) -> dict[tuple[str, ...], LaurentPoly]:
    """(d a)_K = 1/k! sum over sigma in S_{k+1} of
    sgn(sigma) d/dx_{sigma(K)[0]} a_{sigma(K)[1:]}."""
    on, k = form.chart, form.degree
    alt = _alternating(form)
    zero = LaurentPoly.zero(on.coordinates)

    def component(key):
        total = zero
        for arrangement in itertools.permutations(key):
            rest = arrangement[1:]
            if rest in alt:
                sign = _permutation_sign(arrangement, on.free_coordinates)
                total = total + alt[rest].partial_derivative(arrangement[0]) * sign
        return total * Fraction(1, math.factorial(k))

    return _collect(on, k + 1, component)


def brute_force_contraction(
    field: VectorField, form: DiffForm
) -> dict[tuple[str, ...], LaurentPoly]:
    """(i_xi a)_K = sum over free j of xi_j a_{(j,) + K}."""
    on = form.chart
    if form.degree == 0:
        return {}
    alt = _alternating(form)
    zero = LaurentPoly.zero(on.coordinates)

    def component(key):
        total = zero
        for name in on.free_coordinates:
            if (name,) + key in alt:
                total = total + field.coefficient(name) * alt[(name,) + key]
        return total

    return _collect(on, form.degree - 1, component)
