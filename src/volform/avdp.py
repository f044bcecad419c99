"""Volume-density toolkit: bracket identities, degree-bounded kernels,
semi-compatibility certificates, pointwise wedge-span tests and flow-Jacobian
checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .algebra import Exponents, LaurentPoly
from .calculus import (
    DiffForm,
    VectorField,
    VolumeForm,
    _require_tangent,
    _same_chart,
    contract_volume,
    divergence,
    exterior_derivative,
    interior_product,
    lie_bracket,
    lnd_flow,
    scalar_form,
)
from .errors import (
    DimensionError,
    PointError,
    PreconditionError,
    ResourceLimitError,
)
from .linalg import SpanBuilder
from .variety import Chart, Point

FULL_RING = "FULL_RING"
IDEAL_WITNESS = "IDEAL_WITNESS"
UNKNOWN = "UNKNOWN"
# Largest monomial basis a kernel or semicompat search may enumerate: it
# admits bound 10 on a surface (286 monomials).  The slowest admitted cases
# measured, semicompat(dz, dx, 10) and semicompat(dx, dz, 10) on
# p = x + x^3, q = 2y + y^3, take 0.13-0.14 s each (best of 7, CPython
# 3.11.7, shared 2-core host); under cProfile over two fifths is the product
# span, a third the two kernels and a sixth the monomial table, while the
# witness search, whose lead test rejects every row, is under 1%.
MAX_MONOMIALS = 300
IntTerms = dict[int, int]  # an integer multiple of a polynomial's terms, by exponent code


# ------------------------------------------------------------ identities


def _require_divergence_free(a: VectorField, b: VectorField, volume: VolumeForm) -> None:
    """The bracket identities are only asserted for divergence-free fields, so
    that is a checked precondition, reported distinctly from a failure."""
    for name, f in (("first", a), ("second", b)):
        if not divergence(f, volume).is_zero:
            raise PreconditionError(f"{name} field does not have divergence zero")


def bracket_identity_residual(
    a: VectorField, b: VectorField, volume: VolumeForm
) -> DiffForm:
    """Contraction of the bracket minus d of the double contraction."""
    _require_divergence_free(a, b, volume)
    lhs = interior_product(lie_bracket(a, b), volume)
    rhs = exterior_derivative(interior_product(a, interior_product(b, volume)))
    return lhs - rhs


def verify_bracket_identity(a: VectorField, b: VectorField, volume: VolumeForm) -> bool:
    """Exact check that contracting the bracket equals d of the double
    contraction (see :func:`bracket_identity_residual`)."""
    return bracket_identity_residual(a, b, volume).is_zero


def bracket_potential(a: VectorField, b: VectorField, volume: VolumeForm) -> LaurentPoly:
    """On a surface the double contraction is a scalar potential of the
    bracket's contraction: d(result) = i_[a,b] omega."""
    on = a.chart
    if on.dimension != 2:
        raise DimensionError(f"chart has dimension {on.dimension}, expected 2")
    _require_divergence_free(a, b, volume)
    result = interior_product(a, interior_product(b, volume))
    return result.coefficient(())


def potential_sides(
    f: LaurentPoly, xi: VectorField, volume: VolumeForm
) -> tuple[DiffForm, DiffForm]:
    """The two sides d(f) and i_xi omega of the potential equation on a surface."""
    on = xi.chart
    if on.dimension != 2:
        raise DimensionError(f"chart has dimension {on.dimension}, expected 2")
    return exterior_derivative(scalar_form(on, f)), contract_volume(xi, volume)


def verify_potential(f: LaurentPoly, xi: VectorField, volume: VolumeForm) -> bool:
    """True iff d(f) equals i_xi omega exactly (no sign search)."""
    lhs, rhs = potential_sides(f, xi, volume)
    return (lhs - rhs).is_zero


# --------------------------------------------------------------- kernels


def monomials_up_to(on: Chart, degree_bound: int) -> list[LaurentPoly]:
    """All ambient monomials of total degree <= bound, degree-then-lex order."""
    n = len(on.coordinates)
    count = math.comb(n + degree_bound, n)
    if count > MAX_MONOMIALS:
        raise ResourceLimitError(
            f"{count} monomials of degree <= {degree_bound} in {n} coordinates "
            f"exceed the budget of {MAX_MONOMIALS}"
        )
    one = Fraction(1)
    return [LaurentPoly(on.coordinates, ((exps, one),))
            for total in range(degree_bound + 1) for exps in _compositions(total, n)]


def _compositions(total: int, parts: int) -> Iterable[Exponents]:
    """Exponent vectors of ``parts`` entries summing to ``total``, in lex order:
    a step moves a unit from the last nonzero entry after the first to the
    entry before it, and the rest of that entry to the end."""
    exps = [0] * (parts - 1) + [total]
    while True:
        yield tuple(exps)
        last = parts - 1
        while last and not exps[last]:
            last -= 1
        if not last:
            return
        exps[last - 1] += 1
        exps[last], exps[-1] = 0, exps[last] - 1


class _Packing:
    """Exponent vectors over n coordinates as integers.  The code of e is the
    signed-digit sum of (sum(e), e_1, ..., e_n), most significant first, each
    digit shifted by a field of ``width`` bits, so code(0) = 0 and
    code(e1 + e2) = code(e1) + code(e2).  While every digit lies within
    +-(O-1), O = 2**(width-1), integer order of codes is
    ``algebra._grlex_key`` order: the top differing digit outweighs every
    digit below it."""

    def __init__(self, n: int, width: int):
        self.width = width
        self.shifts = range(width * n, -1, -width)  # one per digit, most significant first
        # O in every field: a biased code holds each digit as a field in [1, 2O-1]
        self._bias = sum((1 << (width - 1)) << shift for shift in self.shifts)

    def pack(self, exps: Exponents) -> int:
        return sum(digit << shift for digit, shift in zip((sum(exps), *exps), self.shifts))

    def unpack(self, code: int) -> Exponents:
        mask, offset = (1 << self.width) - 1, 1 << (self.width - 1)
        code += self._bias
        return tuple((code >> shift & mask) - offset for shift in self.shifts[1:])


def _convolve(*products: tuple[Iterable[tuple], Iterable[tuple]]) -> IntTerms:
    """Sum of the products of (code, int) term pairs."""
    out: IntTerms = {}
    for a, b in products:
        for e1, n1 in a:
            for e2, n2 in b:
                e = e1 + e2
                out[e] = out.get(e, 0) + n1 * n2
    return {e: n for e, n in out.items() if n}


def _monomial_table(
    on: Chart, degree_bound: int, fields: Sequence[VectorField] = ()
) -> tuple[list[IntTerms], list[list[IntTerms]], _Packing]:
    """Normal forms of the monomials m_j of degree <= bound, in the order of
    :func:`monomials_up_to`, and their images under each field, as integer
    term dicts s_j*nf(m_j) and s_j*xi(m_j) for one integer s_j > 0 per j;
    no nullspace or span read from the table depends on the s_j.  Terms are
    keyed by the codes of the returned packing, which add like exponents, so
    a product of entries is the :func:`_convolve` of their terms.

    Generator x_i's normal form and images are scaled by t_i, the lcm of
    their denominators.  Each m*x_i comes from the earlier entry m:
    nf(m*x_i) = nf(m)*nf(x_i) and, by Leibniz, xi(m*x_i) = xi(m)*nf(x_i) +
    nf(m)*xi(x_i), so s_{m*x_i} = s_m*t_i.  Products of normal forms (free
    coordinates only) are normal forms.

    Width: let top >= 1 bound every |exponent| of the generators' normal
    forms and images.  An entry sums products of at most d = bound of those,
    so its exponents are within d*top, those of a product of three entries
    (a semicompat witness test) within 3*d*top, and its degree digit within
    n*3*d*top; (3*n*max(d, 1)*top).bit_length() + 2 bits hold all of them.
    """
    monomials = monomials_up_to(on, degree_bound)
    n = len(on.coordinates)
    # at bound 0 the table is the constant 1 alone, which needs no generator
    generators = [[on.normal_form(g), *(xi.apply(g) for xi in fields)]
                  for g in on.generators()] if degree_bound > 0 else []
    top = max([1] + [abs(e) for ps in generators for p in ps for exps, _ in p.terms for e in exps])
    packing = _Packing(n, (3 * n * max(degree_bound, 1) * top).bit_length() + 2)
    scaled = []  # per generator: its normal form, then its image under each field
    for polys in generators:
        den = math.lcm(*(c.denominator for p in polys for _, c in p.terms))
        scaled.append([[(packing.pack(e), c.numerator * (den // c.denominator))
                        for e, c in p.terms] for p in polys])
    # extend along the coordinate whose normal form has the fewest terms
    order = sorted(range(len(scaled)), key=lambda i: len(scaled[i][0]))
    position: dict[Exponents, int] = {(0,) * n: 0}
    forms: list[IntTerms] = [{0: 1}]  # the constant 1, code 0, comes first
    images: list[list[IntTerms]] = [[{}] for _ in fields]
    for j, m in enumerate(monomials[1:], 1):
        exps = m.terms[0][0]
        position[exps] = j
        i = next(i for i in order if exps[i])
        k = position[exps[:i] + (exps[i] - 1,) + exps[i + 1:]]
        form, gen_form, gen_images = forms[k].items(), scaled[i][0], scaled[i][1:]
        for column, gen_image in zip(images, gen_images):
            column.append(_convolve((column[k].items(), gen_form), (form, gen_image)))
        forms.append(_convolve((form, gen_form)))
    return forms, images, packing


def kernel_basis(xi: VectorField, degree_bound: int) -> list[LaurentPoly]:
    """Echelonized basis of {f : xi(f) = 0 on the chart} within the span of
    ambient monomials of total degree <= bound, all in normal form."""
    _require_tangent(xi)
    forms, (images,), packing = _monomial_table(xi.chart, degree_bound, (xi,))
    return [_row_poly(xi.chart, packing, row)
            for row in _kernel_from_table(forms, images).primitive_rows()]


def _row_poly(on: Chart, packing: _Packing, row: Mapping[int, int]) -> LaurentPoly:
    """A primitive echelon row, keyed by codes, divided by its pivot entry (at
    its largest code): the row of the reduced echelon form, as a polynomial."""
    lead = row[max(row)]
    return LaurentPoly._from_terms(
        on.coordinates, {packing.unpack(e): Fraction(n, lead) for e, n in row.items()})


def _kernel_from_table(forms: list[IntTerms], images: list[IntTerms]) -> SpanBuilder:
    """Span of the combinations of a table's forms whose images cancel."""
    # kernel = nullspace of the image matrix: one row per image monomial,
    # keyed by monomial index.  Only that nullspace is read, and its span is
    # the kernel of the image map in any elimination order, so eliminate
    # sparsest first to limit fill-in (Markowitz): shortest rows first, and
    # the index with the fewest image entries pivots, lowest index on ties
    image_rows: dict[int, dict[int, int]] = {}
    for j, w in enumerate(images):
        for code, n in w.items():
            image_rows.setdefault(code, {})[j] = n
    column_count = [len(w) for w in images]
    image_span = SpanBuilder(key_order=lambda j: (-column_count[j], -j))
    for row in sorted(image_rows.values(), key=len):
        image_span.insert(row)

    # forms[j] and images[j] share one scale, so a cancelling combination of
    # images weighs the forms; the echelon basis ignores row scale
    basis_span = SpanBuilder(key_order=int)
    for combo in image_span.nullspace(range(len(forms))):
        member: IntTerms = {}
        for j, k in combo.items():
            for code, n in forms[j].items():
                member[code] = member.get(code, 0) + k * n
        basis_span.insert({code: n for code, n in member.items() if n})
    return basis_span


# ----------------------------------------------------- semi-compatibility


@dataclass(frozen=True)
class SemicompatVerdict:
    """One-sided certificate for the span of a kernel product.

    FULL_RING: every monomial of degree <= bound lies in the span (witness 1).
    IDEAL_WITNESS: witness*f lies in the span for every bounded monomial f.
    UNKNOWN: no certificate found at this bound; never a negative result.
    """

    status: str
    witness: LaurentPoly | None
    degree_bound: int


def semicompat_bounded(
    a: VectorField, b: VectorField, degree_bound: int
) -> SemicompatVerdict:
    _same_chart(a, b)
    on = a.chart
    _require_tangent(a)
    _require_tangent(b)
    # spans ignore row scale: kernels, products and witnesses are integer rows
    forms, images, packing = _monomial_table(on, degree_bound, (a, b))
    kernel_a, kernel_b = (_kernel_from_table(forms, column).primitive_rows() for column in images)

    # products of normal forms (free coordinates only) are normal forms
    span = SpanBuilder(key_order=int)
    for f in kernel_a:
        for g in kernel_b:
            span.insert(_convolve((f.items(), g.items())))

    # codes add like exponents and integer leading terms cannot cancel, so
    # w*nf(m) leads with lead(w) + lead(nf(m)); a nonzero span member
    # leads with a pivot (rows lead with their own, 0 at the others), so a w
    # with a sum that is no pivot fails.  Zero forms are in every span
    forms = sorted((m for m in forms if m), key=max, reverse=True)  # all() is order-free
    leads, pivots = [max(m) for m in forms], span.pivots

    def multiplies_into_span(w: Mapping[int, int]) -> bool:
        lead = max(w)
        if not all(m + lead in pivots for m in leads):
            return False
        return all(span.contains(_convolve((m.items(), w.items()))) for m in forms)

    if multiplies_into_span({0: 1}):  # the witness 1
        return SemicompatVerdict(FULL_RING, LaurentPoly.one(on.coordinates), degree_bound)
    for row in span.primitive_rows():
        if multiplies_into_span(row):
            return SemicompatVerdict(IDEAL_WITNESS, _row_poly(on, packing, row), degree_bound)

    return SemicompatVerdict(UNKNOWN, None, degree_bound)


# ------------------------------------------------------ pointwise wedges

WedgePair = tuple[VectorField, VectorField, LaurentPoly]


def spans_wedge_square(pairs: Sequence[WedgePair], point: Point) -> bool:
    """Strong pointwise test: do the wedges a(p) ^ b(p) of the pairs span the
    full wedge square of the tangent space at the point?  The witness gates
    the pair; a nonzero value only rescales its row, which leaves the span
    as it is, so the rows are integer wedges of integer-scaled values."""
    if not pairs:
        raise PreconditionError("no field pairs supplied")
    on = pairs[0][0].chart
    if point.chart != on:
        raise PointError("point does not belong to the fields' chart")
    for a, b, witness in pairs:
        _same_chart(pairs[0][0], a)
        _same_chart(a, b)
        on.validate_poly(witness)
    n = on.dimension
    target = n * (n - 1) // 2
    if target == 0:
        return True
    values = point.as_dict()
    span = SpanBuilder(key_order=lambda k: k)
    for a, b, witness in pairs:
        # a point of the chart satisfies every relation, so w(p) = nf(w)(p)
        if not witness.evaluate(values):
            continue
        va, vb = _integer_values(a, values), _integer_values(b, values)
        vec = {}
        for i, j in itertools.combinations(range(n), 2):
            entry = va[i] * vb[j] - va[j] * vb[i]
            if entry:
                vec[(i, j)] = entry
        if vec:
            span.insert(vec)
            if len(span) == target:
                return True
    return False


def _integer_values(field: VectorField, values: dict[str, Fraction]) -> list[int]:
    """The field's free components at the point, all times the lcm of their
    denominators; a zero component is not evaluated."""
    vals = [0 if p.is_zero else p.evaluate(values) for p in field.free_components().values()]
    den = math.lcm(*(v.denominator for v in vals))
    return [v.numerator * (den // v.denominator) for v in vals]


# -------------------------------------------------------- flow Jacobians


def verify_flow_jacobian(
    nu: VectorField,
    f: LaurentPoly,
    point: Point,
    bound: int,
) -> bool:
    """Check the tangent map of the time-1 flow of f*nu at a zero of f.

    The expected Jacobian in the free-coordinate trivialization is
    identity + nu(point) * gradient(f at point)^T, exactly.
    """
    on = nu.chart
    if point.chart != on:
        raise PointError("point does not belong to the field's chart")
    if not nu.apply(f).is_zero:
        raise PreconditionError("f is not in the kernel of the field")
    values = point.as_dict()
    reduced_f = on.normal_form(f)
    if reduced_f.evaluate(values) != 0:
        raise PreconditionError("f does not vanish at the point")

    flow = lnd_flow(f * nu, bound)
    free = on.free_coordinates
    jac = []
    for name in free:
        # the time-1 image c + sum_k xi^k(c)/k!, already in normal form
        at_one = on.generator(name)
        factorial = 1
        for k, iterate in enumerate(flow[name], 1):
            factorial *= k
            at_one = at_one + iterate * Fraction(1, factorial)
        jac.append([at_one.partial_derivative(c).evaluate(values) for c in free])

    v = [nu.coefficient(c).evaluate(values) for c in free]
    grad = [reduced_f.partial_derivative(c).evaluate(values) for c in free]
    for i in range(len(free)):
        for j in range(len(free)):
            expected = (Fraction(1) if i == j else Fraction(0)) + v[i] * grad[j]
            if jac[i][j] != expected:
                return False
    return True
