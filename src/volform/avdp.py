"""Volume-density toolkit: bracket identities, degree-bounded kernels,
semi-compatibility certificates, pointwise wedge-span tests and flow-Jacobian
checks.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Exponents, LaurentPoly, _integral
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
# admits bound 10 on a surface (286 monomials).  semicompat(dz, dx, 10) takes
# 0.15-0.18 s on p = x^6 - 2x, q = y^2 + y and 0.08-0.09 s on p = x + x^3,
# q = 2y + y^3 (best of 5-7, CPython 3.11.7, shared 2-core host); on the
# latter 3/4 is the product span, 1/6 the table and 1/12 the two kernels.
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


def monomials_up_to(on: Chart, degree_bound: int) -> list[Exponents]:
    """The exponent vectors of all ambient monomials of total degree <= bound,
    degree-then-lex order; none for a negative bound."""
    if degree_bound < 0:
        return []
    n = len(on.coordinates)
    count = math.comb(n + degree_bound, n)
    if count > MAX_MONOMIALS:
        raise ResourceLimitError(f"{count} monomials of degree <= {degree_bound} in {n} "
                                 f"coordinates exceed the budget of {MAX_MONOMIALS}")
    return [exps for total in range(degree_bound + 1) for exps in _compositions(total, n)]


def _compositions(total: int, parts: int) -> Iterable[Exponents]:
    """Exponent vectors of ``parts`` entries summing to ``total``, in lex order:
    a step moves a unit from the last nonzero entry after the first to the
    entry before it, and the rest of that entry to the end."""
    # stars and bars over itertools.combinations gives this order ~5x slower
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
    +-(O-1), O = 2**(width-1), integer order of codes is graded-lex order,
    the order of (sum(e), e): the top differing digit outweighs every digit
    below it.  A sum of at most three vectors of the box, every |e_i|
    <= box = (O-1) // (3n), as in a product of three packed polynomials, has
    every digit, its degree n*3*box included, within +-(O-1)."""

    def __init__(self, n: int, width: int):
        self.width = width
        self.box = ((1 << (width - 1)) - 1) // (3 * n)
        self.shifts = range(width * n, -1, -width)  # one per digit, most significant first
        # O in every field: a biased code holds each digit as a field in [1, 2O-1]
        self._bias = sum((1 << (width - 1)) << shift for shift in self.shifts)

    def pack(self, exps: Exponents) -> int:
        return sum(digit << shift for digit, shift in zip((sum(exps), *exps), self.shifts))

    def unpack(self, code: int) -> Exponents:
        mask, offset = (1 << self.width) - 1, 1 << (self.width - 1)
        code += self._bias
        return tuple((code >> shift & mask) - offset for shift in self.shifts[1:])

    def terms(self, f: LaurentPoly) -> list[tuple[int, int]] | None:
        """An integer multiple of f as (code, int) terms; None outside the box."""
        if any(abs(e) > self.box for exps, _ in f.terms for e in exps):
            return None
        return [(self.pack(e), c) for e, c in _integral(f.terms)[1]]


def _convolve(a: Iterable, b: Iterable, start: IntTerms | None = None) -> IntTerms:
    """The product of two (code, int) term lists, added into ``start``; a
    term that cancels is dropped as it cancels, so nothing is copied."""
    out: IntTerms = {} if start is None else start
    for e1, n1 in a:
        for e2, n2 in b:
            e = e1 + e2
            if n := out.get(e, 0) + n1 * n2:
                out[e] = n
            else:
                del out[e]
    return out


def _standard_leads(on: Chart) -> list[Exponents]:
    """The lead a*s of each relation r = a*s + b, solved for s, with every
    exponent >= 0 and a*s leading in the graded order that compares solved
    coordinates first: each term of b has lower degree, or equal degree and
    no solved coordinate."""
    solved = [on.coordinates.index(rel.solves) for rel in on.relations]
    leads = []
    for rel, s in zip(on.relations, solved):
        (lead,) = (e for e, _ in rel.poly.terms if e[s])
        if all(min(e) >= 0 and (sum(e) < sum(lead) or e == lead or sum(e) == sum(lead)
                                and not any(e[i] for i in solved)) for e, _ in rel.poly.terms):
            leads.append(lead)
    return leads


def _monomial_table(
    on: Chart, degree_bound: int, fields: Sequence[VectorField] = ()
) -> tuple[list[IntTerms], list[list[IntTerms]], _Packing]:
    """Normal forms of the standard monomials m_j of degree <= bound, in the
    order of :func:`monomials_up_to`, and their images under each field, as
    integer term dicts s_j*nf(m_j) and s_j*xi(m_j) for one integer s_j > 0
    per j; no nullspace or span read from the table depends on the s_j.  Terms
    are keyed by the codes of the returned packing, which add like exponents,
    so a product of entries is the :func:`_convolve` of their terms.

    A monomial is standard when no lead a*s of :func:`_standard_leads`
    divides it.  Standard rows span all rows (Cox, Little & O'Shea, ch. 5
    sec. 3): for m = a*s*m', nf(m) = nf(-b*m') and xi(m) = xi(-b*m'), rows of
    degree <= deg m, each lower in degree or in solved coordinates.  So the
    kernels, and by linearity the witness tests, are those of all rows.

    Generator data are read as terms: nf(x_i) is x_i or its chart solution,
    xi(x_i) is xi's stored (normal-form) coefficient at x_i, and one t_i, the
    lcm of all their denominators, scales them all.  Each m*x_i comes from
    the earlier entry m, a standard divisor: nf(m*x_i) = nf(m)*nf(x_i) and,
    by Leibniz, xi(m*x_i) = xi(m)*nf(x_i) + nf(m)*xi(x_i), a sum of products
    by both, so s_{m*x_i} = s_m*t_i.  Products of normal forms (free
    coordinates only) are normal forms; along a free coordinate, t_i*x_i,
    a product by nf(x_i) shifts codes by code(x_i) and scales by t_i.

    An entry sums products of at most d = bound generator data, each with
    every |exponent| <= top, so every |exponent| <= d*top, which is within
    the packing's box.
    """
    if degree_bound < 0:  # no monomial, not even the constant 1
        raise PreconditionError(f"degree bound {degree_bound} is negative")
    monomials = monomials_up_to(on, degree_bound)
    n = len(on.coordinates)
    # at bound 0 the table is the constant 1 alone, which needs no generator
    solved = {c: p.terms for c, p in on.solutions}
    generators = [[solved.get(c, ((tuple(int(j == i) for j in range(n)), 1),)),
                   *(xi.coefficient(c).terms for xi in fields)]
                  for i, c in enumerate(on.coordinates)] if degree_bound > 0 else []
    top = max([1] + [abs(e) for data in generators for terms in data for t in terms for e in t[0]])
    # O - 1 >= 2*(3n*d*top), so the box holds d*top
    packing = _Packing(n, (3 * n * max(degree_bound, 1) * top).bit_length() + 2)
    scaled = []  # per generator: its normal form, then its image under each field
    for data in generators:
        den = math.lcm(*(c.denominator for terms in data for _, c in terms))
        scaled.append([[(packing.pack(e), c.numerator * (den // c.denominator))
                        for e, c in terms] for terms in data])
    # extend along the coordinate whose normal form has the fewest terms
    order = sorted(range(len(scaled)), key=lambda i: len(scaled[i][0]))
    # the monomials a lead divides: the lead times each vector of degree <= d - deg(lead)
    multiples = {tuple(map(sum, zip(lead, e))) for lead in _standard_leads(on)
                 for total in range(degree_bound - sum(lead) + 1) for e in _compositions(total, n)}
    position: dict[Exponents, int] = {(0,) * n: 0}
    forms: list[IntTerms] = [{0: 1}]  # the constant 1, code 0, comes first
    images: list[list[IntTerms]] = [[{}] for _ in fields]
    for exps in monomials[1:]:
        if exps in multiples:
            continue
        position[exps] = len(forms)
        i = next(i for i in order if exps[i])
        k = position[exps[:i] + (exps[i] - 1,) + exps[i + 1:]]
        form, (gen_form, *gen_images) = forms[k].items(), scaled[i]
        if len(gen_form) == 1:  # a free coordinate: a shift of codes and a scale
            ((shift, t),) = gen_form
            forms.append({e + shift: n * t for e, n in form})
            starts = [{e + shift: n * t for e, n in column[k].items()} for column in images]
        else:
            forms.append(_convolve(form, gen_form))
            starts = [_convolve(column[k].items(), gen_form) for column in images]
        for column, gen_image, start in zip(images, gen_images, starts):
            column.append(_convolve(form, gen_image, start) if gen_image else start)
    return forms, images, packing


class _Kernel(Sequence):
    """A kernel's echelon basis members as a read-only list, built on first
    read, with the integer span they come from (``span``, which its length
    and :meth:`power_outside` read) and the packing of its codes."""

    def __init__(self, on: Chart, span: SpanBuilder, packing: _Packing):
        self._chart, self.span, self.packing = on, span, packing

    @functools.cached_property
    def _members(self) -> list[LaurentPoly]:
        return [_row_poly(self._chart, self.packing, row) for row in self.span.primitive_rows()]

    def __len__(self) -> int:
        return len(self.span)

    def __getitem__(self, index):
        return self._members[index]

    def __eq__(self, other: object) -> bool:
        return self._members == other

    def __repr__(self) -> str:
        return repr(self._members)

    def power_outside(self, f: LaurentPoly, count: int) -> int | None:
        """The least k < count with f**k outside the kernel, or None, for f in
        normal form.  Every member lies in the box, so an f outside it is
        outside the kernel; inside it, each power tested is f times a power
        in the kernel, a product of two packed polynomials."""
        terms, power = self.packing.terms(f), {0: 1}
        for k in range(count):
            if k:
                power = None if terms is None else _convolve(power.items(), terms)
            if power is None or not self.span.contains(power):
                return k
        return None


def kernel_basis(xi: VectorField, degree_bound: int) -> _Kernel:
    """Echelonized basis of {f : xi(f) = 0 on the chart} within the span of
    ambient monomials of total degree <= bound, all in normal form.

    The list is a :class:`_Kernel`, which also tests powers in its span."""
    _require_tangent(xi)
    forms, (images,), packing = _monomial_table(xi.chart, degree_bound, (xi,))
    return _Kernel(xi.chart, _kernel_from_table(forms, images), packing)


def _row_poly(on: Chart, packing: _Packing, row: Mapping[int, int]) -> LaurentPoly:
    """A primitive echelon row, keyed by codes, divided by its pivot entry (at
    its largest code): the row of the reduced echelon form, as a polynomial.
    Within the packing's digits, code order is grlex order, so the codes in
    descending order give the polynomial's term order, with no sort of
    exponent tuples."""
    codes = sorted(row, reverse=True)
    lead = row[codes[0]]
    return LaurentPoly(on.coordinates,
                       tuple((packing.unpack(e), Fraction(row[e], lead)) for e in codes))


def _kernel_from_table(forms: list[IntTerms], images: list[IntTerms]) -> SpanBuilder:
    """Span of the combinations of a table's forms whose images cancel: the
    weights c_j are the nullspace of the image matrix M, a row per image
    code and a column per entry j.  Singleton pruning (LaMacchia & Odlyzko,
    "Solving large sparse linear systems over finite fields", CRYPTO '90)
    finds most of it with no arithmetic: once every other column holding
    code r is forced to 0, row r reads M[r][j]*c_j = 0, and M[r][j] is a
    nonzero integer, so c_j = 0.  The nullspace is that of the core (the
    codes still held, on the live columns), 0 at every forced column; an
    empty core's is the live unit vectors.  The reduced echelon form of the
    members is unique, whichever nullspace basis weighs the forms."""
    count, xor = {}, {}  # per image code: its live columns, and the XOR of their indices
    for j, w in enumerate(images):
        for code in w:
            count[code] = count.get(code, 0) + 1
            xor[code] = xor.get(code, 0) ^ j
    live = [True] * len(images)
    forced = [code for code, k in count.items() if k == 1]
    while forced:
        code = forced.pop()
        if count[code] == 1:  # else its last column left after it was pushed
            j = xor[code]
            live[j] = False
            for c in images[j]:
                count[c] -= 1
                xor[c] ^= j
                if count[c] == 1:
                    forced.append(c)
    # the core: its nullspace is the same in any elimination order, so shortest
    # rows go first to limit fill-in (Markowitz), and the column with the fewest
    # entries pivots, lowest index on ties: the highest rank in a list sorted once
    columns = [j for j in range(len(images)) if live[j]]
    image_rows: dict[int, dict[int, int]] = {}
    for j in columns:
        for code, n in images[j].items():
            image_rows.setdefault(code, {})[j] = n
    rank = [0] * len(images)
    for r, j in enumerate(sorted(columns, key=lambda j: (len(images[j]), j), reverse=True)):
        rank[j] = r
    image_span = SpanBuilder(key_order=rank.__getitem__)
    for row in sorted(image_rows.values(), key=len):
        image_span.insert(row)

    # forms[j] and images[j] share one scale, so a cancelling combination of
    # images weighs the forms; the echelon basis ignores row scale
    basis_span = SpanBuilder(key_order=int)
    for combo in image_span.nullspace(columns):
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
            span.insert(_convolve(f.items(), g.items()))

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
        return all(span.contains(_convolve(m.items(), w.items())) for m in forms)

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
    as it is, so the rows are integer wedges of integer-scaled values.  The
    point is read once."""
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
    parts = point.parts()
    span = SpanBuilder(key_order=lambda k: k)
    for a, b, witness in pairs:
        # a point of the chart satisfies every relation, so w(p) = nf(w)(p)
        if not witness._evaluate_parts(parts)[0]:
            continue
        va, vb = _integer_values(a, parts), _integer_values(b, parts)
        vec: dict[tuple[int, int], int] = {}
        for i, x in va.items():
            for j, y in vb.items():
                # a_i b_j is +-1 times the entry at (min, max); i = j adds nothing
                if i < j:
                    vec[(i, j)] = vec.get((i, j), 0) + x * y
                elif i > j:
                    vec[(j, i)] = vec.get((j, i), 0) - x * y
        vec = {k: v for k, v in vec.items() if v}
        if vec:
            span.insert(vec)
            if len(span) == target:
                return True
    return False


def _integer_values(field: VectorField, parts: list[tuple[int, int]]) -> dict[int, int]:
    """The field's nonzero free components at the point, by free index, all
    times the lcm of their denominators; a zero polynomial is not evaluated."""
    vals = [(i, p._evaluate_parts(parts))
            for i, p in enumerate(field.free_components().values()) if p.terms]
    den = math.lcm(*(d for _, (_, d) in vals))
    return {i: num * (den // d) for i, (num, d) in vals if num}


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
    parts = point.parts()

    def at(p: LaurentPoly) -> Fraction:
        return Fraction(*p._evaluate_parts(parts))

    reduced_f = on.normal_form(f)
    if reduced_f._evaluate_parts(parts)[0]:
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
        jac.append([at(at_one.partial_derivative(c)) for c in free])

    v = [at(nu.coefficient(c)) for c in free]
    grad = [at(reduced_f.partial_derivative(c)) for c in free]
    for i in range(len(free)):
        for j in range(len(free)):
            expected = (Fraction(1) if i == j else Fraction(0)) + v[i] * grad[j]
            if jac[i][j] != expected:
                return False
    return True
