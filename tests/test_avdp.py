"""Bracket identities, kernels, semi-compatibility, wedge spans, flows,
and the surface decomposition, cross-checked against brute-force oracles."""

import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from volform import (
    FULL_RING,
    IDEAL_WITNESS,
    UNKNOWN,
    Chart,
    LaurentPoly,
    SemicompatVerdict,
    VectorField,
    bracket_potential,
    chart,
    contract_volume,
    divergence,
    exterior_derivative,
    forms_equal,
    interior_product,
    kernel_basis,
    lie_bracket,
    monomials_up_to,
    parse,
    parse_polynomial,
    sample_point,
    scenario_by_name,
    scalar_form,
    semicompat_bounded,
    spans_wedge_square,
    vector_field,
    verify_bracket_identity,
    verify_flow_jacobian,
    verify_potential,
)
from volform import avdp, linalg
from volform.avdp import _compositions, _Packing, _monomial_table
from volform.errors import (
    DimensionError, PointError, PreconditionError, VariableMismatchError,
)
from volform.linalg import SpanBuilder
from volform.checks import RunFlags, run_check
from volform.model import CheckDirective

from helpers import (
    grlex_key,
    integral_vector,
    lie_derivative,
    random_poly,
    sl2_chart,
    surface_chart,
    surface_fields,
    surface_volume,
    torus_chart,
    torus_volume,
)
from oracles import (
    ambient_exponents,
    brute_force_kernel,
    brute_force_semicompat,
    dense_rank,
    dense_rref,
    row_space_contains,
    wedge_span_by_substitution,
)

ROOT = Path(__file__).resolve().parent.parent


def sl2_pair():
    on = sl2_chart()
    b1, b2 = on.generator("b1"), on.generator("b2")
    a1, a2 = on.generator("a1"), on.generator("a2")
    xi = vector_field(on, {"a1": b1, "a2": b2})
    eta = vector_field(on, {"b1": a1, "b2": a2})
    return on, xi, eta


def witness_terms(verdict) -> dict | None:
    return None if verdict.witness is None else dict(verdict.witness.terms)


def rational_pair():
    # 2*x*v - y*u = 1 solved for v: nf(v) = (1 + y*u)/(2*x), and both fields
    # have non-integer coefficients too
    names = ("x", "y", "u", "v")
    x, y, u, v = LaurentPoly.generators(names)
    on = chart(names, invertible=("x",), relations=[(2 * x * v - y * u - 1, "v")])
    return vector_field(on, {"y": x, "v": u / 2}), vector_field(on, {"u": 3 * x, "v": 3 * y / 2})


def zero_coordinate_pair():
    # the sl2-like chart x*v - y*u = 1 with a fifth coordinate s that x*s = 0
    # solves to 0: every monomial containing s has normal form 0
    names = ("x", "y", "u", "v", "s")
    x, y, u, v, s = LaurentPoly.generators(names)
    on = chart(names, invertible=("x",), relations=[(x * v - y * u - 1, "v"), (x * s, "s")])
    return vector_field(on, {"y": x, "v": u}), vector_field(on, {"u": x, "v": y})


# ----------------------------------------------------------- identity (1)


def test_bracket_identity_on_surface_pairs():
    on = surface_chart()
    w = surface_volume(on)
    fields = surface_fields(on)
    assert verify_bracket_identity(fields["dz"], fields["dy"], w)
    assert verify_bracket_identity(fields["dz"], fields["dx"], w)
    assert verify_bracket_identity(fields["dy"], fields["dx"], w)


def test_bracket_identity_same_field_trivial():
    on, xi, _ = sl2_pair()
    from volform import volume_form

    w = volume_form(on, on.generator("a1").unit_inverse())
    assert verify_bracket_identity(xi, xi, w)


def test_bracket_identity_commuting_torus_fields():
    on = torus_chart(2)
    w = torus_volume(on)
    nu1 = vector_field(on, {"z1": on.generator("z1")})
    nu2 = vector_field(on, {"z2": on.generator("z2")})
    assert lie_bracket(nu1, nu2).is_zero
    assert verify_bracket_identity(nu1, nu2, w)


def test_bracket_identity_checks_divergence_precondition():
    on = torus_chart(1)
    w = torus_volume(on)
    z1 = on.generator("z1")
    bad = vector_field(on, {"z1": z1 ** 2})  # divergence z1
    good = vector_field(on, {"z1": z1})
    with pytest.raises(PreconditionError):
        verify_bracket_identity(bad, good, w)


# ---------------------------------------------------------------- kernels


def test_kernel_of_surface_fields_are_coordinate_polynomials():
    on = surface_chart()
    fields = surface_fields(on)
    span_gens = {"dz": "z", "dy": "y", "dx": "x"}
    for name, coordinate in span_gens.items():
        basis = kernel_basis(fields[name], 4)
        assert len(basis) == 5
        builder = SpanBuilder(key_order=grlex_key)
        for member in basis:
            builder.insert(integral_vector(dict(member.terms)))
        g = on.generator(coordinate)
        for k in range(5):
            assert builder.contains(integral_vector(dict(on.normal_form(g ** k).terms)))


CUBIC = "surface:p=2*x+x**3,q=y**2+y"


def test_kernel_matches_brute_force_oracle():
    surface = surface_fields(surface_chart())
    cubic = scenario_by_name(CUBIC).fields
    _, xi, eta = sl2_pair()
    cases = [fields[name] for fields in (surface, cubic) for name in ("dz", "dy", "dx")]
    for field in cases + [xi, eta]:
        on = field.chart
        basis = kernel_basis(field, 4)
        dimension, functions, columns = brute_force_kernel(field, on, 4)
        assert len(basis) == dimension
        # every computed basis member lies in the oracle's row space
        for member in basis:
            assert set(e for e, _ in member.terms) <= set(columns)
            vec = [dict(member.terms).get(c, Fraction(0)) for c in columns]
            assert row_space_contains(functions, vec)


def standard_monomials(on, degree_bound):
    """The exponent vectors of the monomials of degree <= bound that no
    qualifying relation lead divides, in the order of monomials_up_to: the
    rows of the table."""
    leads = avdp._standard_leads(on)
    return [exps for exps in monomials_up_to(on, degree_bound)
            if not any(all(e >= l for e, l in zip(exps, lead)) for lead in leads)]


@pytest.mark.parametrize("address", [
    "sl2", "xm1:1", "xm1:2", "torus:2", "surface:p=x,q=y", CUBIC, "rational",
])
def test_monomial_table_matches_direct_normal_forms_and_images(address):
    # the table builds each entry from a lower one; the oracle reduces each
    # monomial from scratch.  Entry j holds s_j*nf(m_j) and s_j*xi(m_j) as
    # integer term dicts, for one integer s_j > 0 per table, m_j the j-th
    # standard monomial
    if address == "rational":
        a, b = rational_pair()
        # a third of a: its images of y have a denominator the normal form lacks
        fields = [a, b, vector_field(a.chart, {name: c / 3 for name, c in a.coefficients})]
    else:
        fields = list(scenario_by_name(address).fields.values())
    on = fields[0].chart
    for bound in range(4):
        monomials = standard_monomials(on, bound)
        for table_fields in ([], fields):
            forms, images, packing = _monomial_table(on, bound, table_fields)
            assert len(forms) == len(monomials)
            assert len(images) == len(table_fields)
            for j, exps in enumerate(monomials):
                m = LaurentPoly.monomial(on.coordinates, exps)
                entries = [forms[j]] + [column[j] for column in images]
                assert all(type(n) is int for entry in entries for n in entry.values())
                decoded = [{packing.unpack(e): n for e, n in entry.items()} for entry in entries]
                nf = on.normal_form(m)
                lead, coeff = nf.terms[0]
                scale = decoded[0][lead] / coeff
                assert scale.denominator == 1 and scale > 0
                expected = [nf] + [field.apply(m) for field in table_fields]
                for entry, poly in zip(decoded, expected):
                    assert entry == {e: c * scale for e, c in poly.terms}


def packed_cases(n: int, limit: int, rng: random.Random) -> list[tuple]:
    """Exponent vectors whose every digit, the degree sum included, lies
    within +-limit: the extremes on one coordinate, cancelling extremes, and
    seeded random vectors."""
    cases = [(0,) * n]
    for i in range(n):
        for sign in (1, -1):
            e = [0] * n
            e[i] = sign * limit
            cases.append(tuple(e))
            if n > 1:
                e[(i + 1) % n] = -sign * limit
                cases.append(tuple(e))
    while len(cases) < 60:
        e = tuple(rng.randint(-limit, limit) for _ in range(n))
        if abs(sum(e)) <= limit:
            cases.append(e)
    return cases


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("width", [2, 5, 9])
def test_packed_codes_round_trip_order_and_add_at_the_digit_limits(n, width):
    # digits at +-(O-1), O = 2**(width-1), the most a signed width-bit field
    # holds; a field one bit narrower carries into the next digit
    packing = _Packing(n, width)
    limit = 2 ** (width - 1) - 1
    zero = (0,) * n
    cases = packed_cases(n, limit, random.Random(f"{n}/{width}"))
    codes = [packing.pack(e) for e in cases]
    assert [packing.unpack(c) for c in codes] == cases
    assert packing.pack(zero) == 0
    assert sorted(cases, key=packing.pack) == sorted(cases, key=grlex_key)
    # the box is the largest whose triple sums keep every digit within the limit
    assert 3 * n * packing.box <= limit < 3 * n * (packing.box + 1)
    names = tuple(f"x{i}" for i in range(n))
    edge = LaurentPoly.monomial(names, (packing.box,) * n)
    assert packing.terms(edge) == [(packing.pack((packing.box,) * n), 1)]
    assert packing.terms(edge * LaurentPoly.variable(names, "x0")) is None
    # the codes below 0 are exactly the vectors below 0 in grlex order
    assert any(c < 0 for c in codes)
    assert [c < 0 for c in codes] == [grlex_key(e) < grlex_key(zero) for e in cases]
    for e1, c1 in zip(cases, codes):
        for e2, c2 in zip(cases, codes):
            total = tuple(a + b for a, b in zip(e1, e2))
            if max(map(abs, total + (sum(total),))) <= limit:
                assert c1 + c2 == packing.pack(total)


@pytest.mark.parametrize("address", ["xm1:20", "surface:p=x**6-2*x,q=y**2+y", "torus:1"])
def test_table_packing_holds_the_proven_exponent_bound(address):
    # every exponent of a product of three table entries is within 3*d*top,
    # and its degree within n*3*d*top, top bounding the generators' data; on
    # one coordinate the exponent digit is as wide as the degree digit
    fields = list(scenario_by_name(address).fields.values())
    on = fields[0].chart
    n = len(on.coordinates)
    polys = [on.normal_form(g) for g in on.generators()]
    polys += [field.apply(g) for field in fields for g in on.generators()]
    top = max([1] + [abs(e) for p in polys for exps, _ in p.terms for e in exps])
    # at bound 0 the table is the constant 1 alone, and code 0 its only code
    forms, images, packing = _monomial_table(on, 0, fields)
    assert forms == [{0: 1}] and images == [[{}] for _ in fields]
    assert packing.unpack(0) == (0,) * n
    for bound in (1, 3):
        _, _, packing = _monomial_table(on, bound, fields)
        limit = 3 * bound * top
        assert packing.box >= bound * top
        extremes = [(limit,) * n, (-limit,) * n, (limit,) + (0,) * (n - 1)]
        for e in extremes:
            assert packing.unpack(packing.pack(e)) == e
            half = tuple(x // 2 for x in e)
            rest = tuple(x - h for x, h in zip(e, half))
            assert packing.pack(half) + packing.pack(rest) == packing.pack(e)
        assert packing.pack(extremes[1]) < 0 < packing.pack(extremes[0])


def test_bound_zero_applies_no_field(monkeypatch):
    # the bound-0 table is the constant 1, so no generator image is needed
    fields = scenario_by_name("surface:p=x**2+x,q=y").fields
    dz, dy = fields["dz"], fields["dy"]
    one = LaurentPoly.one(dz.chart.coordinates)
    # the tangency residuals are memoised per field; compute them before counting
    assert all(r.is_zero for f in (dz, dy) for r in f.residuals)
    calls = []
    apply = VectorField.apply
    monkeypatch.setattr(VectorField, "apply", lambda xi, f: calls.append(f) or apply(xi, f))
    assert kernel_basis(dz, 0) == [one]
    assert semicompat_bounded(dz, dy, 0) == SemicompatVerdict(FULL_RING, one, 0)
    assert calls == []


def test_table_reads_no_generator_through_the_fields_above_bound_0(monkeypatch):
    # generator images are the fields' stored coefficients and generator
    # normal forms the chart's solutions, so a search past the tangency test
    # neither applies a field nor reduces a polynomial
    fields = scenario_by_name("xm1:2").fields
    a, b = fields["nu_y"], fields["nu_u"]
    # the tangency residuals are memoised per field; compute them before counting
    assert all(r.is_zero for f in (a, b) for r in f.residuals)
    calls = []
    apply, reduce = VectorField.apply, Chart.normal_form
    monkeypatch.setattr(VectorField, "apply", lambda xi, f: calls.append(f) or apply(xi, f))
    monkeypatch.setattr(Chart, "normal_form", lambda on, p: calls.append(p) or reduce(on, p))
    assert semicompat_bounded(a, b, 3).status == UNKNOWN
    assert len(kernel_basis(a, 3)) > 1
    assert calls == []


def test_negative_degree_bound_is_a_precondition_error():
    # no monomial has a negative degree, so there is no constant 1 to seed
    on, xi, eta = sl2_pair()
    assert monomials_up_to(on, -1) == monomials_up_to(on, -5) == []
    with pytest.raises(PreconditionError, match="degree bound -1 is negative"):
        kernel_basis(xi, -1)
    with pytest.raises(PreconditionError, match="degree bound -2 is negative"):
        semicompat_bounded(xi, eta, -2)


GENERATOR_TARGETS = (
    "torus:2", "torus:3", "torus:4", "torus:5", "sl2",
    "xm1:1", "xm1:2", "xm1:3", "xm1:4", "xm1:5",
    "surface:p=x,q=y", "surface:p=x**2,q=y**3", "surface:p=2*x-x**3,q=y**2+y", CUBIC,
    "product:torus:1|torus:1", "product:sl2|torus:1", "product:surface:p=x,q=y|torus:1",
) + tuple(sorted(p.relative_to(ROOT).as_posix()
                 for pattern in ("docs/examples/*.vf", "tests/data/*.vf")
                 for p in ROOT.glob(pattern)))


@pytest.mark.parametrize("target", GENERATOR_TARGETS)
def test_generator_data_live_in_the_field_and_the_chart(target):
    # what the monomial table and lnd_flow read in place of computing it:
    # xi(x_c) is xi's stored coefficient at c, and nf(x_c) is x_c or its solution
    model = parse((ROOT / target).read_text()) if target.endswith(".vf") else (
        scenario_by_name(target))
    for xi in model.fields.values():
        on = xi.chart
        solutions = dict(on.solutions)
        for name, g in zip(on.coordinates, on.generators()):
            assert on.normal_form(g) == solutions.get(name, g)
            assert xi.apply(g) == xi.coefficient(name)


def _table_by_apply(on, degree_bound, fields):
    """The monomial table as it was built from Chart.normal_form and
    VectorField.apply of each generator, over the standard monomials: the
    reference for reading those data where they live."""
    monomials = standard_monomials(on, degree_bound)
    n = len(on.coordinates)
    generators = [[on.normal_form(g), *(xi.apply(g) for xi in fields)] for g in on.generators()]
    top = max([1] + [abs(e) for ps in generators for p in ps for exps, _ in p.terms for e in exps])
    packing = _Packing(n, (3 * n * max(degree_bound, 1) * top).bit_length() + 2)
    scaled = []
    for polys in generators:
        den = math.lcm(*(c.denominator for p in polys for _, c in p.terms))
        scaled.append([[(packing.pack(e), c.numerator * (den // c.denominator))
                        for e, c in p.terms] for p in polys])
    order = sorted(range(n), key=lambda i: len(scaled[i][0]))
    position = {(0,) * n: 0}
    forms, images = [{0: 1}], [[{}] for _ in fields]
    for exps in monomials[1:]:
        position[exps] = len(forms)
        i = next(i for i in order if exps[i])
        k = position[exps[:i] + (exps[i] - 1,) + exps[i + 1:]]
        form, gen_form, gen_images = forms[k].items(), scaled[i][0], scaled[i][1:]
        for column, gen_image in zip(images, gen_images):
            column.append(avdp._convolve(form, gen_image,
                                         avdp._convolve(column[k].items(), gen_form)))
        forms.append(avdp._convolve(form, gen_form))
    return forms, images, packing.width


@pytest.mark.parametrize("address", [
    "sl2", "xm1:1", "xm1:3", "torus:3", CUBIC, "rational", "scaled",
])
def test_monomial_table_matches_its_construction_by_apply(address):
    if address == "rational":
        fields = list(rational_pair())
    elif address == "scaled":
        # (1/2*x) d/dy scales the free coordinate y by t = 2: the table
        # shifts the codes of nf(m) and doubles them
        fields = list(rational_pair())
        on = fields[0].chart
        fields.append(vector_field(on, {"y": on.generator("x") / 2}))
    else:
        fields = list(scenario_by_name(address).fields.values())
    on = fields[0].chart
    for bound in range(1, 5):
        forms, images, packing = _monomial_table(on, bound, fields)
        assert (forms, images, packing.width) == _table_by_apply(on, bound, fields)


def _chart_model(address):
    return parse(SL3) if address == "sl3" else scenario_by_name(address)


def _pair_ranks(on, fields, base, extra):
    """Dense ranks of the rows of ``base`` and of ``base + extra``, lists of
    exponent vectors; the row of a monomial m holds nf(m) and m's image under
    each field, computed by Chart.normal_form and VectorField.apply."""
    rows = []
    for exps in base + extra:
        m = LaurentPoly.monomial(on.coordinates, exps)
        row = {("nf", e): c for e, c in on.normal_form(m).terms}
        for k, field in enumerate(fields):
            row.update({(k, e): c for e, c in field.apply(m).terms})
        rows.append(row)
    columns = sorted({c for row in rows for c in row}, key=repr)
    dense = [[row.get(c, Fraction(0)) for c in columns] for row in rows]
    return dense_rank(dense[:len(base)]), dense_rank(dense)


@pytest.mark.parametrize("address, bound", [
    ("sl2", 4), ("xm1:1", 4), ("xm1:2", 4), ("xm1:3", 4),
    ("surface:p=x,q=y", 4), (CUBIC, 4), ("surface:p=x**3+x,q=y**3+2*y", 4),
    ("surface:p=x**6-2*x,q=y**2+y", 3), ("sl3", 2),
])
def test_standard_rows_span_every_monomial_row(address, bound):
    # dense oracle: the pair (nf(m), xi(m) per field) of every monomial of
    # degree <= bound lies in the span of the standard monomials' pairs, so
    # a table over standard monomials has the kernels and witness tests of
    # the full one: the rank of the standard rows does not grow when the
    # others are added
    model = _chart_model(address)
    on, fields = model.chart, list(model.fields.values())
    standard = standard_monomials(on, bound)
    others = [m for m in monomials_up_to(on, bound) if m not in standard]
    assert others or address.startswith("surface:p=x**6")
    low, high = _pair_ranks(on, fields, standard, others)
    assert low == high
    if not others:
        # the sextic's x*y*z does not lead its relation (x**6 does): the row
        # of x*y*z is outside the span of the rows that x*y*z does not divide
        xyz = (on.generator("x") * on.generator("y") * on.generator("z")).terms[0][0]
        low, high = _pair_ranks(on, fields, [m for m in standard if m != xyz], [xyz])
        assert low < high


@pytest.mark.parametrize("address, leads", [
    ("sl2", ["a1*b2"]),
    ("xm1:2", ["x**2*v"]),
    ("surface:p=x,q=y", ["x*y*z"]),
    # x**6 outranks x*y*z
    ("surface:p=x**6-2*x,q=y**2+y", []),
    # the a11 relation's b holds a12*a21*a33, of degree 3 > deg(a11*m)
    ("sl3", ["a22*a33"]),
    ("negative", []),
    ("solved", []),
])
def test_qualifying_relation_leads(address, leads):
    names = ("x", "y", "u", "v")
    x, y, u, v = LaurentPoly.generators(names)
    if address == "negative":
        # the lead v/x has a negative exponent
        on = chart(names, invertible=("x",), relations=[(v * x ** -1 - y - 1, "v")])
    elif address == "solved":
        # v's b holds y*u, of the degree of x*v, with u solved; u's relation
        # has b = y**3 above x*u
        on = chart(names, invertible=("x",),
                   relations=[(x * u - y ** 3, "u"), (x * v - y * u - 1, "v")])
    else:
        on = _chart_model(address).chart
    expected = [parse_polynomial(lead, on.coordinates).terms[0][0] for lead in leads]
    assert avdp._standard_leads(on) == expected


def test_cubic_table_holds_standard_rows_only(monkeypatch):
    # at bound 6 x*y*z divides 20 of the 84 monomials; the table keeps the
    # other 64, and the nullspace of their images is the kernel itself (all
    # 84 rows give 27 nullspace vectors, 20 of them building zero members)
    dz = scenario_by_name(CUBIC).fields["dz"]
    forms, (images,), _ = _monomial_table(dz.chart, 6, (dz,))
    assert len(forms) == len(images) == 64
    sizes = []
    nullspace = SpanBuilder.nullspace
    monkeypatch.setattr(SpanBuilder, "nullspace",
                        lambda span, keys: sizes.append(len(out := nullspace(span, keys))) or out)
    assert len(kernel_basis(dz, 6)) == 7
    assert sizes == [7]


QUARTIC = "surface:p=x**4+x,q=y**4+y"
SEXTIC = "surface:p=x**6-2*x,q=y**2+y"


def peel_shape(monkeypatch, field, bound):
    """(columns, peeled, zero-image, core columns, core codes) of the kernel
    of a field: the core is what _kernel_from_table hands to SpanBuilder,
    the image rows inserted into the span whose nullspace it reads."""
    inserted, read = [], []
    insert, nullspace = SpanBuilder.insert, SpanBuilder.nullspace
    with monkeypatch.context() as patch:
        patch.setattr(SpanBuilder, "insert",
                      lambda span, vec: inserted.append((span, vec)) or insert(span, vec))
        patch.setattr(SpanBuilder, "nullspace", lambda span, keys: read.append(
            (span, keys := list(keys))) or nullspace(span, keys))
        kernel_basis(field, bound)
    ((image_span, live),) = read
    rows = [vec for span, vec in inserted if span is image_span]
    _, (images,), _ = _monomial_table(field.chart, bound, (field,))
    zero = sum(1 for w in images if not w)
    return len(images), len(images) - len(live), zero, len(set().union(*rows)), len(rows)


@pytest.mark.parametrize("address, name, bound, shape", [
    (QUARTIC, "dz", 6, (84, 24, 7, 53, 127)),
    (QUARTIC, "dy", 6, (84, 28, 7, 49, 62)),
    (SEXTIC, "dx", 6, (84, 55, 7, 22, 18)),
    (SEXTIC, "dz", 6, (84, 72, 7, 5, 12)),
])
def test_peel_leaves_a_core_where_no_relation_lead_qualifies(monkeypatch, address, name,
                                                             bound, shape):
    # no lead qualifies on these surfaces, so their tables keep dependent
    # rows, and singleton pruning stops short of the zero-image columns
    field = scenario_by_name(address).fields[name]
    assert peel_shape(monkeypatch, field, bound) == shape


@pytest.mark.parametrize("address, name, bound", [
    *((QUARTIC, name, bound) for name in ("dz", "dy") for bound in (4, 6)),
    *((SEXTIC, name, bound) for name in ("dz", "dx") for bound in (3, 4, 6)),
])
def test_peeled_kernels_match_the_dense_oracle(address, name, bound):
    # the dense oracle solves the whole image matrix with Fractions; the
    # members are the rows of its kernel's reduced echelon form, grlex
    # columns descending
    field = scenario_by_name(address).fields[name]
    dimension, functions, columns = brute_force_kernel(field, field.chart, bound)
    order = sorted(range(len(columns)), key=lambda i: grlex_key(columns[i]), reverse=True)
    expected = dense_rref([[f[i] for i in order] for f in functions])
    basis = [dict(member.terms) for member in kernel_basis(field, bound)]
    assert len(basis) == dimension
    assert [[member.get(columns[i], 0) for i in order] for member in basis] == expected


@pytest.mark.parametrize("address, name, bound", [
    # one surface per kernels benchmark class: (field, bound, deg p, deg q)
    ("surface:p=-2*x,q=3*y", "dz", 4),
    ("surface:p=-2*x,q=3*y-y**2", "dy", 5),
    ("surface:p=-2*x,q=3*y", "dx", 6),
    ("surface:p=-2*x+x**2,q=3*y", "dz", 5),
    ("surface:p=-2*x+x**2+3*x**3,q=3*y-y**2+2*y**3", "dy", 4),
    ("surface:p=-2*x+x**2,q=3*y-y**2+2*y**3", "dx", 4),
    ("surface:p=-2*x+x**2,q=3*y-y**2", "dz", 6),
    ("surface:p=-2*x+x**2,q=3*y", "dy", 6),
    ("surface:p=-2*x+x**2+3*x**3,q=3*y-y**2", "dx", 5),
    # the certify benchmark's kernels
    *((address, name, bound) for address in ("sl2", "xm1:1", "xm1:2", "xm1:3")
      for name in ("xi", "eta", "nu_y", "nu_u") for bound in (2, 3, 4, 6)
      if name in scenario_by_name(address).fields),
])
def test_peel_leaves_no_core_on_benchmark_tables(monkeypatch, address, name, bound):
    # every column with a nonzero image is forced to 0, so the kernel needs
    # no elimination: its members are the zero-image forms
    field = scenario_by_name(address).fields[name]
    columns, peeled, zero, core_columns, core_codes = peel_shape(monkeypatch, field, bound)
    assert (core_columns, core_codes) == (0, 0)
    assert columns == peeled + zero


def test_cubic_kernel_inserts_no_image_row(monkeypatch):
    # the peel forces every column of a nonzero image, so only the 7 basis
    # rows, read from the 7 zero-image columns, reach SpanBuilder.insert
    dz = scenario_by_name(CUBIC).fields["dz"]
    rows = []
    insert = SpanBuilder.insert
    monkeypatch.setattr(SpanBuilder, "insert",
                        lambda span, vec: rows.append(vec) or insert(span, vec))
    assert len(kernel_basis(dz, 6)) == 7
    assert len(rows) == 7


def test_kernel_spans_builds_no_member_polynomial(monkeypatch):
    # the check reads the kernel's length and tests powers in its span
    calls = []
    row_poly = avdp._row_poly
    monkeypatch.setattr(avdp, "_row_poly", lambda *args: calls.append(args) or row_poly(*args))
    model = scenario_by_name(CUBIC)
    record = run_check(model, CheckDirective("kernel_spans", ("dz", 6, "pz", 7)), RunFlags())
    assert record.status == "PASS"
    assert calls == []


def test_kernel_members_are_built_once_when_first_read(monkeypatch):
    calls = []
    row_poly = avdp._row_poly
    monkeypatch.setattr(avdp, "_row_poly", lambda *args: calls.append(args) or row_poly(*args))
    dz = scenario_by_name(CUBIC).fields["dz"]
    kernel = kernel_basis(dz, 3)
    z = dz.chart.normal_form(dz.chart.generator("z"))
    assert len(kernel) == 4 and kernel.power_outside(z, 4) is None
    assert calls == []
    members = list(kernel)
    assert len(calls) == 4
    assert all(dz.apply(member).is_zero for member in members)
    assert kernel == members and members == kernel and kernel != members[:3]
    assert kernel[0] == members[0] and kernel[-2:] == members[-2:]
    assert str(kernel) == str(members) and LaurentPoly.one(dz.chart.coordinates) in kernel
    assert kernel.packing.unpack(0) == (0,) * len(dz.chart.coordinates)
    assert len(calls) == 4


@pytest.mark.parametrize("address, a, b", [
    ("xm1:20", "nu_y", "nu_u"),
    ("surface:p=x**6-2*x,q=y**2+y", "dz", "dx"),
])
@pytest.mark.parametrize("bound", [1, 2, 3])
def test_wide_exponents_match_dense_oracles(address, a, b, bound):
    # xm1:20's normal forms carry x**-20 and the sextic's z carries x**5, so
    # the packed codes span more than the other oracle tests reach
    fields = scenario_by_name(address).fields
    on = fields[a].chart
    for name in (a, b):
        basis = kernel_basis(fields[name], bound)
        dimension, functions, columns = brute_force_kernel(fields[name], on, bound)
        assert len(basis) == dimension
        for member in basis:
            assert set(e for e, _ in member.terms) <= set(columns)
            vec = [dict(member.terms).get(c, Fraction(0)) for c in columns]
            assert row_space_contains(functions, vec)
    verdict = semicompat_bounded(fields[a], fields[b], bound)
    status, witness = brute_force_semicompat(fields[a], fields[b], bound)
    assert verdict.status == status
    assert witness_terms(verdict) == witness


def test_kernel_reduction_work_does_not_grow_with_the_bound(monkeypatch):
    # fresh fields per bound: a field computes its tangency residuals once
    calls = []
    reduce = Chart.normal_form

    def counted(self, p):
        calls.append(p)
        return reduce(self, p)

    monkeypatch.setattr(Chart, "normal_form", counted)
    counts = []
    for bound in (3, 6):
        dz = scenario_by_name(CUBIC).fields["dz"]
        calls.clear()
        kernel_basis(dz, bound)
        counts.append(len(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("search", ["kernel_basis", "semicompat_bounded"])
def test_polynomial_products_do_not_grow_with_the_bound(monkeypatch, search):
    # the monomial table, kernel products and witness tests are integer
    # convolutions; LaurentPoly products serve only the chart's generators
    calls = []
    multiply = LaurentPoly.__mul__

    def counted(self, other):
        calls.append(other)
        return multiply(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    monkeypatch.setattr(LaurentPoly, "__rmul__", counted)
    counts = []
    for bound in (3, 6):
        fields = scenario_by_name(CUBIC).fields
        calls.clear()
        if search == "kernel_basis":
            kernel_basis(fields["dz"], bound)
        else:
            semicompat_bounded(fields["dz"], fields["dy"], bound)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_kernel_elimination_works_sparsest_first(monkeypatch):
    # only the nullspace of the image matrix is read, so the rows of the
    # peeled core are eliminated shortest first with the sparsest index as
    # pivot; in table order with the lowest index as pivot, this kernel
    # touches 103,763 row entries, against 5,897 sparsest first (the cubic
    # surface's kernel has no core)
    dz = scenario_by_name(QUARTIC).fields["dz"]
    touched = []
    eliminate = linalg._eliminate

    def counted(vec, key, row):
        touched.append(len(row))
        return eliminate(vec, key, row)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    kernel_basis(dz, 8)
    assert sum(touched) <= 20_000


@pytest.mark.parametrize("address", ["surface:p=x,q=y", CUBIC])
@pytest.mark.parametrize("name, coordinate", [("dz", "z"), ("dy", "y"), ("dx", "x")])
def test_surface_kernels_at_larger_bounds_are_powers_of_one_coordinate(
    address, name, coordinate
):
    # within degree d each surface field's kernel is spanned by the normal
    # forms of g**k, k <= d, for the coordinate g it fixes; the dense
    # brute-force kernel is too slow at these bounds
    field = scenario_by_name(address).fields[name]
    on = field.chart
    g = on.generator(coordinate)
    for bound in range(5, 9):
        powers = [dict(on.normal_form(g ** k).terms) for k in range(bound + 1)]
        columns = sorted({e for p in powers for e in p}, key=grlex_key, reverse=True)
        expected = dense_rref([[p.get(c, Fraction(0)) for c in columns] for p in powers])
        basis = [dict(member.terms) for member in kernel_basis(field, bound)]
        assert all(set(member) <= set(columns) for member in basis)
        assert [[member.get(c, 0) for c in columns] for member in basis] == expected


def test_semicompat_does_no_repeated_table_work(monkeypatch):
    # one table serves both kernels and the witness search, and products of
    # normal forms are not reduced again
    tables, calls = [], []
    table, reduce = avdp._monomial_table, Chart.normal_form

    def counted_table(*args):
        tables.append(args)
        return table(*args)

    def counted(self, p):
        calls.append(p)
        return reduce(self, p)

    monkeypatch.setattr(avdp, "_monomial_table", counted_table)
    monkeypatch.setattr(Chart, "normal_form", counted)
    counts = []
    for bound in (3, 6):
        fields = scenario_by_name(CUBIC).fields
        tables.clear()
        calls.clear()
        semicompat_bounded(fields["dz"], fields["dy"], bound)
        assert len(tables) == 1
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_kernel_of_sl2_shear_contains_its_kernel_coordinates():
    on, xi, _ = sl2_pair()
    basis = kernel_basis(xi, 1)
    builder = SpanBuilder(key_order=grlex_key)
    for member in basis:
        builder.insert(integral_vector(dict(member.terms)))
    assert builder.contains(integral_vector(dict(on.generator("b1").terms)))
    assert builder.contains(integral_vector(dict(on.normal_form(on.generator("b2")).terms)))


def test_kernel_dimension_tracks_the_bound():
    # the kernel stays the polynomials in z at higher truncations too
    on = surface_chart()
    fields = surface_fields(on)
    for bound in (2, 5, 6):
        assert len(kernel_basis(fields["dz"], bound)) == bound + 1


def test_kernel_members_are_normal_forms_killed_by_the_field():
    on = surface_chart()
    fields = surface_fields(on)
    for name in ("dz", "dy", "dx"):
        for member in kernel_basis(fields[name], 3):
            assert on.normal_form(member) == member
            assert fields[name].apply(member).is_zero


def test_kernel_of_zero_field_is_whole_truncated_ring():
    on = torus_chart(2)
    zero = vector_field(on, {})
    basis = kernel_basis(zero, 2)
    assert len(basis) == len(monomials_up_to(on, 2))


# ----------------------------------------------------- semi-compatibility


def test_semicompat_sl2_pair_is_full_ring():
    _, xi, eta = sl2_pair()
    verdict = semicompat_bounded(xi, eta, 2)
    assert verdict.status == FULL_RING
    assert verdict.witness == LaurentPoly.one(xi.chart.coordinates)
    # monotone: stays FULL_RING at a higher bound
    assert semicompat_bounded(xi, eta, 3).status == FULL_RING


def test_semicompat_self_pair_is_unknown():
    _, xi, _ = sl2_pair()
    verdict = semicompat_bounded(xi, xi, 2)
    assert verdict.status == UNKNOWN
    assert verdict.witness is None


def test_semicompat_torus_trivial():
    on = torus_chart(2)
    nu1 = vector_field(on, {"z1": on.generator("z1")})
    nu2 = vector_field(on, {"z2": on.generator("z2")})
    assert semicompat_bounded(nu1, nu2, 0).status == FULL_RING


def test_semicompat_ideal_witness_on_sl2_like_chart():
    # x*v - y*u = 1 with the two polynomial shears; v's normal form has a
    # 1/x denominator, so the certificate is an ideal witness rather than 1
    names = ("x", "y", "u", "v")
    x, y, u, v = LaurentPoly.generators(names)
    from volform import chart

    on = chart(names, invertible=("x",), relations=[(x * v - y * u - 1, "v")])
    nu_y = vector_field(on, {"y": x, "v": u})
    nu_u = vector_field(on, {"u": x, "v": y})
    verdict = semicompat_bounded(nu_y, nu_u, 1)
    assert verdict.status == IDEAL_WITNESS
    assert verdict.witness == x


SL3 = """
chart {
  vars a11, a12, a13, a21, a22, a23, a31, a32, a33, m;
  invert a33, m;
  rel m - a22*a33 + a23*a32 solve a22;
  rel a11*m - a12*(a21*a33 - a23*a31) + a13*(a21*a32 - a22*a31) - 1 solve a11;
}
field r12 = (a21) d/da11 + (a22) d/da12 + (a23) d/da13;
field r23 = (a31) d/da21 + (a32) d/da22 + (a33) d/da23;
field c32 = (a13) d/da12 + (a23) d/da22 + (a33) d/da32;
"""


def test_semicompat_on_sl3_with_two_relations():
    # SL3 on the chart a33 != 0, m != 0, where m is the trailing 2x2 minor:
    # a row shear pair spans the whole ring at bound 3, and a row/column
    # pair needs the witness a33**3
    model = parse(SL3)
    fields = model.fields
    verdict = semicompat_bounded(fields["r12"], fields["r23"], 3)
    assert verdict.status == FULL_RING
    assert verdict.witness == LaurentPoly.one(model.chart.coordinates)
    verdict = semicompat_bounded(fields["r23"], fields["c32"], 3)
    assert verdict.status == IDEAL_WITNESS
    assert verdict.witness == model.chart.generator("a33") ** 3


@pytest.mark.parametrize("bound, case", [
    *((bound, case) for bound in (1, 2) for case in ("sl2", "xm1:1", "self", "rational")),
    # zero normal forms lie in every span and so pass for any witness
    *((bound, "zero") for bound in (1, 2)),
    # most candidate rows fail the lead test here: xm1:1's witness is its
    # 45th row, and xm1:2 and the cubic surface have none
    (3, "xm1:1"),
    (3, "xm1:2"),
    (2, "cubic"),
])
def test_semicompat_matches_dense_oracle(case, bound):
    if case == "rational":
        a, b = rational_pair()
    elif case == "zero":
        a, b = zero_coordinate_pair()
    elif case.startswith("xm1:"):
        fields = scenario_by_name(case).fields
        a, b = fields["nu_y"], fields["nu_u"]
    elif case == "cubic":
        fields = scenario_by_name(CUBIC).fields
        a, b = fields["dz"], fields["dx"]
    else:
        _, a, b = sl2_pair()
        if case == "self":
            b = a
    verdict = semicompat_bounded(a, b, bound)
    status, witness = brute_force_semicompat(a, b, bound)
    assert verdict.status == status
    assert witness_terms(verdict) == witness


@pytest.mark.parametrize("address, bound, most", [
    ("xm1:1", 4, 71),  # a search that tests every row makes 678
    ("xm1:2", 4, 1),  # and 579 here
])
def test_semicompat_screens_witness_rows_by_leading_codes(monkeypatch, address, bound, most):
    # a row w is tested only if lead(w) + lead(nf(m)) is a pivot of
    # the product span for every monomial m: no other row can pass
    calls = []
    contains = SpanBuilder.contains

    def counted(self, vec):
        calls.append(vec)
        return contains(self, vec)

    monkeypatch.setattr(SpanBuilder, "contains", counted)
    fields = scenario_by_name(address).fields
    semicompat_bounded(fields["nu_y"], fields["nu_u"], bound)
    assert len(calls) <= most


@pytest.mark.parametrize("first, a, second, b", [
    # the same coordinate names, with other relations
    ("surface:p=x,q=y", "dz", "surface:p=2*x,q=3*y", "dx"),
    ("xm1:1", "nu_y", "sl2", "xi"),
])
def test_semicompat_rejects_fields_on_two_charts(first, a, second, b):
    a, b = scenario_by_name(first).fields[a], scenario_by_name(second).fields[b]
    with pytest.raises(VariableMismatchError, match="different charts"):
        semicompat_bounded(a, b, 2)
    # the wedge test raises the same error for the same condition
    with pytest.raises(VariableMismatchError, match="different charts"):
        spans_wedge_square([(a, b, LaurentPoly.one(a.chart.coordinates))],
                           sample_point(a.chart, 0))


# --------------------------------------------------------- wedge spanning


def test_wedge_span_on_torus():
    for n in (2, 3):
        on = torus_chart(n)
        one = LaurentPoly.one(on.coordinates)
        gens = {name: on.generator(name) for name in on.coordinates}
        pairs = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                nu_i = vector_field(on, {f"z{i}": gens[f"z{i}"]})
                nu_j = vector_field(on, {f"z{j}": gens[f"z{j}"]})
                pairs.append((gens[f"z{j}"] * nu_i, gens[f"z{i}"] * nu_j, one))
        for seed in range(20):
            assert spans_wedge_square(pairs, sample_point(on, seed))


def test_wedge_span_rejects_foreign_points():
    on = torus_chart(2)
    other = surface_chart()
    nu1 = vector_field(on, {"z1": on.generator("z1")})
    nu2 = vector_field(on, {"z2": on.generator("z2")})
    one = LaurentPoly.one(on.coordinates)
    with pytest.raises(PointError):
        spans_wedge_square([(nu1, nu2, one)], sample_point(other, 0))


def test_wedge_span_checks_every_triple_on_a_one_dimensional_chart():
    # nothing spans there (the target is 0), but wrong inputs still raise
    a, b = chart(["x"], ["x"]), chart(["u", "v"])
    on_a = vector_field(a, {"x": a.generator("x")})
    on_b = vector_field(b, {"u": b.generator("v")})
    point = sample_point(a, 0)
    with pytest.raises(VariableMismatchError, match="different charts"):
        spans_wedge_square([(on_a, on_b, LaurentPoly.one(a.coordinates))], point)
    with pytest.raises(VariableMismatchError):
        spans_wedge_square([(on_a, on_a, LaurentPoly.one(b.coordinates))], point)
    assert spans_wedge_square([(on_a, on_a, LaurentPoly.one(a.coordinates))], point)


def test_wedge_span_fails_with_zero_witnesses():
    on = torus_chart(2)
    zero = LaurentPoly.zero(on.coordinates)
    nu1 = vector_field(on, {"z1": on.generator("z1")})
    nu2 = vector_field(on, {"z2": on.generator("z2")})
    assert not spans_wedge_square([(nu1, nu2, zero)], sample_point(on, 3))


def test_wedge_span_on_surface_at_generic_point():
    on = surface_chart()
    fields = surface_fields(on)
    one = LaurentPoly.one(on.coordinates)
    point = sample_point(on, 0)
    # generic: the single pair wedge is x*y*(p' + y*z), nonzero unless y = 1
    assert point.as_dict()["y"] != 1
    assert spans_wedge_square([(fields["dz"], fields["dy"], one)], point)


def _torus_wedge_triples(n):
    model = scenario_by_name(f"torus:{n}")
    (check,) = [c for c in model.checks if c.kind == "wedge_span"]
    return model.chart, [tuple(map(model.lookup, triple)) for triple in check.args[0]]


def _wedge_cases():
    for n in (2, 3, 4, 5):
        on, triples = _torus_wedge_triples(n)
        yield f"torus:{n}", on, triples
        # z1 + z2 vanishes at the seed-6 point (-7, 7, ...) and nowhere else in 0-9
        (a, b, _), *rest = triples
        gate = on.generator("z1") + on.generator("z2")
        yield f"torus:{n}, z1 + z2 gates the first pair", on, [(a, b, gate), *rest]
    for address in ("surface:p=x,q=y", "surface:p=2*x+x**3,q=y**2+y"):
        model = scenario_by_name(address)
        on, f = model.chart, model.fields
        one = LaurentPoly.one(on.coordinates)
        pairs = (("dz", "dy"), ("dz", "dx"), ("dy", "dx"))
        for witness in (on.generator("z"), one):
            for a, b in pairs:
                yield f"{address} ({a}, {b}, {witness})", on, [(f[a], f[b], witness)]
            yield f"{address} all pairs, {witness}", on, [(f[a], f[b], witness) for a, b in pairs]
        yield f"{address} (dz, dz, 1)", on, [(f["dz"], f["dz"], one)]
        yield f"{address} zero", on, [(f["dz"], f["dy"], LaurentPoly.zero(on.coordinates))]
        # fractional coefficients, so the values are scaled to integers
        third, mix = Fraction(1, 3) * f["dz"], Fraction(-5, 2) * f["dy"] + Fraction(2, 7) * f["dx"]
        witness = Fraction(3, 4) * on.generator("z") - Fraction(1, 6)
        yield f"{address} fractional", on, [(third, mix, witness)]


def test_wedge_span_agrees_with_substitution_oracle():
    # the oracle evaluates the witness z, a solvable coordinate, without
    # taking its normal form; spans_wedge_square must agree at every point
    outcomes = set()
    witness_zero = {}  # (label, triple index) -> whether the witness vanished, per seed
    for label, on, triples in _wedge_cases():
        for seed in range(10):
            point = sample_point(on, seed)
            got = spans_wedge_square(triples, point)
            assert got == wedge_span_by_substitution(triples, point), (label, seed)
            outcomes.add(got)
            for k, (_, _, witness) in enumerate(triples):
                vanished = witness.evaluate(point.as_dict()) == 0
                witness_zero.setdefault((label, k), set()).add(vanished)
    assert outcomes == {True, False}
    for n in (2, 3, 4, 5):
        assert witness_zero[(f"torus:{n}, z1 + z2 gates the first pair", 0)] == {True, False}


def test_wedge_span_evaluates_only_gates_and_nonzero_components(monkeypatch):
    # torus:5: 10 pairs, each a witness and one nonzero free component per field
    on, triples = _torus_wedge_triples(5)
    calls = []
    kernel = LaurentPoly._evaluate_parts
    monkeypatch.setattr(LaurentPoly, "_evaluate_parts",
                        lambda p, parts: calls.append(p) or kernel(p, parts))
    for seed in range(3):
        point = sample_point(on, seed)
        calls.clear()
        assert spans_wedge_square(triples, point)
        assert 0 < len(calls) <= 30
        assert not any(p.is_zero for p in calls)


# ---------------------------------------------------------- flow Jacobian


def test_flow_jacobian_on_sl2():
    on, xi, _ = sl2_pair()
    point = on.point({"a1": 1, "a2": 1, "b1": 0, "b2": 1})
    assert verify_flow_jacobian(xi, on.generator("b1"), point, 8)


def test_flow_jacobian_zero_function_gives_identity():
    on, xi, _ = sl2_pair()
    point = on.point({"a1": 1, "a2": 1, "b1": 0, "b2": 1})
    assert verify_flow_jacobian(xi, LaurentPoly.zero(on.coordinates), point, 8)


def test_flow_jacobian_preconditions():
    on, xi, _ = sl2_pair()
    point = on.point({"a1": 1, "a2": 0, "b1": 5, "b2": 1})
    with pytest.raises(PreconditionError):
        verify_flow_jacobian(xi, on.generator("b1"), point, 8)  # b1 != 0 there
    with pytest.raises(PreconditionError):
        verify_flow_jacobian(xi, on.generator("a1"), point, 8)  # a1 not in kernel


# ------------------------------------------------------ surface potential


def test_bracket_potential_value_and_exactness():
    on = surface_chart()
    w = surface_volume(on)
    fields = surface_fields(on)
    value = bracket_potential(fields["dz"], fields["dy"], w)
    y, z = on.generator("y"), on.generator("z")
    assert value == on.normal_form(1 + y * z)
    assert forms_equal(
        exterior_derivative(scalar_form(on, value)),
        contract_volume(lie_bracket(fields["dz"], fields["dy"]), w),
    )


@pytest.mark.parametrize("target", [
    "surface:p=x,q=y", "surface:p=x**2,q=y**3", "surface:p=2*x-x**3,q=y**2+y",
    "tests/data/surface_xy.vf",
])
def test_bracket_potential_recovers_the_bracket_contraction(target):
    # Cartan's formula makes d(i_a i_b w) = i_[a,b] w for divergence-free a, b;
    # the bracket_potential check does not re-check it, so this is the oracle
    s = parse((ROOT / target).read_text()) if target.endswith(".vf") else scenario_by_name(target)
    w = s.volume
    fields = [f for f in s.fields.values() if divergence(f, w).is_zero]
    assert len(fields) == 3
    for a in fields:
        for b in fields:
            value = scalar_form(s.chart, bracket_potential(a, b, w))
            assert exterior_derivative(value) == interior_product(lie_bracket(a, b), w)


def test_bracket_potential_same_field_is_zero():
    on = surface_chart()
    w = surface_volume(on)
    fields = surface_fields(on)
    assert bracket_potential(fields["dz"], fields["dz"], w).is_zero


def test_bracket_potential_of_scaled_fields_has_monomial_lead():
    on = surface_chart()
    w = surface_volume(on)
    fields = surface_fields(on)
    y, z = on.generator("y"), on.generator("z")
    for i, j in ((1, 1), (1, 2), (2, 1)):
        zi = on.normal_form(z ** i)
        yj = on.normal_form(y ** j)
        value = bracket_potential(zi * fields["dz"], yj * fields["dy"], w)
        assert value == on.normal_form(z ** i * (1 + y * z) * y ** j)


def test_bracket_potential_requires_surface():
    on, xi, eta = sl2_pair()
    from volform import volume_form

    w = volume_form(on, on.generator("a1").unit_inverse())
    with pytest.raises(DimensionError):
        bracket_potential(xi, eta, w)


def test_verify_potential_examples():
    on = surface_chart()
    w = surface_volume(on)
    fields = surface_fields(on)
    x, y, z = on.generators()
    assert verify_potential(-z, fields["dz"], w)
    assert not verify_potential(z, fields["dz"], w)
    assert not verify_potential(z ** 2, fields["dz"], w)
    assert verify_potential(-y, fields["dy"], w)
    assert verify_potential(x, fields["dx"], w)
    zero = vector_field(on, {})
    assert verify_potential(LaurentPoly.zero(on.coordinates), zero, w)


def test_compositions_run_in_lex_order_without_recursion():
    assert list(_compositions(2, 3)) == [
        (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)]
    for total in range(5):
        for parts in range(1, 5):
            every = itertools.product(range(total + 1), repeat=parts)
            expected = sorted(e for e in every if sum(e) == total)
            assert list(_compositions(total, parts)) == expected
    # one frame per coordinate once overflowed Python's stack here
    wide = chart([f"x{i}" for i in range(1500)])
    assert monomials_up_to(wide, 0) == [(0,) * 1500]


def test_monomials_up_to_matches_the_oracle_enumeration():
    # the dense oracles enumerate ambient monomials themselves; the order is
    # part of the contract, since the table's rows follow it
    for n in range(1, 5):
        on = chart([f"x{i}" for i in range(n)])
        for bound in range(7):
            assert monomials_up_to(on, bound) == ambient_exponents(on, bound)
        assert monomials_up_to(on, -1) == monomials_up_to(on, -5) == []


@pytest.mark.parametrize("address", [
    "sl2", "xm1:1", "xm1:2", "xm1:3", "torus:2",
    # one surface per kernels benchmark class, as in the peel test above
    "surface:p=-2*x,q=3*y", "surface:p=-2*x,q=3*y-y**2", "surface:p=-2*x+x**2,q=3*y",
    "surface:p=-2*x+x**2+3*x**3,q=3*y-y**2+2*y**3", "surface:p=-2*x+x**2,q=3*y-y**2+2*y**3",
    "surface:p=-2*x+x**2,q=3*y-y**2", "surface:p=-2*x+x**2+3*x**3,q=3*y-y**2",
])
def test_monomial_table_builds_no_polynomial(monkeypatch, address):
    # the table reads exponent vectors and generator terms: no monomial,
    # generator or intermediate product becomes a LaurentPoly
    fields = list(scenario_by_name(address).fields.values())
    on = fields[0].chart
    built, init = [], LaurentPoly.__init__
    monkeypatch.setattr(LaurentPoly, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    for bound in range(7):
        _monomial_table(on, bound, fields)
    assert built == []


def test_accepted_potentials_lie_in_the_kernel():
    # whenever d f = i_xi omega, the field must kill f
    on = surface_chart()
    w = surface_volume(on)
    fields = surface_fields(on)
    x, y, z = on.generators()
    for f, xi in ((-z, fields["dz"]), (-y, fields["dy"]), (x, fields["dx"])):
        assert verify_potential(f, xi, w)
        assert xi.apply(f).is_zero
        assert lie_derivative(xi, scalar_form(on, f)).is_zero


def test_divergence_of_kernel_scaled_fields_is_application():
    rng = random.Random(56)
    cases = []
    torus = torus_chart(2)
    cases.append((torus, torus_volume(torus),
                  [vector_field(torus, {n: torus.generator(n)}) for n in torus.coordinates]))
    surf = surface_chart()
    cases.append((surf, surface_volume(surf), list(surface_fields(surf).values())))
    from volform import divergence

    for on, w, generators in cases:
        for _ in range(50):
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in generators]
            nu = vector_field(on, {})
            for c, g in zip(coeffs, generators):
                nu = nu + c * g
            assert divergence(nu, w).is_zero
            f = random_poly(rng, on, max_terms=2, max_degree=2)
            assert divergence(f * nu, w) == nu.apply(f)


def test_pointwise_tests_reject_a_foreign_point_and_no_pairs():
    plane = chart(("x", "y"))
    y = plane.generator("y")
    with pytest.raises(PreconditionError, match="^no field pairs supplied$"):
        spans_wedge_square([], plane.point({"x": 1, "y": 1}))
    other = chart(("x", "y"), ("x",)).point({"x": 1, "y": 0})
    with pytest.raises(PointError, match="^point does not belong to the field's chart$"):
        verify_flow_jacobian(vector_field(plane, {"x": 1}), y, other, 2)
