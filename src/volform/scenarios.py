"""Built-in worked examples: tori, SL2, the xyz-surfaces, the x^m v - y u = 1
family, and products, each packaged with the checks it is expected to pass.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .algebra import LaurentPoly
from .calculus import (
    DiffForm,
    VectorField,
    diff_form,
    divergence,
    is_invariant,
    lie_bracket,
    vector_field,
    volume_form,
)
from .errors import ChartError, PreconditionError
from .model import CheckDirective, Model
from .variety import SubstitutionAction, action, chart


def exactness_field(xi: VectorField, eta: VectorField, f: LaurentPoly) -> VectorField:
    """The field xi(f)*eta for commuting xi, eta and f in the kernel of eta.

    By Leibniz, [xi, f*eta] = xi(f)*eta + f*[xi, eta], which is this field once
    [xi, eta] = 0, so its contraction with any volume form that kills both xi
    and f*eta is exact, with the double contraction of (xi, f*eta) as a
    primitive."""
    if not lie_bracket(xi, eta).is_zero:
        raise PreconditionError("fields do not commute")
    if not eta.apply(f).is_zero:
        raise PreconditionError("f is not in the kernel of the second field")
    return xi.apply(f) * eta


def torus(n: int) -> Model:
    """(C*)^n with the invariant volume form and the coordinate scalings."""
    if n < 1:
        raise ChartError(f"torus dimension must be >= 1, got {n}")
    names = tuple(f"z{i}" for i in range(1, n + 1))
    t = chart(names, invertible=names)
    gens = {name: t.generator(name) for name in names}
    omega = volume_form(
        t, LaurentPoly.monomial(names, tuple(-1 for _ in names))
    )

    fields: dict[str, VectorField] = {}
    for i, name in enumerate(names, start=1):
        fields[f"nu{i}"] = vector_field(t, {name: gens[name]})
    # nu_i rescaled by nu_j(z_j) = z_j: exactness fields whose contractions
    # with omega are exact; they feed the wedge-span test.  The second of a
    # pair is exactness_field(nu_i, nu_j, z_i): nu_j(z_i) = 0, and the first
    # has tested the commutation
    pair_triples: list[tuple[str, str, str]] = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            left = f"nu{i}x{j}"
            right = f"nu{j}x{i}"
            fields[left] = exactness_field(fields[f"nu{j}"], fields[f"nu{i}"], gens[f"z{j}"])
            fields[right] = fields[f"nu{i}"].apply(gens[f"z{i}"]) * fields[f"nu{j}"]
            pair_triples.append((left, right, "one"))

    forms: dict[str, DiffForm] = {}
    for i, name in enumerate(names, start=1):
        rest = tuple(m for m in names if m != name)
        coeff = LaurentPoly.monomial(
            names, tuple(-1 if m != name else 0 for m in names)
        )
        forms[f"w_without_{i}"] = diff_form(t, n - 1, {rest: coeff})

    negate = action(t, "negate", {name: -gens[name] for name in names}, 2)

    polys = {"one": LaurentPoly.one(names)}

    checks: list[CheckDirective] = []
    for i in range(1, n + 1):
        checks.append(CheckDirective("divergence_zero", (f"nu{i}", "w")))
        checks.append(CheckDirective("theta_equals", (f"nu{i}", "w", f"w_without_{i}")))
        checks.append(CheckDirective("invariant", (f"nu{i}", "negate")))
    if n >= 2:
        checks.append(CheckDirective("semicompat", ("nu1", "nu2", 0, "FULL_RING")))
        checks.append(CheckDirective("wedge_span", (tuple(pair_triples),)))

    return Model(
        name=f"torus:{n}",
        chart=t,
        volume=omega,
        volume_name="w",
        fields=fields,
        forms=forms,
        polys=polys,
        actions={"negate": negate},
        checks=tuple(checks),
    )


def sl2() -> Model:
    """SL2 as a1*b2 - a2*b1 = 1, with the two triangular shear fields."""
    names = ("a1", "a2", "b1", "b2")
    rel = LaurentPoly.from_dict(names, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1, (0, 0, 0, 0): -1})
    c = chart(names, invertible=("a1",), relations=[(rel, "b2")])
    a1, a2, b1, b2 = c.generators()
    omega = volume_form(c, a1.unit_inverse())
    xi = vector_field(c, {"a1": b1, "a2": b2})
    eta = vector_field(c, {"b1": a1, "b2": a2})
    polys = {"one": LaurentPoly.one(names), "f": b1}

    point_literal = (("a1", 1), ("a2", 1), ("b1", 0), ("b2", 1))
    checks = (
        CheckDirective("tangent", ("xi",)),
        CheckDirective("tangent", ("eta",)),
        CheckDirective("lnd", ("xi", 2)),
        CheckDirective("lnd", ("eta", 2)),
        CheckDirective("divergence_zero", ("xi", "w")),
        CheckDirective("divergence_zero", ("eta", "w")),
        CheckDirective("identity1", ("xi", "eta", "w")),
        CheckDirective("semicompat", ("xi", "eta", 2, "FULL_RING")),
        CheckDirective("flow_jacobian", ("xi", "f", point_literal, 8)),
    )
    return Model(
        name="sl2",
        chart=c,
        volume=omega,
        volume_name="w",
        fields={"xi": xi, "eta": eta},
        polys=polys,
        checks=checks,
    )


def surface(p: LaurentPoly, q: LaurentPoly) -> Model:
    """The surface p(x) + q(y) + x*y*z = 1 with its three shear fields.

    p must be a polynomial in x alone with p(0) = 0, q likewise in y.  The
    simple-roots hypothesis on 1-p and 1-q is the caller's responsibility and
    is recorded, not verified.
    """
    names = ("x", "y", "z")
    x, y, z = LaurentPoly.generators(names)
    p = p.extend_variables(names) if p.variables != names else p
    q = q.extend_variables(names) if q.variables != names else q
    for poly, var, label in ((p, "x", "p"), (q, "y", "q")):
        if not poly.support() <= {var}:
            raise ChartError(f"{label} must be a polynomial in {var} only, got {poly}")
        if not poly.is_zero and poly.min_degree_in(var) < 1:
            raise ChartError(f"{label}(0) must be 0, got {poly}")
    rel = p + q + x * y * z - 1
    c = chart(names, invertible=("x", "y"), relations=[(rel, "z")])
    omega = volume_form(c, (x * y).unit_inverse())

    dp = p.partial_derivative("x")
    dq = q.partial_derivative("y")
    dz = vector_field(c, {"x": dq + x * z, "y": -(dp + y * z)})
    dy = vector_field(c, {"x": -(x * y), "z": dp + y * z})
    dx = vector_field(c, {"y": -(x * y), "z": dq + x * z})

    polys = {
        "one": LaurentPoly.one(names),
        "px": x,
        "py": y,
        "pz": z,
        # the double contraction of (dz, dy) with omega; equals 1 + y*z when p = x
        "pprime_plus_yz": dp + y * z,
    }

    actions: dict[str, SubstitutionAction] = {}
    if p.substitute({"x": y}) == q:  # then q(x) = p, as p is in x alone
        actions["swap_xy"] = action(c, "swap_xy", {"x": y, "y": x}, 2)

    checks = (
        CheckDirective("tangent", ("dz",)),
        CheckDirective("tangent", ("dy",)),
        CheckDirective("tangent", ("dx",)),
        CheckDirective("divergence_zero", ("dz", "w")),
        CheckDirective("divergence_zero", ("dy", "w")),
        CheckDirective("divergence_zero", ("dx", "w")),
        CheckDirective("identity1", ("dz", "dy", "w")),
        CheckDirective("identity1", ("dz", "dx", "w")),
        CheckDirective("identity1", ("dy", "dx", "w")),
        CheckDirective("potential", ("pz", "dz", "w")),
        CheckDirective("potential", ("py", "dy", "w")),
        CheckDirective("potential", ("px", "dx", "w")),
        CheckDirective("bracket_potential", ("dz", "dy", "w", "pprime_plus_yz")),
        CheckDirective("kernel_spans", ("dz", 4, "pz", 5)),
        CheckDirective("kernel_spans", ("dy", 4, "py", 5)),
        CheckDirective("kernel_spans", ("dx", 4, "px", 5)),
    )
    return Model(
        name=f"surface:p={p},q={q}",
        chart=c,
        volume=omega,
        volume_name="w",
        fields={"dz": dz, "dy": dy, "dx": dx},
        polys=polys,
        actions=actions,
        checks=checks,
    )


def xm1(m: int) -> Model:
    """The hypersurface x^m*v - y*u = 1, its volume form x^-m dx^dy^du, and
    for m >= 2 the primitive whose exterior derivative recovers it."""
    if m < 1:
        raise ChartError(f"exponent must be >= 1, got {m}")
    names = ("x", "y", "u", "v")
    x, y, u, v = LaurentPoly.generators(names)
    rel = x ** m * v - y * u - 1
    c = chart(names, invertible=("x",), relations=[(rel, "v")])
    omega = volume_form(c, LaurentPoly.monomial(names, (-m, 0, 0, 0)))

    nu_y = vector_field(c, {"y": x ** m, "v": u})
    nu_u = vector_field(c, {"u": x ** m, "v": y})
    fields = {"nu_y": nu_y, "nu_u": nu_u}

    forms: dict[str, DiffForm] = {}
    checks: list[CheckDirective] = [
        CheckDirective("tangent", ("nu_y",)),
        CheckDirective("tangent", ("nu_u",)),
        CheckDirective("lnd", ("nu_y", 2)),
        CheckDirective("lnd", ("nu_u", 2)),
        CheckDirective("divergence_zero", ("nu_y", "w")),
        CheckDirective("divergence_zero", ("nu_u", "w")),
    ]
    if m == 1:
        # the m = 1 chart is the SL2 relation in other names; the kernel
        # products certify an ideal witness already at bound 1
        checks.append(CheckDirective("semicompat", ("nu_y", "nu_u", 1, "IDEAL_WITNESS")))
    else:
        # a one-sided test: for m >= 2 it reports UNKNOWN at bound 1
        checks.append(CheckDirective("semicompat", ("nu_y", "nu_u", 1)))
    if m >= 2:
        coeff = LaurentPoly.monomial(names, (1 - m, 0, 0, 0), Fraction(1, 1 - m))
        forms["tau"] = diff_form(c, 2, {("y", "u"): coeff})
        checks.append(CheckDirective("exact_volume", ("tau", "w")))

    return Model(
        name=f"xm1:{m}",
        chart=c,
        volume=omega,
        volume_name="w",
        fields=fields,
        forms=forms,
        polys={"one": LaurentPoly.one(names)},
        checks=tuple(checks),
    )


# --------------------------------------------------------------- products


def _fresh(taken: Mapping[str, object], name: str) -> str:
    """``name``, or ``name_2``, ``name_3``, ... for the first one not taken."""
    candidate, suffix = name, 2
    while candidate in taken:
        candidate, suffix = f"{name}_{suffix}", suffix + 1
    return candidate


def _add(table: dict, name: str, value) -> str:
    key = _fresh(table, name)
    table[key] = value
    return key


def product(s1: Model, s2: Model) -> Model:
    """Product scenario: concatenated chart, product volume, lifted fields.

    Every table (coordinates, fields, forms, polys, actions) keeps the first
    factor's names; a name of the second factor that is already taken gets
    the first free suffix ``_2``, ``_3``, ...  A poly equal to the one it
    clashes with is dropped instead.  Factor actions lift (identity on the
    other factor) and are named by their keys, and each equal-order pair
    combines into a diagonal action ``a_b``.  Objects that verify as
    invariant under a diagonal action are recorded as invariance checks:
    lifted fields under their own names, and an anti-invariant field or the
    volume form ``w`` rescaled by an anti-invariant coordinate ``c`` as the
    new field ``c<field>`` or form ``cw``.
    """
    if s1.chart is None or s2.chart is None or s1.volume is None or s2.volume is None:
        raise ChartError("product needs two scenarios with charts and volume forms")
    taken = dict.fromkeys(s1.chart.coordinates)
    rn2 = {c: _add(taken, c, None) for c in s2.chart.coordinates}
    factors = ((s1, {}), (s2, rn2))
    coords = tuple(taken)

    def lift(p: LaurentPoly, rn: Mapping[str, str]) -> LaurentPoly:
        return p.rename_variables(rn).extend_variables(coords)

    both = chart(
        coords,
        {rn.get(c, c) for s, rn in factors for c in s.chart.invertible},
        [
            (lift(rel.poly, rn), rn.get(rel.solves, rel.solves))
            for s, rn in factors
            for rel in s.chart.relations
        ],
    )
    unit = lift(s1.volume.unit_coefficient(), {}) * lift(s2.volume.unit_coefficient(), rn2)
    volume = volume_form(both, unit)

    fields: dict[str, VectorField] = {}
    forms: dict[str, DiffForm] = {}
    polys: dict[str, LaurentPoly] = {}
    actions: dict[str, SubstitutionAction] = {}
    images: tuple[list, list] = ([], [])  # (name, lifted images, order) per factor
    for (s, rn), own_images in zip(factors, images):
        for name, f in s.fields.items():
            lifted = vector_field(both, {rn.get(n, n): lift(c, rn) for n, c in f.coefficients})
            _add(fields, name, lifted)
        for name, f in s.forms.items():
            coeffs = {tuple(rn.get(n, n) for n in key): lift(c, rn) for key, c in f.coefficients}
            _add(forms, name, diff_form(both, f.degree, coeffs))
        for name, p in s.polys.items():
            lifted = lift(p, rn)
            if polys.get(name) != lifted:
                _add(polys, name, lifted)
        for name, a in s.actions.items():
            lifted = {rn.get(n, n): lift(img, rn) for n, img in a.images}
            key = _fresh(actions, name)
            actions[key] = action(both, key, lifted, a.order)
            own_images.append((name, lifted, a.order))
    diagonals: list[str] = []
    for n1, images1, order in images[0]:
        for n2, images2, order2 in images[1]:
            if order == order2:
                name = _fresh(actions, f"{n1}_{n2}")
                actions[name] = action(both, name, {**images1, **images2}, order)
                diagonals.append(name)

    checks: list[CheckDirective] = []
    for name, f in fields.items():
        checks.append(CheckDirective("tangent", (name,)))
        if divergence(f, volume).is_zero:
            checks.append(CheckDirective("divergence_zero", (name, "w")))
    names = list(fields)
    left, right = names[: len(s1.fields)], names[len(s1.fields):]
    checks += [CheckDirective("commute", (a, b)) for a in left for b in right]

    # invariance candidates run in the order of their sort labels; a target
    # recorded once (a rescaled field an earlier product already named) is
    # not recorded again
    for diag in diagonals:
        act = actions[diag]
        candidates = [(name, name, f, fields) for name, f in fields.items()]
        for coord in coords:
            g = both.generator(coord)
            if act.image(coord) != -g:
                continue
            for name, f in fields.items():
                scaled = g * f
                if scaled.coefficients != f.coefficients:
                    candidates.append((f"{coord}~{name}", f"{coord}{name}", scaled, fields))
            candidates.append((f"{coord}~w", f"{coord}w", g * volume, forms))
        recorded: set[str] = set()
        for _, target, obj, table in sorted(candidates, key=lambda c: c[0]):
            if target in recorded:
                continue
            if is_invariant(obj, act):
                table[target] = obj
                recorded.add(target)
                checks.append(CheckDirective("invariant", (target, diag)))

    return Model(
        name=f"product:{s1.name}|{s2.name}",
        chart=both,
        volume=volume,
        volume_name="w",
        fields=fields,
        forms=forms,
        polys=polys,
        actions=actions,
        checks=tuple(checks),
    )


# ------------------------------------------------------------- addressing

SCENARIO_SUMMARY = (
    ("torus:N", "algebraic torus (C*)^N with scaling fields"),
    ("sl2", "SL2 as a1*b2 - a2*b1 = 1 with the shear pair"),
    ("surface:p=...,q=...", "surface p(x) + q(y) + x*y*z = 1, e.g. surface:p=x,q=y"),
    ("xm1:M", "hypersurface x^M*v - y*u = 1 with its exact volume form"),
    ("product:A|B", "product of two addresses, e.g. product:surface:p=x,q=y|torus:1"),
)


def scenario_by_name(address: str) -> Model:
    """Resolve a CLI scenario address."""
    from .dsl import parse_polynomial  # local import keeps modules acyclic

    addr = address.strip()
    if addr.startswith("product:"):
        parts = addr[len("product:"):].split("|")
        if len(parts) < 2:
            raise ChartError(f"product address needs two parts: {address!r}")
        built = scenario_by_name(parts[0])
        for part in parts[1:]:
            built = product(built, scenario_by_name(part))
        return built
    if addr == "sl2":
        return sl2()
    if addr.startswith("torus:"):
        return torus(_address_int(addr, "torus:"))
    if addr.startswith("xm1:"):
        return xm1(_address_int(addr, "xm1:"))
    if addr.startswith("surface:"):
        spec = addr[len("surface:"):]
        if not spec.startswith("p=") or ",q=" not in spec:
            raise ChartError(
                f"surface address must look like surface:p=<poly>,q=<poly>: {address!r}"
            )
        p_text, q_text = spec[2:].split(",q=", 1)
        names = ("x", "y", "z")
        return surface(
            parse_polynomial(p_text, names), parse_polynomial(q_text, names)
        )
    raise ChartError(f"unknown scenario address {address!r}")


def _address_int(addr: str, prefix: str) -> int:
    tail = addr[len(prefix):]
    try:
        return int(tail)
    except ValueError:
        raise ChartError(f"bad numeric parameter {tail!r} in scenario address") from None
