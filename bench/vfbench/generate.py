"""Seeded input generators for the three workloads.

Generators only emit inputs that are valid by construction: every surface is
``p(x) + q(y) + x*y*z = 1`` with ``p(0) = q(0) = 0`` (so its chart always
builds), and every document is written from a template that parses.  The
expected verdict of each operation comes from :mod:`vfbench.answers`.

Operations are grouped in *cycles*.  A cycle holds one operation of every
class (a fixed structural shape such as field, bound and polynomial degrees)
in a seeded order; the seed also picks the coefficients, points and CLI seeds.
Running whole cycles keeps the mix of cheap and expensive operations the same
from one seed to the next, so medians and tails compare across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import answers

# ----------------------------------------------------------------- shared


def _rng(seed: int, *path) -> random.Random:
    return random.Random("/".join(str(p) for p in (seed,) + path))


def _coefficients(rng: random.Random, degree: int) -> list[int]:
    """Small nonzero integers c_1..c_degree for c_1*v + ... + c_k*v**k."""
    return [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(degree)]


def _join(terms: list[str]) -> str:
    return "+".join(terms).replace("+-", "-") if terms else "0"


def poly_text(coeffs: list[int], var: str) -> str:
    """``sum c_i * var**i`` for i >= 1, written so parse_polynomial reads it."""
    return _join([
        f"{c}*{var}" if i == 1 else f"{c}*{var}**{i}"
        for i, c in enumerate(coeffs, start=1)
    ])


def derivative_text(coeffs: list[int], var: str) -> str:
    terms = []
    for i, c in enumerate(coeffs, start=1):
        k = i * c
        terms.append(str(k) if i == 1 else f"{k}*{var}" if i == 2 else f"{k}*{var}**{i - 1}")
    return _join(terms)


def surface_address(p: list[int], q: list[int]) -> str:
    return f"surface:p={poly_text(p, 'x')},q={poly_text(q, 'y')}"


def _permuted(rng: random.Random, items: list) -> list:
    out = list(items)
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------- kernels

# (field, bound, deg p, deg q): a Latin square over field x bound, with the
# polynomial degrees spread so that the cycle has a cheap body and a tail.
KERNEL_CLASSES = (
    ("dz", 4, 1, 1), ("dy", 5, 1, 2), ("dx", 6, 1, 1),
    ("dz", 5, 2, 1), ("dy", 4, 3, 3), ("dx", 4, 2, 3),
    ("dz", 6, 2, 2), ("dy", 6, 2, 1), ("dx", 5, 3, 2),
)
# distinct surfaces per class, one per cycle (cost moves by about 20% with
# the coefficients, so several draws per class keep the per-seed median close
# to the mixture's).  No more than the workload's minimum cycle count, so
# every model set-up builds is used and later cycles repeat earlier inputs.
KERNEL_VARIANTS = 7


@dataclass(frozen=True)
class KernelOp:
    klass: int
    address: str
    field: str
    bound: int
    generator: str
    dimension: int

    @property
    def args(self) -> tuple:
        return (self.field, self.bound, self.generator, self.dimension)


def kernel_surfaces(seed: int) -> dict[tuple[int, int], str]:
    """Surface address for every (class, variant) of a seed."""
    out = {}
    for klass, (_, _, dp, dq) in enumerate(KERNEL_CLASSES):
        for variant in range(KERNEL_VARIANTS):
            rng = _rng(seed, "kernels", klass, variant)
            out[(klass, variant)] = surface_address(
                _coefficients(rng, dp), _coefficients(rng, dq)
            )
    return out


def kernel_cycle(seed: int, cycle: int, surfaces: dict[tuple[int, int], str]) -> list[KernelOp]:
    variant = cycle % KERNEL_VARIANTS
    ops = []
    for klass, (field, bound, _, _) in enumerate(KERNEL_CLASSES):
        ops.append(KernelOp(
            klass, surfaces[(klass, variant)], field, bound,
            answers.KERNEL_GENERATOR[field], answers.kernel_dimension(bound),
        ))
    return _permuted(_rng(seed, "kernels", "cycle", cycle), ops)


# ---------------------------------------------------------------- certify

CERTIFY_SCENARIOS = {
    "sl2": ("xi", "eta"),
    "xm1:1": ("nu_y", "nu_u"),
    "xm1:2": ("nu_y", "nu_u"),
    "xm1:3": ("nu_y", "nu_u"),
}
# sl2 at bound 2 is left out: an odd class count puts the median in the
# middle of one class instead of on the edge between two
CERTIFY_CLASSES = (("sl2", 3), ("sl2", 4)) + tuple(
    (address, bound) for address in ("xm1:1", "xm1:2", "xm1:3") for bound in (2, 3, 4)
)


@dataclass(frozen=True)
class CertifyOp:
    klass: int
    address: str
    a: str
    b: str
    bound: int
    status: str
    verdict: str

    @property
    def args(self) -> tuple:
        return (self.a, self.b, self.bound)


def certify_cycle(seed: int, cycle: int) -> list[CertifyOp]:
    """One op per (scenario, bound); field order alternates between cycles,
    so two consecutive cycles cover both orders of every pair."""
    ops = []
    for klass, (address, bound) in enumerate(CERTIFY_CLASSES):
        a, b = CERTIFY_SCENARIOS[address]
        if (seed + cycle + klass) % 2:
            a, b = b, a
        status, verdict = answers.SEMICOMPAT[address]
        ops.append(CertifyOp(klass, address, a, b, bound, status, verdict))
    return _permuted(_rng(seed, "certify", "cycle", cycle), ops)


# ------------------------------------------------------------------- docs


@dataclass(frozen=True)
class DocSpec:
    """One document (``text`` set) or scenario address (``text`` None).

    ``checks`` lists the expected (name, status) of every check in order;
    for scenario addresses it is None and every check must PASS.
    """

    klass: int
    name: str
    text: str | None
    cli_seed: int
    checks: tuple[tuple[str, str], ...] | None
    exit_code: int


def _doc(klass, name, lines, checks, cli_seed) -> DocSpec:
    body = list(lines) + [f"check {label};" for label, _ in checks]
    return DocSpec(klass, name, "\n".join(body) + "\n", cli_seed, tuple(checks),
                   answers.exit_code([status for _, status in checks]))


def torus_doc(n: int) -> tuple[list[str], list[tuple[str, str]]]:
    zs = [f"z{i}" for i in range(1, n + 1)]
    ok = answers.SCENARIO_CHECK
    lines = [
        "chart {", f"  vars {', '.join(z + '*' for z in zs)};", "}",
        f"volume w = (1/({'*'.join(zs)})) {'^'.join('d' + z for z in zs)};",
        "poly one = 1;",
    ]
    for i, z in enumerate(zs, start=1):
        lines.append(f"field nu{i} = ({z}) d/d{z};")
    pairs = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            # nu_i rescaled by nu_j(z_j) = z_j, and nu_j rescaled by z_i
            lines.append(f"field nu{i}x{j} = (z{i}*z{j}) d/dz{i};")
            lines.append(f"field nu{j}x{i} = (z{i}*z{j}) d/dz{j};")
            pairs.append(f"(nu{i}x{j}, nu{j}x{i}, one)")
    for i, z in enumerate(zs, start=1):
        rest = [m for m in zs if m != z]
        lines.append(
            f"form w_without_{i} = (1/({'*'.join(rest)})) {'^'.join('d' + m for m in rest)};"
        )
    lines.append(f"action negate: {', '.join(f'{z} -> -{z}' for z in zs)} order 2;")
    checks = []
    for i in range(1, n + 1):
        checks.append((f"divergence_zero(nu{i}, w)", ok))
        checks.append((f"theta_equals(nu{i}, w, w_without_{i})", ok))
        checks.append((f"invariant(nu{i}, negate)", ok))
    for i in range(1, n):
        checks.append((f"commute(nu{i}, nu{i + 1})", ok))
    checks.append(("semicompat(nu1, nu2, 0, FULL_RING)", ok))
    checks.append((f"wedge_span(({', '.join(pairs)}))", ok))
    return lines, checks


def sl2_doc(rng: random.Random) -> tuple[list[str], list[tuple[str, str]]]:
    ok = answers.SCENARIO_CHECK
    # a zero of f = b1 on a1*b2 - a2*b1 = 1: b1 = 0, b2 = 1/a1, a2 free
    a1 = rng.choice((-3, -2, -1, 1, 2, 3))
    a2 = rng.randint(-3, 3)
    b2 = Fraction(1, a1)
    lines = [
        "chart {", "  vars a1, a2, b1, b2;", "  invert a1;",
        "  rel a1*b2 - a2*b1 - 1 solve b2;", "}",
        "volume w = (a1**-1) da1^da2^db1;",
        "poly f = b1;",
        "field xi = (b1) d/da1 + (b2) d/da2;",
        "field eta = (a1) d/db1 + (a2) d/db2;",
    ]
    checks = [
        ("tangent(xi)", ok), ("tangent(eta)", ok),
        ("lnd(xi, 2)", ok), ("lnd(eta, 2)", ok),
        ("divergence_zero(xi, w)", ok), ("divergence_zero(eta, w)", ok),
        ("identity1(xi, eta, w)", ok),
        ("semicompat(xi, eta, 2, FULL_RING)", ok),
        (f"flow_jacobian(xi, f, ((a1, {a1}), (a2, {a2}), (b1, 0), (b2, {b2})), 8)", ok),
    ]
    return lines, checks


def xm1_doc(m: int) -> tuple[list[str], list[tuple[str, str]]]:
    ok = answers.SCENARIO_CHECK
    lines = [
        "chart {", "  vars x, y, u, v;", "  invert x;",
        f"  rel x**{m}*v - y*u - 1 solve v;", "}",
        f"volume w = (x**-{m}) dx^dy^du;",
        f"field nu_y = (x**{m}) d/dy + (u) d/dv;",
        f"field nu_u = (x**{m}) d/du + (y) d/dv;",
    ]
    checks = [
        ("tangent(nu_y)", ok), ("tangent(nu_u)", ok),
        ("lnd(nu_y, 2)", ok), ("lnd(nu_u, 2)", ok),
        ("divergence_zero(nu_y, w)", ok), ("divergence_zero(nu_u, w)", ok),
    ]
    if m == 1:
        checks.append(("semicompat(nu_y, nu_u, 1, IDEAL_WITNESS)", answers.xm1_semicompat_status(1)))
    else:
        checks.append(("semicompat(nu_y, nu_u, 1)", answers.xm1_semicompat_status(m)))
        # tau = x**(1-m)/(1-m) dy^du has d(tau) = x**-m dx^dy^du
        lines.append(f"form tau = (-1/{m - 1}*x**{1 - m}) dy^du;")
        checks.append(("exact_volume(tau, w)", ok))
    return lines, checks


def _surface_lines(p: list[int], q: list[int]) -> list[str]:
    dp, dq = derivative_text(p, "x"), derivative_text(q, "y")
    return [
        "chart {", "  vars x, y, z;", "  invert x, y;",
        f"  rel {poly_text(p, 'x')} + {poly_text(q, 'y')} + x*y*z - 1 solve z;", "}",
        "volume w = (1/(x*y)) dx^dy;",
        "poly pz = z;",
        f"field dz = ({dq} + x*z) d/dx - ({dp} + y*z) d/dy;",
    ]


def surface_doc(rng: random.Random, dp: int, dq: int, bound: int):
    ok = answers.SCENARIO_CHECK
    p, q = _coefficients(rng, dp), _coefficients(rng, dq)
    lines = _surface_lines(p, q) + [
        "poly px = x;", "poly py = y;",
        f"poly pprime_plus_yz = {derivative_text(p, 'x')} + y*z;",
        f"field dy = -(x*y) d/dx + ({derivative_text(p, 'x')} + y*z) d/dz;",
        f"field dx = -(x*y) d/dy + ({derivative_text(q, 'y')} + x*z) d/dz;",
    ]
    checks = []
    for f in ("dz", "dy", "dx"):
        checks.append((f"tangent({f})", ok))
    for f in ("dz", "dy", "dx"):
        checks.append((f"divergence_zero({f}, w)", ok))
    for a, b in (("dz", "dy"), ("dz", "dx"), ("dy", "dx")):
        checks.append((f"identity1({a}, {b}, w)", ok))
    for g, f in (("pz", "dz"), ("py", "dy"), ("px", "dx")):
        checks.append((f"potential({g}, {f}, w)", ok))
    checks.append(("bracket_potential(dz, dy, w, pprime_plus_yz)", ok))
    for f, g in (("dz", "pz"), ("dy", "py"), ("dx", "px")):
        checks.append((f"kernel_spans({f}, {bound}, {g}, {answers.kernel_dimension(bound)})", ok))
    return lines, checks


def corrupt_doc(rng: random.Random):
    p, q = _coefficients(rng, 1), _coefficients(rng, rng.randint(1, 2))
    k = rng.randint(2, 3)
    lines = _surface_lines(p, q) + [f"poly bad = z**{k};"]
    checks = [
        ("potential(pz, dz, w)", answers.SCENARIO_CHECK),
        ("potential(bad, dz, w)", answers.CORRUPT_POTENTIAL),
    ]
    return lines, checks


def _frac(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))


def _matrix(m) -> str:
    return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in m) + "]"


def group_doc(rng: random.Random):
    t, s, a, c = _frac(rng), _frac(rng), _frac(rng), _frac(rng)
    torus_el = [[t, 0], [0, 1 / t]]
    flip_el = [[0, -s], [1 / s, 0]]
    # [[1, a], [0, 1]] * [[1, 0], [c, 1]] has determinant 1
    sl2_el = [[1 + a * c, a], [c, 1]]
    lines = [
        "group N {", "  ambient 2;", "  basis [[1, 0], [0, -1]];",
        "  element A0 = [[0, -1], [1, 0]];",
        f"  element T = {_matrix(torus_el)};",
        f"  element S = {_matrix(flip_el)};", "}",
        "group G {", "  ambient 2;",
        "  basis [[1, 0], [0, -1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]];",
        "  element A0 = [[0, -1], [1, 0]];",
        f"  element H = {_matrix(sl2_el)};", "}",
    ]
    ok = answers.SCENARIO_CHECK
    checks = [
        (f"submodular(N, A0, {answers.SUBMODULAR_REFLECTION})", ok),
        (f"submodular(N, T, {answers.SUBMODULAR_TORUS})", ok),
        (f"submodular(N, S, {answers.SUBMODULAR_REFLECTION})", ok),
        (f"submodular(G, A0, {answers.SUBMODULAR_SL2})", ok),
        (f"submodular(G, H, {answers.SUBMODULAR_SL2})", ok),
    ]
    return lines, checks


# document sets per seed; each cycle of a run takes the next one, so the
# seeded contents (coefficients, points, CLI seeds) average out within a run
DOC_VARIANTS = 16


def doc_pool(seed: int, variant: int) -> list[DocSpec]:
    """One document or address of every class (23, an odd count so the
    median falls inside a class), with contents drawn from (seed, variant)."""
    rng = _rng(seed, "docs", variant)
    specs: list[DocSpec] = []

    def add(name, built):
        lines, checks = built
        specs.append(_doc(len(specs), f"v{variant}_{name}", lines, checks, rng.randrange(1000)))

    for n in (2, 3, 4, 5):
        add(f"torus{n}", torus_doc(n))
    add("sl2", sl2_doc(rng))
    for m in (1, 2, 3, 4, 5):
        add(f"xm1_{m}", xm1_doc(m))
    for i, (dp, dq, bound) in enumerate(((1, 1, 2), (2, 1, 1), (1, 2, 2), (3, 2, 1))):
        add(f"surface_{i}", surface_doc(rng, dp, dq, bound))
    for i in range(2):
        add(f"groups_{i}", group_doc(rng))
    add("corrupt_potential", corrupt_doc(rng))

    torus_pair = rng.choice(((1, 2), (2, 1)))
    c, other = rng.sample((-3, -2, -1, 1, 2, 3), 2)
    addresses = [
        "product:sl2|torus:1",
        f"product:xm1:{rng.randint(1, 3)}|torus:1",
        f"product:torus:{torus_pair[0]}|torus:{torus_pair[1]}",
        "product:torus:1|torus:1",
        # p = c*x, q = c*y has the swap action and more checks than p != q
        f"product:{surface_address([c], [other])}|torus:1",
        f"product:{surface_address([c], [c])}|torus:1",
    ]
    for address in addresses:
        specs.append(DocSpec(len(specs), address, None, rng.randrange(1000), None,
                             answers.exit_code([answers.SCENARIO_CHECK])))
    return specs


def docs_cycle(seed: int, cycle: int, pool: list[DocSpec]) -> list[DocSpec]:
    return _permuted(_rng(seed, "docs", "cycle", cycle), pool)
