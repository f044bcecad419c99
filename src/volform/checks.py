"""Executable check directives shared by scenarios, documents, and the CLI."""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .algebra import LaurentPoly, _grlex_key
from .avdp import (
    FULL_RING,
    IDEAL_WITNESS,
    UNKNOWN,
    bracket_identity_residual,
    bracket_potential,
    kernel_basis,
    potential_sides,
    semicompat_bounded,
    spans_wedge_square,
    verify_flow_jacobian,
)
from .calculus import (
    DiffForm,
    VectorField,
    VolumeForm,
    contract_volume,
    divergence,
    exterior_derivative,
    forms_equal,
    is_invariant,
    lie_bracket,
    lnd_flow,
    scalar_form,
)
from .errors import SemanticError, VolformError
from .groups import GroupPresentation, submodular
from .linalg import SpanBuilder
from .model import CheckDirective, Model
from .variety import sample_point

PASS = "PASS"
FAIL = "FAIL"
ERROR = "ERROR"
# UNKNOWN is shared with the semicompat verdict vocabulary

STATUSES = (PASS, FAIL, ERROR, UNKNOWN)


@dataclass(frozen=True)
class RunFlags:
    seed: int = 0
    degree_bound: int = 4
    lnd_bound: int = 32
    points: int = 20


@dataclass(frozen=True)
class CheckRecord:
    name: str
    status: str
    detail: str
    wall_ms: float


CheckFn = Callable[[Model, tuple, RunFlags], tuple[str, str]]
REGISTRY: dict[str, CheckFn] = {}
# kind -> (fewest, most) arguments; documents are held to it at parse time
ARITY: dict[str, tuple[int, int]] = {}


def register(kind: str, min_args: int, max_args: int | None = None):
    def wrap(fn: CheckFn) -> CheckFn:
        REGISTRY[kind] = fn
        ARITY[kind] = (min_args, min_args if max_args is None else max_args)
        return fn
    return wrap


def run_check(model: Model, directive: CheckDirective, flags: RunFlags) -> CheckRecord:
    fn = REGISTRY.get(directive.kind)
    started = time.perf_counter()
    if fn is None:
        return CheckRecord(directive.label(), ERROR, f"unknown check kind {directive.kind!r}", 0.0)
    try:
        status, detail = fn(model, directive.args, flags)
    except VolformError as exc:
        status, detail = ERROR, f"{type(exc).__name__}: {exc}"
    wall_ms = (time.perf_counter() - started) * 1000.0
    return CheckRecord(directive.label(), status, detail, wall_ms)


def execute(model: Model, flags: RunFlags | None = None) -> list[CheckRecord]:
    flags = flags or RunFlags()
    return [run_check(model, d, flags) for d in model.checks]


# --------------------------------------------------------------- resolvers


def _want(model: Model, name, kind: type, what: str):
    if not isinstance(name, str):
        raise SemanticError(f"expected a {what} name, got {name!r}")
    obj = model.lookup(name)
    if obj is None:
        raise SemanticError(f"unknown identifier {name!r}")
    if not isinstance(obj, kind):
        raise SemanticError(f"{name!r} is not a {what}")
    return obj


def _field(model: Model, name) -> VectorField:
    return _want(model, name, VectorField, "vector field")


def _form(model: Model, name) -> DiffForm:
    return _want(model, name, DiffForm, "differential form")


def _volume(model: Model, name) -> VolumeForm:
    return _want(model, name, VolumeForm, "volume form")


def _polynomial(model: Model, name) -> LaurentPoly:
    return _want(model, name, LaurentPoly, "polynomial")


def _int(value, what: str) -> int:
    """A bound or dimension: an integer, at least 0 like the CLI's bound flags."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SemanticError(f"expected an integer {what}, got {value!r}")
    if value < 0:
        raise SemanticError(f"{what} must be at least 0, got {value}")
    return value


def _number(value, what: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise SemanticError(f"expected a number for the {what}, got {value!r}")
    return Fraction(value)


def _tuples(value, width: int, what: str) -> tuple:
    """A non-empty tuple of `width`-tuples, e.g. wedge triples or a point literal."""
    if not (isinstance(value, tuple) and value
            and all(isinstance(t, tuple) and len(t) == width for t in value)):
        raise SemanticError(f"expected a non-empty tuple of {what}, got {value!r}")
    return value


# ------------------------------------------------------------------ checks


@register("tangent", 1)
def _check_tangent(model: Model, args, flags) -> tuple[str, str]:
    field = _field(model, args[0])
    residuals = [field.apply(rel.poly) for rel in field.chart.relations]
    if all(r.is_zero for r in residuals):
        return PASS, "field is tangent to every defining relation"
    return FAIL, f"relation residuals: {[str(r) for r in residuals]}"


@register("divergence_zero", 2)
def _check_divergence_zero(model: Model, args, flags) -> tuple[str, str]:
    field = _field(model, args[0])
    volume = _volume(model, args[1])
    div = divergence(field, volume)
    if div.is_zero:
        return PASS, "divergence is 0"
    return FAIL, f"divergence is {div}"


@register("identity1", 3)
def _check_identity1(model: Model, args, flags) -> tuple[str, str]:
    a, b = _field(model, args[0]), _field(model, args[1])
    volume = _volume(model, args[2])
    residual = bracket_identity_residual(a, b, volume)
    if residual.is_zero:
        return PASS, "contraction of the bracket equals d of the double contraction"
    return FAIL, f"residual form: {_render_form(residual)}"


@register("potential", 3)
def _check_potential(model: Model, args, flags) -> tuple[str, str]:
    poly = _polynomial(model, args[0])
    field = _field(model, args[1])
    volume = _volume(model, args[2])
    df, theta = potential_sides(poly, field, volume)
    for c in (1, -1):
        if (c * df - theta).is_zero:
            return PASS, f"matched constant c = {c:+d}"
    return FAIL, f"no sign matches; residual for c=+1: {_render_form(df - theta)}"


@register("bracket_potential", 4)
def _check_bracket_potential(model: Model, args, flags) -> tuple[str, str]:
    a, b = _field(model, args[0]), _field(model, args[1])
    volume = _volume(model, args[2])
    expected = _polynomial(model, args[3])
    value = bracket_potential(a, b, volume)
    exact = exterior_derivative(scalar_form(a.chart, value)) - contract_volume(
        lie_bracket(a, b), volume
    )
    if not exact.is_zero:
        return FAIL, f"d(potential) misses the bracket contraction by {_render_form(exact)}"
    target = a.chart.normal_form(expected)
    for c in (1, -1):
        if (value - c * target).is_zero:
            return PASS, f"potential equals {c:+d} * ({expected})"
    return FAIL, f"potential is {value}, expected +/- ({expected})"


@register("kernel_spans", 4)
def _check_kernel_spans(model: Model, args, flags) -> tuple[str, str]:
    field = _field(model, args[0])
    bound = _int(args[1], "degree bound")
    generator = _polynomial(model, args[2])
    expected_dim = _int(args[3], "dimension")
    basis = kernel_basis(field, bound)
    if len(basis) != expected_dim:
        return FAIL, f"kernel dimension {len(basis)}, expected {expected_dim}"
    chart = field.chart
    span = SpanBuilder(key_order=_grlex_key)
    for member in basis:
        span.insert(member.as_dict())
    for k in range(expected_dim):
        power = chart.normal_form(generator ** k)
        if not span.contains(power.as_dict()):
            return FAIL, f"({generator})**{k} is outside the computed kernel"
    return PASS, f"kernel is exactly the span of powers of {generator} (dim {expected_dim})"


@register("semicompat", 2, 4)
def _check_semicompat(model: Model, args, flags) -> tuple[str, str]:
    a, b = _field(model, args[0]), _field(model, args[1])
    bound = _int(args[2], "degree bound") if len(args) > 2 else flags.degree_bound
    expected = args[3] if len(args) > 3 else None
    if expected not in (None, FULL_RING, IDEAL_WITNESS):
        raise SemanticError(f"expected verdict {FULL_RING} or {IDEAL_WITNESS}, got {expected!r}")
    verdict = semicompat_bounded(a, b, bound)
    detail = f"status {verdict.status} at bound {bound}"
    if verdict.witness is not None:
        detail += f", witness {verdict.witness}"
    if verdict.status == UNKNOWN:
        return UNKNOWN, detail + " (one-sided test; not a refutation)"
    if expected is None or verdict.status == expected:
        return PASS, detail
    return FAIL, detail + f", expected {expected}"


@register("wedge_span", 1)
def _check_wedge_span(model: Model, args, flags) -> tuple[str, str]:
    pairs = [
        (_field(model, a), _field(model, b), _polynomial(model, witness))
        for a, b, witness in _tuples(args[0], 3, "(field, field, witness) triples")
    ]
    chart = pairs[0][0].chart
    points = []
    seen = set()
    attempt = 0
    while len(points) < flags.points and attempt < 50 * max(flags.points, 1):
        candidate = sample_point(chart, flags.seed + attempt)
        attempt += 1
        if candidate.values in seen:
            continue
        seen.add(candidate.values)
        points.append(candidate)
    if len(points) < flags.points:
        return ERROR, f"could only sample {len(points)} distinct points"
    for point in points:
        if not spans_wedge_square(pairs, point):
            return FAIL, f"wedges do not span at {dict(point.values)}"
    return PASS, f"wedges span the wedge square at {len(points)} sampled points"


@register("lnd", 1, 2)
def _check_lnd(model: Model, args, flags) -> tuple[str, str]:
    field = _field(model, args[0])
    bound = _int(args[1], "bound") if len(args) > 1 else flags.lnd_bound
    images = lnd_flow(field, "t", bound)
    moved = [n for n, img in images.items()
             if img != field.chart.generator(n).extend_variables(img.variables)]
    return PASS, f"locally nilpotent within bound {bound}; flow moves {moved or 'nothing'}"


@register("exact_volume", 2)
def _check_exact_volume(model: Model, args, flags) -> tuple[str, str]:
    form = _form(model, args[0])
    volume = _volume(model, args[1])
    residual = exterior_derivative(form) - volume
    if residual.is_zero:
        return PASS, "d(form) equals the volume form exactly"
    return FAIL, f"residual form: {_render_form(residual)}"


@register("invariant", 2)
def _check_invariant(model: Model, args, flags) -> tuple[str, str]:
    name = args[0]
    obj = model.lookup(name) if isinstance(name, str) else None
    if obj is None:
        raise SemanticError(f"unknown identifier {name!r}")
    act = model.actions.get(args[1])
    if act is None:
        raise SemanticError(f"unknown action {args[1]!r}")
    if is_invariant(obj, act, model.chart):
        return PASS, f"{name} is invariant under {act.name}"
    return FAIL, f"{name} is not invariant under {act.name}"


@register("commute", 2)
def _check_commute(model: Model, args, flags) -> tuple[str, str]:
    a, b = _field(model, args[0]), _field(model, args[1])
    bracket = lie_bracket(a, b)
    if bracket.is_zero:
        return PASS, "bracket vanishes"
    return FAIL, f"bracket is {[str(c) for _, c in bracket.coefficients if not c.is_zero]}"


@register("theta_equals", 3)
def _check_theta_equals(model: Model, args, flags) -> tuple[str, str]:
    field = _field(model, args[0])
    volume = _volume(model, args[1])
    expected = _form(model, args[2])
    value = contract_volume(field, volume)
    for c in (1, -1):
        if forms_equal(value, c * expected):
            return PASS, f"contraction matches {c:+d} * {args[2]}"
    return FAIL, f"contraction is {_render_form(value)}"


@register("flow_jacobian", 3, 4)
def _check_flow_jacobian(model: Model, args, flags) -> tuple[str, str]:
    field = _field(model, args[0])
    poly = _polynomial(model, args[1])
    values = {name: _number(value, "coordinate value")
              for name, value in _tuples(args[2], 2, "(coordinate, value) pairs")}
    bound = _int(args[3], "bound") if len(args) > 3 else flags.lnd_bound
    point = field.chart.point(values)
    if verify_flow_jacobian(field, poly, point, bound):
        return PASS, "flow Jacobian equals identity plus the rank-one shear"
    return FAIL, "flow Jacobian does not match identity plus the rank-one shear"


@register("submodular", 3)
def _check_submodular(model: Model, args, flags) -> tuple[str, str]:
    group = _want(model, args[0], GroupPresentation, "group")
    element = group.element(args[1])
    expected = _number(args[2], "determinant")
    value = submodular(element, group.lie_basis)
    if value == expected:
        return PASS, f"determinant of the adjoint action is {value}"
    return FAIL, f"determinant is {value}, expected {expected}"


def _render_form(form: DiffForm) -> str:
    if form.is_zero:
        return "0"
    return " + ".join(
        f"({coeff}) d{'^d'.join(key) if key else '(scalar)'}"
        for key, coeff in form.coefficients
    )
