"""Executable check directives shared by scenarios, documents, and the CLI."""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .algebra import LaurentPoly, scalar_text
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
    is_tangent,
    lie_bracket,
    lnd_flow,
)
from .errors import SemanticError, VolformError
from .groups import GroupPresentation
from .model import CheckDirective, Model
from .variety import SAMPLE_RANGE, sample_point

PASS = "PASS"
FAIL = "FAIL"
ERROR = "ERROR"
# UNKNOWN is shared with the semicompat verdict vocabulary


# the least value of each numeric run flag, as in the report schema; the CLI
# holds its flags to the same table
FLAG_MINIMUMS = (("points", 1), ("degree_bound", 0), ("lnd_bound", 0))


@dataclass(frozen=True)
class RunFlags:
    seed: int = 0
    degree_bound: int = 4
    lnd_bound: int = 32
    points: int = 20

    def __post_init__(self) -> None:
        for name, minimum in FLAG_MINIMUMS:
            if getattr(self, name) < minimum:
                raise SemanticError(
                    f"{name} must be at least {minimum}, got {getattr(self, name)}")


@dataclass(frozen=True)
class CheckRecord:
    name: str
    status: str
    detail: str
    wall_ms: float


CheckFn = Callable[..., tuple[str, str]]


@dataclass(frozen=True)
class Check:
    """A check body and its declared argument kinds, e.g. ("field", "field",
    "degree_bound?", "verdict?"); a trailing "?" marks an optional argument.
    The body is called as ``run(raw arguments, flags, *resolved values)``."""

    run: CheckFn
    kinds: tuple[str, ...]

    @property
    def arity(self) -> tuple[int, int]:
        """(fewest, most) arguments; see :func:`arity_error`."""
        return sum(not k.endswith("?") for k in self.kinds), len(self.kinds)


REGISTRY: dict[str, Check] = {}


def register(kind: str, signature: str):
    def wrap(fn: CheckFn) -> CheckFn:
        REGISTRY[kind] = Check(fn, tuple(signature.split()))
        return fn
    return wrap


def arity_error(kind: str, count: int) -> str | None:
    """Why ``kind`` is no check kind or cannot take ``count`` arguments, or
    None.  The document parser and :func:`run_check` both hold checks to it."""
    check = REGISTRY.get(kind)
    if check is None:
        return f"unknown check kind {kind!r}"
    low, high = check.arity
    if low <= count <= high:
        return None
    expected = str(low) if low == high else f"{low} to {high}"
    return f"check {kind} takes {expected} argument(s), got {count}"


def run_check(model: Model, directive: CheckDirective, flags: RunFlags) -> CheckRecord:
    started = time.perf_counter()
    try:
        problem = arity_error(directive.kind, len(directive.args))
        if problem:
            raise SemanticError(problem)
        check = REGISTRY[directive.kind]
        values = [_resolve(model, kind.rstrip("?"), arg)
                  for kind, arg in zip(check.kinds, directive.args)]
        # an omitted bound reads its flag; any other omitted argument is None
        omitted = {"degree_bound?": flags.degree_bound, "bound?": flags.lnd_bound}
        values += [omitted.get(kind) for kind in check.kinds[len(directive.args):]]
        status, detail = check.run(directive.args, flags, *values)
    except VolformError as exc:
        status, detail = ERROR, f"{type(exc).__name__}: {exc}"
    wall_ms = (time.perf_counter() - started) * 1000.0
    return CheckRecord(directive.label(), status, detail, wall_ms)


def execute(model: Model, flags: RunFlags | None = None) -> list[CheckRecord]:
    flags = flags or RunFlags()
    return [run_check(model, d, flags) for d in model.checks]


# ---------------------------------------------------------------- resolver

# Kinds are checked when the check runs, not at parse time, because a check
# may name an object that the document defines after it.
_NAMED = {
    "field": (VectorField, "vector field"),
    "form": (DiffForm, "differential form"),
    "volume": (VolumeForm, "volume form"),
    "poly": (LaurentPoly, "polynomial"),
    "group": (GroupPresentation, "group"),
}
_COUNTS = ("degree_bound", "bound", "dimension")


def _resolve(model: Model, kind: str, value):
    """One raw document argument as the object its declared kind names."""
    if kind in _NAMED:
        cls, what = _NAMED[kind]
        if not isinstance(value, str):
            raise SemanticError(f"expected a {what} name, got {value!r}")
        obj = model.lookup(value)
        if obj is None:
            raise SemanticError(f"unknown identifier {value!r}")
        if not isinstance(obj, cls):
            raise SemanticError(f"{value!r} is not a {what}")
        return obj
    if kind == "object":  # what is_invariant tests
        obj = model.lookup(value)
        if obj is None:
            raise SemanticError(f"unknown identifier {value!r}")
        if not isinstance(obj, (LaurentPoly, VectorField, DiffForm)):
            raise SemanticError(
                f"{value!r} is not a polynomial, coordinate, field, form or volume")
        return obj
    if kind == "action":
        act = model.actions.get(value)
        if act is None:
            raise SemanticError(f"unknown action {value!r}")
        return act
    if kind in _COUNTS:  # at least 0, like the CLI's bound flags
        what = kind.replace("_", " ")
        if isinstance(value, bool) or not isinstance(value, int):
            raise SemanticError(f"expected an integer {what}, got {value!r}")
        if value < 0:
            raise SemanticError(f"{what} must be at least 0, got {value}")
        return value
    if kind == "determinant":
        return _number(value, kind)
    if kind == "verdict":
        if value not in (FULL_RING, IDEAL_WITNESS):
            raise SemanticError(f"expected verdict {FULL_RING} or {IDEAL_WITNESS}, got {value!r}")
        return value
    if kind == "triples":
        return [(_resolve(model, "field", a), _resolve(model, "field", b),
                 _resolve(model, "poly", witness))
                for a, b, witness in _tuples(value, 3, "(field, field, witness) triples")]
    if kind == "point":
        values = {}
        for name, v in _tuples(value, 2, "(coordinate, value) pairs"):
            if name in values:
                raise SemanticError(f"coordinate {name!r} already has a value")
            values[name] = _number(v, "coordinate value")
        return values
    if kind == "name":
        return value
    raise ValueError(f"undeclared argument kind {kind!r}")


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


def _sign(value, expected) -> int | None:
    """The c in (1, -1) with value = c * expected, or None: forms compare by
    forms_equal, polynomials by ==."""
    same = forms_equal if isinstance(value, DiffForm) else LaurentPoly.__eq__
    return next((c for c in (1, -1) if same(value, c * expected)), None)


# ------------------------------------------------------------------ checks


@register("tangent", "field")
def _check_tangent(args: tuple, flags, field) -> tuple[str, str]:
    if is_tangent(field):
        return PASS, "field is tangent to every defining relation"
    return FAIL, f"relation residuals: {[str(r) for r in field.residuals]}"


@register("divergence_zero", "field volume")
def _check_divergence_zero(args: tuple, flags, field, volume) -> tuple[str, str]:
    div = divergence(field, volume)
    if div.is_zero:
        return PASS, "divergence is 0"
    return FAIL, f"divergence is {div}"


@register("identity1", "field field volume")
def _check_identity1(args: tuple, flags, a, b, volume) -> tuple[str, str]:
    residual = bracket_identity_residual(a, b, volume)
    if residual.is_zero:
        return PASS, "contraction of the bracket equals d of the double contraction"
    return FAIL, f"residual form: {render_form(residual)}"


@register("potential", "poly field volume")
def _check_potential(args: tuple, flags, poly, field, volume) -> tuple[str, str]:
    df, theta = potential_sides(poly, field, volume)
    if (c := _sign(theta, df)) is not None:
        return PASS, f"matched constant c = {c:+d}"
    return FAIL, f"no sign matches; residual for c=+1: {render_form(df - theta)}"


@register("bracket_potential", "field field volume poly")
def _check_bracket_potential(args: tuple, flags, a, b, volume, expected) -> tuple[str, str]:
    # d(value) is the bracket contraction by Cartan's formula (see identity1)
    value = bracket_potential(a, b, volume)
    if (c := _sign(value, a.chart.normal_form(expected))) is not None:
        return PASS, f"potential equals {c:+d} * ({expected})"
    return FAIL, f"potential is {value}, expected +/- ({expected})"


@register("kernel_spans", "field degree_bound poly dimension")
def _check_kernel_spans(args: tuple, flags, field, bound, generator,
                        expected_dim) -> tuple[str, str]:
    basis = kernel_basis(field, bound)
    if len(basis) != expected_dim:
        return FAIL, f"kernel dimension {len(basis)}, expected {expected_dim}"
    # normal forms are closed under products, so nf(g**k) = nf(g)**k; in the
    # Laurent ring of normal forms a nonconstant element is transcendental
    # over Q, so its powers are independent, and a constant's are not
    reduced = field.chart.normal_form(generator)
    if expected_dim >= 2 and not reduced.support():
        return FAIL, f"({generator}) has constant normal form {reduced}; its powers are dependent"
    k = basis.power_outside(reduced, expected_dim)
    if k is not None:
        return FAIL, f"({generator})**{k} is outside the computed kernel"
    return PASS, f"kernel is exactly the span of powers of {generator} (dim {expected_dim})"


@register("semicompat", "field field degree_bound? verdict?")
def _check_semicompat(args: tuple, flags, a, b, bound, expected) -> tuple[str, str]:
    verdict = semicompat_bounded(a, b, bound)
    detail = f"status {verdict.status} at bound {bound}"
    if verdict.witness is not None:
        detail += f", witness {verdict.witness}"
    if verdict.status == UNKNOWN:
        return UNKNOWN, detail + " (one-sided test; not a refutation)"
    if expected is None or verdict.status == expected:
        return PASS, detail
    return FAIL, detail + f", expected {expected}"


@register("wedge_span", "triples")
def _check_wedge_span(args: tuple, flags, pairs) -> tuple[str, str]:
    chart = pairs[0][0].chart
    distinct = len(SAMPLE_RANGE) ** chart.dimension  # the points sample_point can draw
    if flags.points > distinct:
        return ERROR, f"could only sample {distinct} distinct points"
    points = {}  # distinct sample points by their values, in draw order
    attempt = 0
    while len(points) < flags.points and attempt < 50 * flags.points:
        candidate = sample_point(chart, flags.seed + attempt)
        points.setdefault(candidate.values, candidate)
        attempt += 1
    if len(points) < flags.points:
        return ERROR, f"could only sample {len(points)} distinct points"
    for point in points.values():
        if not spans_wedge_square(pairs, point):
            at = ", ".join(f"{name} = {scalar_text(v)}" for name, v in point.as_dict().items())
            return FAIL, f"wedges do not span at {at}"
    return PASS, f"wedges span the wedge square at {len(points)} sampled points"


@register("lnd", "field bound?")
def _check_lnd(args: tuple, flags, field, bound) -> tuple[str, str]:
    moved = [name for name, iterates in lnd_flow(field, bound).items() if iterates]
    return PASS, f"locally nilpotent within bound {bound}; flow moves {moved or 'nothing'}"


@register("exact_volume", "form volume")
def _check_exact_volume(args: tuple, flags, form, volume) -> tuple[str, str]:
    residual = exterior_derivative(form) - volume
    if residual.is_zero:
        return PASS, "d(form) equals the volume form exactly"
    return FAIL, f"residual form: {render_form(residual)}"


@register("invariant", "object action")
def _check_invariant(args: tuple, flags, obj, act) -> tuple[str, str]:
    if is_invariant(obj, act):
        return PASS, f"{args[0]} is invariant under {act.name}"
    return FAIL, f"{args[0]} is not invariant under {act.name}"


@register("commute", "field field")
def _check_commute(args: tuple, flags, a, b) -> tuple[str, str]:
    bracket = lie_bracket(a, b)
    if bracket.is_zero:
        return PASS, "bracket vanishes"
    return FAIL, f"bracket is {[str(c) for _, c in bracket.coefficients if not c.is_zero]}"


@register("theta_equals", "field volume form")
def _check_theta_equals(args: tuple, flags, field, volume, expected) -> tuple[str, str]:
    value = contract_volume(field, volume)
    if (c := _sign(value, expected)) is not None:
        return PASS, f"contraction matches {c:+d} * {args[2]}"
    return FAIL, f"contraction is {render_form(value)}"


@register("flow_jacobian", "field poly point bound?")
def _check_flow_jacobian(args: tuple, flags, field, poly, values, bound) -> tuple[str, str]:
    point = field.chart.point(values)
    if verify_flow_jacobian(field, poly, point, bound):
        return PASS, "flow Jacobian equals identity plus the rank-one shear"
    return FAIL, "flow Jacobian does not match identity plus the rank-one shear"


@register("submodular", "group name determinant")
def _check_submodular(args: tuple, flags, group, element, expected) -> tuple[str, str]:
    value = group.submodular_values[group.element(element)]
    if value == expected:
        return PASS, f"determinant of the adjoint action is {scalar_text(value)}"
    return FAIL, f"determinant is {scalar_text(value)}, expected {expected}"


def render_form(form: DiffForm) -> str:
    """``(c) dx^dy + ...``, with a 0-form as ``(c)`` and the zero form as ``0``."""
    return " + ".join(
        f"({coeff}) " + "^".join(f"d{c}" for c in key) if key else f"({coeff})"
        for key, coeff in form.coefficients
    ) or "0"
