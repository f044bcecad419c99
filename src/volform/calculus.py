"""Exterior calculus on a chart: fields, forms, d, wedge, contraction, flows.

Forms live in the free coordinates only; differentials of solvable
coordinates are eliminated through the defining relations, so coefficient
maps over sorted free-coordinate index sets are canonical and form equality
is structural.  :func:`diff_form` is the one place where index tuples are
canonicalised: every form operation emits raw (index tuple, coefficient)
pairs and lets it sort, sign, merge and normalise them.  The contraction
convention inserts the field in the first slot; the exterior derivative is
d(f dx_I) = sum_j df/dx_j dx_j ^ dx_I.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Union

from .algebra import LaurentPoly, Scalar
from .errors import (
    ChartError,
    DimensionError,
    NilpotencyError,
    NotTangentError,
    VariableMismatchError,
    VolumeFormError,
)
from .variety import Chart, SubstitutionAction

FormKey = tuple[str, ...]


@dataclass(frozen=True)
class VectorField:
    """Derivation in ambient presentation: one coefficient per coordinate."""

    chart: Chart
    coefficients: tuple[tuple[str, LaurentPoly], ...]

    def coefficient(self, name: str) -> LaurentPoly:
        for key, value in self.coefficients:
            if key == name:
                return value
        raise ChartError(f"no coefficient for coordinate {name!r}")

    def as_dict(self) -> dict[str, LaurentPoly]:
        return dict(self.coefficients)

    def free_components(self) -> dict[str, LaurentPoly]:
        d = self.as_dict()
        return {name: d[name] for name in self.chart.free_coordinates}

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for _, c in self.coefficients)

    @cached_property
    def residuals(self) -> tuple[LaurentPoly, ...]:
        """xi(r) in normal form for each defining relation r, computed once."""
        return tuple(self.apply(rel.poly) for rel in self.chart.relations)

    def apply(self, f: LaurentPoly) -> LaurentPoly:
        """xi(f) = sum coeff_i * df/dx_i, in normal form."""
        self.chart.validate_poly(f)
        total = LaurentPoly.zero(self.chart.coordinates)
        for name, coeff in self.coefficients:
            if coeff.is_zero:
                continue
            total = total + coeff * f.partial_derivative(name)
        return self.chart.normal_form(total)

    def __add__(self, other: "VectorField") -> "VectorField":
        _same_chart(self, other)
        o = other.as_dict()
        return vector_field(
            self.chart, {name: coeff + o[name] for name, coeff in self.coefficients}
        )

    def __neg__(self) -> "VectorField":
        return vector_field(self.chart, {n: -c for n, c in self.coefficients})

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + (-other)

    def __rmul__(self, factor: Union[LaurentPoly, Scalar]) -> "VectorField":
        f = self.chart.poly(factor)
        return vector_field(self.chart, {n: f * c for n, c in self.coefficients})

    __mul__ = __rmul__


def vector_field(on: Chart, coefficients: Mapping[str, LaurentPoly | Scalar]) -> VectorField:
    """Build a field from (possibly partial) coordinate coefficients."""
    extra = set(coefficients) - set(on.coordinates)
    if extra:
        raise ChartError(f"coefficients for unknown coordinates: {sorted(extra)}")
    entries = []
    for name in on.coordinates:
        value = coefficients.get(name, 0)
        entries.append((name, on.normal_form(on.poly(value))))
    return VectorField(on, tuple(entries))


def is_tangent(field: VectorField) -> bool:
    """True iff the field maps each defining polynomial into the ideal."""
    return all(r.is_zero for r in field.residuals)


def _require_tangent(field: VectorField) -> None:
    if not is_tangent(field):
        raise NotTangentError("vector field is not tangent to the chart")


def _same_chart(a, b) -> None:
    if a.chart != b.chart:
        raise VariableMismatchError("objects live on different charts")


# ----------------------------------------------------------------- forms


@dataclass(frozen=True)
class DiffForm:
    """Degree-k form as a map from sorted free-coordinate subsets to scalars."""

    chart: Chart
    degree: int
    coefficients: tuple[tuple[FormKey, LaurentPoly], ...]

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def coefficient(self, key: Iterable[str]) -> LaurentPoly:
        target = tuple(key)
        for k, v in self.coefficients:
            if k == target:
                return v
        return LaurentPoly.zero(self.chart.coordinates)

    def __add__(self, other: "DiffForm") -> "DiffForm":
        _same_chart(self, other)
        if self.degree != other.degree and not (self.is_zero or other.is_zero):
            raise DimensionError(
                f"cannot add forms of degree {self.degree} and {other.degree}"
            )
        degree = other.degree if self.is_zero else self.degree
        return diff_form(self.chart, degree, self.coefficients + other.coefficients)

    def __neg__(self) -> "DiffForm":
        return DiffForm(
            self.chart, self.degree, tuple((k, -v) for k, v in self.coefficients)
        )

    def __sub__(self, other: "DiffForm") -> "DiffForm":
        return self + (-other)

    def __rmul__(self, factor: Union[LaurentPoly, Scalar]) -> "DiffForm":
        f = self.chart.poly(factor)
        return diff_form(
            self.chart, self.degree, ((k, f * v) for k, v in self.coefficients)
        )

    __mul__ = __rmul__


def forms_equal(a: DiffForm, b: DiffForm) -> bool:
    """Structural equality that ignores the zero form's recorded degree and
    the DiffForm/VolumeForm class split."""
    if a.is_zero and b.is_zero:
        return True
    return a.degree == b.degree and a.coefficients == b.coefficients


def _canonical_key(order: Mapping[str, int], key: FormKey) -> tuple[FormKey, int] | None:
    """The key sorted into chart order with its permutation sign, or None
    when an index repeats (the wedge of a differential with itself)."""
    for name in key:
        if name not in order:
            raise ChartError(f"{name!r} is not a free coordinate of the chart")
    if len(set(key)) != len(key):
        return None
    inversions = sum(
        1 for i, a in enumerate(key) for b in key[i + 1:] if order[a] > order[b]
    )
    return tuple(sorted(key, key=order.__getitem__)), -1 if inversions % 2 else 1


RawPairs = Iterable[tuple[Iterable[str], Union[LaurentPoly, Scalar]]]


def diff_form(
    on: Chart,
    degree: int,
    coefficients: Mapping[Iterable[str], LaurentPoly | Scalar] | RawPairs,
) -> DiffForm:
    """Canonical form from raw (index tuple, coefficient) pairs, given as a
    mapping or an iterable: each tuple is sorted and signed, tuples with a
    repeated index are dropped, equal tuples are summed, and each sum is
    taken to normal form once.  ``diff_form(on, k, ())`` is the zero k-form."""
    if degree < 0:
        return DiffForm(on, 0, ())
    if isinstance(coefficients, Mapping):
        coefficients = coefficients.items()
    order = {name: i for i, name in enumerate(on.free_coordinates)}
    sums: dict[FormKey, LaurentPoly] = {}
    for raw_key, value in coefficients:
        key = tuple(raw_key)
        if len(key) != degree:
            raise DimensionError(f"key {key} does not match degree {degree}")
        canon = _canonical_key(order, key)
        if canon is None:
            continue
        skey, sign = canon
        poly = on.poly(value) if sign > 0 else -on.poly(value)
        sums[skey] = sums[skey] + poly if skey in sums else poly
    entries = [(k, on.normal_form(v)) for k, v in sums.items()]
    entries = [(k, v) for k, v in entries if not v.is_zero]
    entries.sort(key=lambda kv: kv[0])
    return DiffForm(on, degree, tuple(entries))


def scalar_form(on: Chart, value: LaurentPoly | Scalar) -> DiffForm:
    return diff_form(on, 0, {(): value})


@dataclass(frozen=True)
class VolumeForm(DiffForm):
    """Nonvanishing top form; the single coefficient is a unit monomial."""

    def unit_coefficient(self) -> LaurentPoly:
        return self.coefficients[0][1]


def volume_form(on: Chart, coefficient: LaurentPoly | Scalar) -> VolumeForm:
    top = len(on.free_coordinates)
    coeff = on.normal_form(on.poly(coefficient))
    if coeff.is_zero:
        raise VolumeFormError("volume form coefficient is zero")
    if not coeff.is_monomial:
        raise VolumeFormError(
            f"volume form coefficient {coeff} is not a single Laurent monomial; "
            f"this shape is not supported"
        )
    if not coeff.support() <= on.invertible:
        raise VolumeFormError(
            f"volume form coefficient {coeff} involves non-invertible coordinates "
            f"and would vanish somewhere"
        )
    return VolumeForm(on, top, ((tuple(on.free_coordinates), coeff),))


# ------------------------------------------------------------- operations


def exterior_derivative(form: DiffForm) -> DiffForm:
    on = form.chart
    return diff_form(on, form.degree + 1, (
        ((name,) + key, coeff.partial_derivative(name))
        for key, coeff in form.coefficients
        for name in on.free_coordinates
    ))


def wedge(a: DiffForm, b: DiffForm) -> DiffForm:
    _same_chart(a, b)
    return diff_form(a.chart, a.degree + b.degree, (
        (ka + kb, va * vb) for ka, va in a.coefficients for kb, vb in b.coefficients
    ))


def interior_product(field: VectorField, form: DiffForm) -> DiffForm:
    """Contraction inserting the field in the first slot."""
    _same_chart(field, form)
    comps = field.free_components()
    return diff_form(form.chart, form.degree - 1, (
        (key[:t] + key[t + 1:], (coeff if t % 2 == 0 else -coeff) * comps[name])
        for key, coeff in form.coefficients
        for t, name in enumerate(key)
    ))


def lie_bracket(a: VectorField, b: VectorField) -> VectorField:
    _same_chart(a, b)
    _require_tangent(a)
    _require_tangent(b)
    coeffs = {
        name: a.apply(b.coefficient(name)) - b.apply(a.coefficient(name))
        for name in a.chart.coordinates
    }
    return vector_field(a.chart, coeffs)


def divergence(field: VectorField, volume: VolumeForm) -> LaurentPoly:
    """The unique scalar g with L_xi(omega) = g * omega.  A top form is closed,
    so for omega = u dx_1^...^dx_n over the free coordinates Cartan's formula
    leaves L_xi(omega) = d(i_xi omega): g = u^-1 * sum_i d(u*xi_i)/dx_i."""
    _same_chart(field, volume)
    _require_tangent(field)
    u = volume.unit_coefficient()
    total = LaurentPoly.zero(field.chart.coordinates)
    for name, coeff in field.free_components().items():
        total = total + (u * coeff).partial_derivative(name)
    return field.chart.normal_form(u.unit_inverse() * total)


def contract_volume(field: VectorField, volume: VolumeForm) -> DiffForm:
    """The closed-(n-1)-form side of a divergence-free field: i_xi omega."""
    _require_tangent(field)
    return interior_product(field, volume)


def lnd_flow(field: VectorField, bound: int) -> dict[str, list[LaurentPoly]]:
    """Flow exp(t*xi) of a locally nilpotent field, as iterates.

    Returns, for each coordinate c, the nonzero iterates xi^k(c), k >= 1, in
    normal form; the time-t flow is c + sum_k t^k/k! * xi^k(c).  Fails with
    NilpotencyError when some xi^k(c) is still nonzero for k = bound + 1.
    xi(c) is read, not applied: it is the field's stored normal-form coefficient.

    That the flow respects the chart needs no separate check:
    exp(t*xi): A -> A[[t]] is a ring homomorphism for every derivation, so
    the flow of a tangent field maps each relation into the ideal.  The
    inverses of invertible coordinates are not iterated: a locally nilpotent
    derivation of the chart's ring (a domain) kills every unit, so a field
    that moves an invertible coordinate passes here although it is nilpotent
    on the coordinates only.
    """
    _require_tangent(field)
    flow: dict[str, list[LaurentPoly]] = {}
    for name, current in field.coefficients:
        iterates = flow[name] = []
        while not current.is_zero:
            if len(iterates) >= bound:
                raise NilpotencyError(
                    f"xi^{bound + 1}({name}) is still nonzero; field not verified "
                    f"locally nilpotent at bound {bound}"
                )
            iterates.append(current)
            current = field.apply(current)
    return flow


# ----------------------------------------------- transforms and invariance


def pullback_form(form: DiffForm, act: SubstitutionAction) -> DiffForm:
    """Pullback along a substitution, computed in the free coordinates."""
    _same_chart(form, act)
    on = form.chart
    images = act.as_dict()
    differentials = {
        name: exterior_derivative(scalar_form(on, images[name]))
        for name in on.free_coordinates
    }
    total = diff_form(on, form.degree, ())
    for key, coeff in form.coefficients:
        term = scalar_form(on, coeff.substitute(images))
        for name in key:
            term = wedge(term, differentials[name])
        total = total + term
    return total


def is_invariant(obj: Union[LaurentPoly, VectorField, DiffForm], act: SubstitutionAction) -> bool:
    """Whether obj, which lives on the action's chart, is fixed by the action modulo the ideal.

    A field is a derivation, so it is fixed by ``s`` exactly when
    ``xi(s*x_c) = s*(xi(x_c))`` for every coordinate ``c``; forms are
    compared with their pullback.
    """
    if isinstance(obj, VectorField):
        _same_chart(obj, act)
        images = act.as_dict()
        return all(
            obj.apply(images[c]) == obj.chart.normal_form(obj.coefficient(c).substitute(images))
            for c in obj.chart.coordinates
        )
    if isinstance(obj, DiffForm):
        return forms_equal(pullback_form(obj, act), obj)
    if isinstance(obj, LaurentPoly):
        on = act.chart  # the left normal form validates obj before it is substituted
        return on.normal_form(obj) == on.normal_form(obj.substitute(act.as_dict()))
    raise TypeError(f"cannot test invariance of {type(obj).__name__}")
