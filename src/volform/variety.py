"""Affine variety presentations as triangular charts.

A chart lists coordinates, flags the invertible ones, and carries defining
relations that are degree 1 in a designated "solvable" coordinate with a unit
(single Laurent monomial) leading coefficient.  Solving each relation
eliminates its coordinate, so every regular function has a canonical normal
form in the free coordinates; congruence modulo the defining ideal becomes
structural equality.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

from .algebra import LaurentPoly, Scalar, exact_scalar
from .errors import (
    ActionError,
    ChartError,
    PointError,
    UnknownVariableError,
    VariableMismatchError,
)

SAMPLE_RANGE = [n for n in range(-9, 10) if n != 0]


@dataclass(frozen=True)
class Relation:
    poly: LaurentPoly
    solves: str


@dataclass(frozen=True)
class Chart:
    coordinates: tuple[str, ...]
    invertible: frozenset[str]
    relations: tuple[Relation, ...]
    free_coordinates: tuple[str, ...]
    # fully eliminated solution per solvable coordinate, in free coordinates only
    solutions: tuple[tuple[str, LaurentPoly], ...]

    @property
    def dimension(self) -> int:
        return len(self.free_coordinates)

    @cached_property
    def _guarded(self) -> tuple[tuple[int, str], ...]:
        """(i, name) of each non-invertible coordinate: only its exponent can be illegal."""
        return tuple((i, c) for i, c in enumerate(self.coordinates) if c not in self.invertible)

    @cached_property
    def _solved(self) -> tuple[tuple[int, str, LaurentPoly], ...]:
        """(i, name, solution) of each solved coordinate, computed once."""
        return tuple((self.coordinates.index(c), c, expr) for c, expr in self.solutions)

    def validate_poly(self, p: LaurentPoly) -> LaurentPoly:
        if p.variables != self.coordinates:
            raise VariableMismatchError(
                f"polynomial over {p.variables} does not match chart coordinates "
                f"{self.coordinates}"
            )
        for exps, _ in p.terms:
            for i, name in self._guarded:
                if exps[i] < 0:
                    raise ChartError(
                        f"negative exponent on non-invertible coordinate {name!r}"
                    )
        return p

    def poly(self, source: LaurentPoly | Scalar) -> LaurentPoly:
        """Coerce a scalar or same-variable polynomial onto this chart."""
        if isinstance(source, LaurentPoly):
            return self.validate_poly(source)
        return LaurentPoly.constant(self.coordinates, source)

    def generators(self) -> tuple[LaurentPoly, ...]:
        return LaurentPoly.generators(self.coordinates)

    def generator(self, name: str) -> LaurentPoly:
        return LaurentPoly.variable(self.coordinates, name)

    def normal_form(self, p: LaurentPoly) -> LaurentPoly:
        """Canonical representative of p modulo the defining ideal."""
        self.validate_poly(p)
        bindings = {c: expr for i, c, expr in self._solved if any(e[i] for e, _ in p.terms)}
        return p.substitute(bindings) if bindings else p

    def point(self, values: Mapping[str, Scalar]) -> "Point":
        vals = {}
        for name in self.coordinates:
            if name not in values:
                raise PointError(f"missing value for coordinate {name!r}")
            vals[name] = Fraction(exact_scalar(values[name], "value of coordinate", name))
        extra = set(values) - set(self.coordinates)
        if extra:
            raise PointError(f"unknown coordinates in point: {sorted(extra)}")
        for name in self.invertible:
            if vals[name] == 0:
                raise PointError(f"invertible coordinate {name!r} is zero")
        point = Point(self, tuple((c, vals[c]) for c in self.coordinates))
        parts = point.parts()
        for rel in self.relations:
            if rel.poly._evaluate_parts(parts)[0]:
                raise PointError(
                    f"point does not satisfy relation {rel.poly} = 0"
                )
        return point


def chart(
    coordinates: Iterable[str],
    invertible: Iterable[str] = (),
    relations: Iterable[tuple[LaurentPoly, str]] = (),
) -> Chart:
    """Build and validate a triangular chart presentation."""
    coords = tuple(coordinates)
    if not coords:
        raise ChartError("a chart needs at least one coordinate")
    if len(set(coords)) != len(coords):
        raise ChartError(f"duplicate coordinate names: {coords}")
    inv = frozenset(invertible)
    unknown = inv - set(coords)
    if unknown:
        raise ChartError(f"invertible flags for unknown coordinates: {sorted(unknown)}")

    rels: list[Relation] = []
    solvable: list[str] = []
    for poly, solves in relations:
        if solves not in coords:
            raise ChartError(f"solvable coordinate {solves!r} is not a coordinate")
        if solves in solvable:
            raise ChartError(f"coordinate {solves!r} solved by two relations")
        if solves in inv:
            raise ChartError(
                f"solvable coordinate {solves!r} may not be flagged invertible"
            )
        rels.append(Relation(poly, solves))
        solvable.append(solves)

    free = tuple(c for c in coords if c not in solvable)
    probe = Chart(coords, inv, tuple(rels), free, ())
    for rel in rels:
        probe.validate_poly(rel.poly)
        if rel.poly.degree_in(rel.solves) != 1 or rel.poly.min_degree_in(rel.solves) < 0:
            raise ChartError(
                f"relation {rel.poly} must have total degree exactly 1 in {rel.solves!r}"
            )

    # Solve each relation a*s + b = 0 as s = -b/a; a must be a unit monomial.
    raw: dict[str, LaurentPoly] = {}
    for rel in rels:
        a = rel.poly.coefficient_in(rel.solves, 1)
        b = rel.poly.coefficient_in(rel.solves, 0)
        if not a.is_monomial:
            raise ChartError(
                f"leading coefficient {a} of {rel.solves!r} is not a single monomial"
            )
        if not a.support() <= inv:
            raise ChartError(
                f"leading coefficient {a} of {rel.solves!r} involves "
                f"non-invertible coordinates"
            )
        raw[rel.solves] = (-b) * a.unit_inverse()

    # Back-substitute until every solution uses free coordinates only.
    solvable_set = set(solvable)
    for _ in range(len(rels) + 1):
        changed = False
        for name in solvable:
            expr = raw[name]
            pending = expr.support() & solvable_set
            if name in pending:
                raise ChartError(f"relation for {name!r} is self-referential")
            if pending:
                raw[name] = expr.substitute({t: raw[t] for t in pending})
                changed = True
        if not changed:
            break
    for name in solvable:
        if raw[name].support() & solvable_set:
            raise ChartError("relations are not triangular: elimination does not terminate")

    solutions = tuple((name, raw[name]) for name in solvable)
    return Chart(coords, inv, tuple(rels), free, solutions)


@dataclass(frozen=True)
class Point:
    chart: Chart
    values: tuple[tuple[str, Fraction], ...]

    def as_dict(self) -> dict[str, Fraction]:
        return dict(self.values)

    def parts(self) -> list[tuple[int, int]]:
        """(numerator, denominator) of each value, in chart-coordinate order:
        the input of ``LaurentPoly._evaluate_parts`` for chart polynomials.
        A point built by hand must list every coordinate in that order, with
        an int or a Fraction for each."""
        if tuple(name for name, _ in self.values) != self.chart.coordinates:
            raise PointError("point values do not list the chart's coordinates in order")
        parts = []
        for name, value in self.values:
            value = exact_scalar(value, "value of coordinate", name)
            parts.append((value.numerator, value.denominator))
        return parts


def sample_point(on: Chart, seed: int) -> Point:
    """Deterministic rational point: random nonzero integer draws for the free
    coordinates, solvable coordinates computed from the relations.  The first
    draw is always a point: invertible coordinates are free and drawn nonzero,
    and the solved coordinates satisfy every relation identically."""
    rng = random.Random(seed)
    draws = {name: rng.choice(SAMPLE_RANGE) for name in on.free_coordinates}
    # the solutions are in the free coordinates alone
    parts = [(draws[c], 1) if c in draws else None for c in on.coordinates]
    values = {name: Fraction(n) for name, n in draws.items()}
    for name, expr in on.solutions:
        values[name] = Fraction(*expr._evaluate_parts(parts))
    return Point(on, tuple((c, values[c]) for c in on.coordinates))


@dataclass(frozen=True)
class SubstitutionAction:
    """Finite-order automorphism of ``chart`` given by coordinate images."""

    chart: Chart
    name: str
    images: tuple[tuple[str, LaurentPoly], ...]
    order: int

    def image(self, coordinate: str) -> LaurentPoly:
        for key, value in self.images:
            if key == coordinate:
                return value
        raise UnknownVariableError(f"no image for coordinate {coordinate!r}")

    def as_dict(self) -> dict[str, LaurentPoly]:
        return dict(self.images)


def action(
    on: Chart,
    name: str,
    images: Mapping[str, LaurentPoly | Scalar],
    order: int,
) -> SubstitutionAction:
    """Validate a substitution action: declared order and ideal stability."""
    if order < 1:
        raise ActionError(f"declared order must be positive, got {order}")
    full: dict[str, LaurentPoly] = {}
    for c in on.coordinates:
        img = images.get(c)
        full[c] = on.generator(c) if img is None else on.poly(img)
    extra = set(images) - set(on.coordinates)
    if extra:
        raise ActionError(f"images for unknown coordinates: {sorted(extra)}")
    for c in on.invertible:
        if not full[c].is_monomial:
            raise ActionError(
                f"invertible coordinate {c!r} must map to a unit monomial, got {full[c]}"
            )
        if not full[c].support() <= on.invertible:
            raise ActionError(
                f"image of invertible coordinate {c!r} involves non-invertible "
                f"coordinates"
            )

    # order check: the order-fold composite is the identity modulo the ideal;
    # powers of one substitution commute, so compose by repeated squaring
    current, power, rest = {c: on.generator(c) for c in on.coordinates}, full, order
    while rest:
        if rest & 1:
            current = {c: current[c].substitute(power) for c in on.coordinates}
        rest >>= 1
        if rest:
            power = {c: power[c].substitute(power) for c in on.coordinates}
    for c in on.coordinates:
        if on.normal_form(current[c]) != on.normal_form(on.generator(c)):
            raise ActionError(
                f"substitution is not of order {order}: coordinate {c!r} maps to "
                f"{current[c]} after {order} iterations"
            )

    # ideal stability: each defining polynomial maps back into the ideal
    for rel in on.relations:
        if not on.normal_form(rel.poly.substitute(full)).is_zero:
            raise ActionError(
                f"substitution does not preserve the ideal: relation {rel.poly} "
                f"maps outside"
            )

    return SubstitutionAction(on, name, tuple((c, full[c]) for c in on.coordinates), order)
