"""Shared fixtures-by-function: standard charts and seeded random generators."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from volform import (
    Chart,
    DiffForm,
    LaurentPoly,
    VectorField,
    chart,
    diff_form,
    exterior_derivative,
    interior_product,
    vector_field,
    volume_form,
)
from volform.errors import ChartError

XYZ = ("x", "y", "z")
SRC = Path(__file__).resolve().parent.parent / "src"


def run_snippet(code: str, timeout: float = 10.0) -> subprocess.CompletedProcess:
    """Run Python code in a fresh interpreter that imports this checkout's
    package, and fail the calling test if it is still running after
    ``timeout`` seconds: a hang regression then fails fast, not at the CI
    job's timeout."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    try:
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=timeout, env={**os.environ, "PYTHONPATH": path})
    except subprocess.TimeoutExpired:
        pytest.fail(f"still running after {timeout} s:\n{code}")


def integral_vector(vec: dict) -> dict:
    """A sparse vector of ints or Fractions times the lcm of its denominators.

    ``SpanBuilder`` takes integer vectors only; a positive multiple spans the
    same line, so spans, echelon forms and nullspaces are unchanged."""
    den = math.lcm(*(Fraction(v).denominator for v in vec.values()))
    return {k: int(v * den) for k, v in vec.items()}


def grlex_key(exps: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """The graded-lex order of exponent vectors that LaurentPoly keeps its
    terms in (descending) and that packed exponent codes follow: degree
    first, then the vector."""
    return (sum(exps), exps)


def surface_chart(p: LaurentPoly | None = None, q: LaurentPoly | None = None) -> Chart:
    x, y, z = LaurentPoly.generators(XYZ)
    p = x if p is None else p
    q = y if q is None else q
    return chart(XYZ, invertible=("x", "y"), relations=[(p + q + x * y * z - 1, "z")])


def torus_chart(n: int) -> Chart:
    names = tuple(f"z{i}" for i in range(1, n + 1))
    return chart(names, invertible=names)


def sl2_chart() -> Chart:
    names = ("a1", "a2", "b1", "b2")
    rel = LaurentPoly.from_dict(
        names, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1, (0, 0, 0, 0): -1}
    )
    return chart(names, invertible=("a1",), relations=[(rel, "b2")])


def torus_volume(on: Chart):
    return volume_form(on, LaurentPoly.monomial(on.coordinates, tuple(-1 for _ in on.coordinates)))


def surface_volume(on: Chart):
    x = on.generator("x")
    y = on.generator("y")
    return volume_form(on, (x * y).unit_inverse())


def surface_fields(on: Chart) -> dict[str, VectorField]:
    """The three fields of a surface chart built from the partials of its
    relation r: r_y d/dx - r_x d/dy, -r_z d/dx + r_x d/dz, -r_z d/dy + r_y d/dz."""
    r = on.relations[0].poly
    rx, ry, rz = (r.partial_derivative(n) for n in XYZ)
    return {
        "dz": vector_field(on, {"x": ry, "y": -rx}),
        "dy": vector_field(on, {"x": -rz, "z": rx}),
        "dx": vector_field(on, {"y": -rz, "z": ry}),
    }


def lie_derivative(field: VectorField, form: DiffForm) -> DiffForm:
    """L_xi = d i_xi + i_xi d (Cartan's formula), from the package's d and i."""
    return exterior_derivative(interior_product(field, form)) + interior_product(
        field, exterior_derivative(form)
    )


def random_coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([n for n in range(-5, 6) if n != 0]))


def random_poly(
    rng: random.Random,
    on: Chart,
    max_terms: int = 3,
    max_degree: int = 3,
    laurent: bool = True,
) -> LaurentPoly:
    """Sparse random polynomial; negative exponents only on invertible
    coordinates and only when ``laurent``."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = []
        for name in on.coordinates:
            lo = -max_degree if (laurent and name in on.invertible) else 0
            exps.append(rng.randint(lo, max_degree))
        terms[tuple(exps)] = random_coeff(rng)
    return LaurentPoly.from_dict(on.coordinates, terms)


def _tangential_completion(on: Chart, free: dict[str, LaurentPoly]) -> VectorField:
    """Free components are arbitrary; solvable components are forced by the
    relations."""
    comps = {name: free.get(name, on.poly(0)) for name in on.free_coordinates}
    pending = list(on.relations)
    for _ in range(len(pending) + 1):
        if not pending:
            break
        progressed = []
        for rel in pending:
            needed = rel.poly.support() - {rel.solves} - set(comps)
            if needed:
                progressed.append(rel)
                continue
            a = rel.poly.coefficient_in(rel.solves, 1)
            drift = LaurentPoly.zero(on.coordinates)
            for name in rel.poly.support():
                if name == rel.solves:
                    continue
                drift = drift + comps[name] * rel.poly.partial_derivative(name)
            comps[rel.solves] = -(a.unit_inverse()) * drift
        if len(progressed) == len(pending):
            raise ChartError("relations are not triangular for tangential completion")
        pending = progressed
    return vector_field(on, comps)


def random_tangent_field(rng: random.Random, on: Chart, max_degree: int = 2) -> VectorField:
    free = {
        name: random_poly(rng, on, max_terms=2, max_degree=max_degree)
        for name in on.free_coordinates
        if rng.random() < 0.9
    }
    return _tangential_completion(on, free)


def random_form(rng: random.Random, on: Chart, degree: int, max_degree: int = 2) -> DiffForm:
    import itertools

    keys = list(itertools.combinations(on.free_coordinates, degree))
    rng.shuffle(keys)
    chosen = keys[: rng.randint(1, len(keys))] if keys else []
    return diff_form(
        on,
        degree,
        {key: random_poly(rng, on, max_terms=2, max_degree=max_degree) for key in chosen},
    )
