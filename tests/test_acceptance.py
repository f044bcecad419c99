"""Acceptance suite: every criterion is exact (no tolerances) and prints one
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import json
import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import jsonschema

from volform import (
    FULL_RING,
    LaurentPoly,
    bracket_potential,
    contract_volume,
    divergence,
    exterior_derivative,
    forms_equal,
    interior_product,
    is_invariant,
    kernel_basis,
    lie_bracket,
    product,
    sample_point,
    scalar_form,
    semicompat_bounded,
    sl2,
    spans_wedge_square,
    submodular,
    surface,
    torus,
    vector_field,
    verify_bracket_identity,
    verify_flow_jacobian,
    verify_potential,
    wedge,
    xm1,
)
from volform.cli import SCHEMA_PATH
from volform.linalg import SpanBuilder, identity_matrix, make_matrix, mat_mul

from helpers import (
    grlex_key,
    integral_vector,
    lie_derivative,
    random_form,
    random_poly,
    random_tangent_field,
)
from oracles import brute_force_kernel, row_space_contains

DATA = Path(__file__).parent / "data"
XYZ = ("x", "y", "z")


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL — {description}")
        raise
    print(f"[criterion {number:02d}] PASS — {description}")


def xyvars():
    return (LaurentPoly.variable(XYZ, "x"), LaurentPoly.variable(XYZ, "y"))


def surface_xy():
    x, y = xyvars()
    return surface(x, y)


def surface_x2y3():
    x, y = xyvars()
    return surface(x ** 2, y ** 3)


def test_criterion_01_bracket_identity_exactness():
    with criterion(1, "bracket-contraction identity is exact on both surfaces and SL2"):
        for scenario in (surface_xy(), surface_x2y3()):
            f = scenario.fields
            w = scenario.volume
            assert verify_bracket_identity(f["dz"], f["dy"], w)
            assert verify_bracket_identity(f["dz"], f["dx"], w)
            assert verify_bracket_identity(f["dy"], f["dx"], w)
        s = sl2()
        assert verify_bracket_identity(s.fields["xi"], s.fields["eta"], s.volume)


def test_criterion_02_surface_bracket_potential():
    with criterion(2, "d(double contraction) equals the bracket contraction; "
                      "potential is +/-(1 + y*z)"):
        s = surface_xy()
        dz, dy = s.fields["dz"], s.fields["dy"]
        w = s.volume
        value = bracket_potential(dz, dy, w)
        lhs = exterior_derivative(scalar_form(s.chart, value))
        rhs = contract_volume(lie_bracket(dz, dy), w)
        assert forms_equal(lhs, rhs)
        y, z = s.chart.generator("y"), s.chart.generator("z")
        target = s.chart.normal_form(1 + y * z)
        matches = [c for c in (1, -1) if (value - c * target).is_zero]
        assert matches == [1]  # this convention lands on +(1 + y*z)


def test_criterion_03_potential_duality_signs():
    with criterion(3, "each coordinate is a potential of its shear field for "
                      "exactly one sign"):
        s = surface_xy()
        w = s.volume
        expected = {"dz": "z", "dy": "y", "dx": "x"}
        signs = {}
        for field_name, coordinate in expected.items():
            g = s.chart.generator(coordinate)
            matched = [c for c in (1, -1) if verify_potential(c * g, s.fields[field_name], w)]
            assert len(matched) == 1
            signs[field_name] = matched[0]
        assert signs == {"dz": -1, "dy": -1, "dx": 1}


def test_criterion_04_kernels_with_brute_force_oracle():
    with criterion(4, "degree-4 kernels are exactly the powers of the dual "
                      "coordinate (dimension 5), confirmed by brute force"):
        s = surface_xy()
        for field_name, coordinate in (("dz", "z"), ("dy", "y"), ("dx", "x")):
            field = s.fields[field_name]
            basis = kernel_basis(field, 4)
            assert len(basis) == 5
            span = SpanBuilder(key_order=grlex_key)
            for member in basis:
                span.insert(integral_vector(dict(member.terms)))
            g = s.chart.generator(coordinate)
            for k in range(5):
                assert span.contains(integral_vector(dict(s.chart.normal_form(g ** k).terms)))
            dimension, functions, columns = brute_force_kernel(field, s.chart, 4)
            assert dimension == 5
            for member in basis:
                vec = [dict(member.terms).get(c, Fraction(0)) for c in columns]
                assert row_space_contains(functions, vec)


def test_criterion_05_sl2_semicompatibility():
    with criterion(5, "SL2 shear pair certifies FULL_RING at bound 2"):
        s = sl2()
        verdict = semicompat_bounded(s.fields["xi"], s.fields["eta"], 2)
        assert verdict.status == FULL_RING
        assert verdict.witness == LaurentPoly.one(s.chart.coordinates)


def test_criterion_06_torus_computations():
    with criterion(6, "torus fields are divergence-free, contract to the "
                      "axis forms, and span wedges at 20 points (n = 2, 3)"):
        for n in (2, 3):
            s = torus(n)
            w = s.volume
            for i in range(1, n + 1):
                nu = s.fields[f"nu{i}"]
                assert divergence(nu, w).is_zero
                got = contract_volume(nu, w)
                expected = s.forms[f"w_without_{i}"]
                assert forms_equal(got, expected) or forms_equal(got, -expected)
            pairs = []
            one = s.polys["one"]
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    pairs.append((s.fields[f"nu{i}x{j}"], s.fields[f"nu{j}x{i}"], one))
            points = set()
            seed = 0
            while len(points) < 20:
                point = sample_point(s.chart, seed)
                seed += 1
                points.add(point)
            for point in points:
                assert spans_wedge_square(pairs, point)


def test_criterion_07_exact_volume_forms():
    with criterion(7, "the primitive's exterior derivative recovers the "
                      "volume form exactly for m = 2, 3"):
        for m in (2, 3):
            s = xm1(m)
            assert forms_equal(exterior_derivative(s.forms["tau"]), s.volume)


def test_criterion_08_submodular_values():
    with criterion(8, "sub-modular values: -1 on the rotation, 1 on the full "
                      "algebra, multiplicative on products"):
        H = [[1, 0], [0, -1]]
        A0 = [[0, -1], [1, 0]]
        sl2_basis = [H, [[0, 1], [0, 0]], [[0, 0], [1, 0]]]
        assert submodular(A0, [H]) == -1

        rng = random.Random(88)

        def random_element():
            m = identity_matrix(2)
            for _ in range(rng.randint(1, 4)):
                t = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                kind = rng.randint(0, 2)
                if kind == 0:
                    f = make_matrix([[1, t], [0, 1]])
                elif kind == 1:
                    f = make_matrix([[1, 0], [t, 1]])
                else:
                    c = Fraction(rng.randint(1, 5), rng.randint(1, 4))
                    f = make_matrix([[c, 0], [0, 1 / c]])
                m = mat_mul(m, f)
            return m

        for _ in range(10):
            assert submodular(random_element(), sl2_basis) == 1

        normalizer = [make_matrix(A0), make_matrix([[2, 0], [0, Fraction(1, 2)]]),
                      make_matrix([[0, -5], [Fraction(1, 5), 0]])]
        for _ in range(20):
            a, b = rng.choice(normalizer), rng.choice(normalizer)
            assert submodular(mat_mul(a, b), [H]) == submodular(a, [H]) * submodular(b, [H])


def test_criterion_09_flow_jacobian():
    with criterion(9, "time-1 flow Jacobian equals identity plus the rank-one "
                      "shear at a kernel zero"):
        s = sl2()
        point = s.chart.point({"a1": 1, "a2": 1, "b1": 0, "b2": 1})
        assert verify_flow_jacobian(s.fields["xi"], s.polys["f"], point, 8)


def test_criterion_10_divergence_calculus():
    with criterion(10, "divergence of f*nu equals nu(f) for 50 random pairs "
                       "on the torus and the surface"):
        rng = random.Random(90)
        cases = []
        t = torus(2)
        cases.append((t.chart, t.volume, [t.fields["nu1"], t.fields["nu2"]]))
        s = surface_xy()
        cases.append((s.chart, s.volume, [s.fields[k] for k in ("dz", "dy", "dx")]))
        for on, w, generators in cases:
            for _ in range(50):
                nu = vector_field(on, {})
                for g in generators:
                    nu = nu + Fraction(rng.randint(-3, 3)) * g
                assert divergence(nu, w).is_zero
                f = random_poly(rng, on, max_terms=2, max_degree=2)
                assert divergence(f * nu, w) == nu.apply(f)


def test_criterion_11_property_suites():
    with criterion(11, "d^2, double contraction, bracket contraction, "
                       "Leibniz, Jacobi: 100 exact random instances per chart"):
        rng = random.Random(91)
        charts = [torus(2).chart, surface_xy().chart, sl2().chart]
        for on in charts:
            n = len(on.free_coordinates)
            for _ in range(100):
                alpha = random_form(rng, on, rng.randint(0, n), max_degree=1)
                beta = random_form(rng, on, rng.randint(0, n), max_degree=1)
                xi = random_tangent_field(rng, on, max_degree=1)
                eta = random_tangent_field(rng, on, max_degree=1)
                zeta = random_tangent_field(rng, on, max_degree=1)

                assert exterior_derivative(exterior_derivative(alpha)).is_zero
                assert interior_product(xi, interior_product(xi, alpha)).is_zero
                lhs = interior_product(lie_bracket(xi, eta), alpha)
                rhs = lie_derivative(xi, interior_product(eta, alpha)) - \
                    interior_product(eta, lie_derivative(xi, alpha))
                assert forms_equal(lhs, rhs)
                leib_lhs = lie_derivative(xi, wedge(alpha, beta))
                leib_rhs = wedge(lie_derivative(xi, alpha), beta) + \
                    wedge(alpha, lie_derivative(xi, beta))
                assert forms_equal(leib_lhs, leib_rhs)
                jacobi = lie_bracket(xi, lie_bracket(eta, zeta)) + \
                    lie_bracket(eta, lie_bracket(zeta, xi)) + \
                    lie_bracket(zeta, lie_bracket(xi, eta))
                assert jacobi.is_zero


def test_criterion_13_group_invariance():
    with criterion(13, "torus scalings are negation-invariant; the lifted "
                       "product objects are invariant under the diagonal flip"):
        for n in (2, 3):
            s = torus(n)
            negate = s.actions["negate"]
            for i in range(1, n + 1):
                assert is_invariant(s.fields[f"nu{i}"], negate)
        prod = product(surface_xy(), torus(1))
        diag = prod.actions["swap_xy_negate"]
        assert is_invariant(prod.fields["nu1"], diag)
        assert is_invariant(prod.fields["z1dz"], diag)
        assert is_invariant(prod.forms["z1w"], diag)
        assert not is_invariant(prod.fields["dz"], diag)


def test_criterion_14_cli_json_and_exit_codes():
    with criterion(14, "CLI: surface scenario passes with schema-valid JSON; "
                       "a corrupted potential fails with exit 1"):
        proc = subprocess.run(
            [sys.executable, "-m", "volform", "check", "surface:p=x,q=y",
             "--format", "json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, json.loads(SCHEMA_PATH.read_text()))
        assert payload["summary"]["fail"] == 0 and payload["summary"]["error"] == 0

        corrupt = subprocess.run(
            [sys.executable, "-m", "volform", "check",
             str(DATA / "corrupt_potential.vf")],
            capture_output=True, text=True,
        )
        assert corrupt.returncode == 1
        assert "FAIL" in corrupt.stdout
