"""Laurent polynomial arithmetic: frozen examples, ring laws, sympy cross-checks."""

import random
from fractions import Fraction

import pytest
import sympy

from volform import LaurentPoly
from volform.errors import (
    EvaluationError,
    NotAUnitError,
    ResourceLimitError,
    ScalarError,
    UnknownVariableError,
    VariableMismatchError,
)

from helpers import random_poly, surface_chart, torus_chart
from oracles import poly_to_sympy, substitute_by_sympy, sympy_equal

XY = ("x", "y")


def gens(*names):
    return LaurentPoly.generators(names)


def test_product_difference_of_squares():
    x, y = gens(*XY)
    assert (x + y) * (x - y) == x ** 2 - y ** 2


def test_unit_cancellation():
    x, y = gens(*XY)
    assert x ** -1 * x == LaurentPoly.one(XY)


def test_surface_defining_combination():
    x, y = gens(*XY)
    assert 1 - x - y == LaurentPoly.from_dict(XY, {(0, 0): 1, (1, 0): -1, (0, 1): -1})


def test_zero_terms_are_dropped():
    x, y = gens(*XY)
    assert (x - x).is_zero
    assert (x * 0).is_zero
    assert not (x + y).is_zero


def test_canonical_order_is_graded_lex():
    x, y = gens(*XY)
    p = 1 + y + x + x * y
    assert [e for e, _ in p.terms] == [(1, 1), (1, 0), (0, 1), (0, 0)]


@pytest.mark.parametrize("n, products", [(0, 0), (1, 0), (2, 1), (5, 3), (8, 3)])
def test_power_squares_only_while_bits_remain(n, products, monkeypatch):
    x, y = gens(*XY)
    p = 1 + x + y
    expected = p ** n
    calls = []
    original = LaurentPoly.__mul__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counting)
    assert p ** n == expected
    assert len(calls) == products


def test_coefficient_past_the_digit_limit_prints_as_an_error():
    x, y = gens(*XY)
    big = 2 ** 20000 * x
    with pytest.raises(ResourceLimitError, match="too long to print"):
        str(big)
    with pytest.raises(ResourceLimitError):
        str(LaurentPoly.constant(XY, Fraction(1, 3 ** 10000)))
    assert str(2 ** 1000 * x) == f"{2 ** 1000}*x"


def test_partial_derivative_power_rule():
    x, y = gens(*XY)
    assert (x ** 2 * y).partial_derivative("x") == 2 * x * y
    assert (x ** -1).partial_derivative("x") == -(x ** -2)
    assert (1 - x - y).partial_derivative("y") == LaurentPoly.constant(XY, -1)


def test_partial_derivative_unknown_variable():
    x, _ = gens(*XY)
    with pytest.raises(UnknownVariableError):
        x.partial_derivative("t")


def test_substitute_negation_pair():
    x, y = gens(*XY)
    assert (x * y).substitute({"x": -x, "y": -y}) == x * y


def test_substitute_to_zero():
    x, y = gens(*XY)
    z2 = y ** 2
    assert z2.substitute({"y": LaurentPoly.zero(XY)}).is_zero


def test_substitute_unit_scaling():
    x, y = gens(*XY)
    result = (x ** -1).substitute({"x": 2 * x})
    assert result == Fraction(1, 2) * x ** -1
    # derived check: evaluate both sides at sample points
    for value in (1, 2, -3, Fraction(5, 7)):
        assert result.evaluate({"x": value, "y": 1}) == Fraction(1) / (2 * Fraction(value))


def test_substitute_negative_power_of_non_unit_rejected():
    x, y = gens(*XY)
    with pytest.raises(NotAUnitError):
        (x ** -1).substitute({"x": x + y})


def test_evaluate_examples():
    x, y = gens(*XY)
    assert (x + y).evaluate({"x": 1, "y": 2}) == 3
    assert (x ** -1 * y).evaluate({"x": 2, "y": 4}) == 2
    assert (1 - x - y).evaluate({"x": 1, "y": 1}) == -1


def test_evaluate_zero_at_negative_power():
    x, _ = gens(*XY)
    with pytest.raises(EvaluationError, match=r"^zero assigned to 'x', which occurs with negative exponent -1$"):
        (x ** -1).evaluate({"x": 0, "y": 3})


def test_evaluate_missing_assignment():
    x, y = gens(*XY)
    with pytest.raises(UnknownVariableError, match=r"^no value assigned to variable 'y'$"):
        (x * y).evaluate({"x": 1})
    assert x.evaluate({"x": 1}) == 1  # an unused variable needs no value


@pytest.mark.parametrize("p", [gens(*XY)[0], LaurentPoly.zero(XY)], ids=["x", "zero"])
def test_evaluate_unknown_point_name(p):
    # the point is read even when no term uses it
    with pytest.raises(UnknownVariableError, match=r"^unknown variable 'w'$"):
        p.evaluate({"x": 1, "w": 2})


def test_inexact_scalars_are_rejected():
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    p = LaurentPoly.from_dict(XY, {(1, 0): 1, (0, -1): 2})
    with pytest.raises(ScalarError, match=r"^value of variable 'x' is 0\.1, not an int or a Fraction$"):
        p.evaluate({"x": 0.1, "y": 1})
    with pytest.raises(ScalarError, match=r"^value of variable 'y' is '1/2', "):
        p.evaluate({"x": 1, "y": "1/2"})
    with pytest.raises(ScalarError, match=r"^coefficient at exponents \(1,\) is 0\.1, "):
        LaurentPoly.from_dict(("x",), {(1,): 0.1})
    with pytest.raises(ScalarError, match=r"^constant over \('x', 'y'\) is 0\.5, "):
        LaurentPoly.constant(XY, 0.5)
    assert p.evaluate({"x": Fraction(1, 10), "y": 1}) == Fraction(21, 10)


@pytest.mark.parametrize("exps", [(1.5,), ("2",), (2.0,), (True,), (Fraction(2),)])
def test_non_int_exponents_are_rejected(exps):
    # int() would truncate 1.5 to x and read '2' as x**2; ** refuses 2.0 too
    with pytest.raises(ScalarError, match=r"^exponent vector \(.*\) has an exponent that is not an int$"):
        LaurentPoly.from_dict(("x",), {exps: 1})
    with pytest.raises(ScalarError, match=r"^exponent vector \(0, .*\) has "):
        LaurentPoly.monomial(XY, (0, *exps))


def test_variable_list_mismatch():
    x, _ = gens(*XY)
    other = LaurentPoly.variable(("x", "y", "z"), "x")
    with pytest.raises(VariableMismatchError):
        x + other


def test_division_by_unit_and_scalar():
    x, y = gens(*XY)
    assert (x * y) / x == y
    assert (2 * x) / 2 == x
    with pytest.raises(NotAUnitError):
        x / (x + y)


@pytest.mark.parametrize("chart_maker", [lambda: torus_chart(2), surface_chart])
def test_ring_axioms_on_random_inputs(chart_maker):
    on = chart_maker()
    rng = random.Random(101)
    for _ in range(120):
        p = random_poly(rng, on)
        q = random_poly(rng, on)
        r = random_poly(rng, on)
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r


def test_leibniz_rule_on_random_inputs():
    on = surface_chart()
    rng = random.Random(102)
    for _ in range(120):
        p = random_poly(rng, on)
        q = random_poly(rng, on)
        name = rng.choice(on.coordinates)
        lhs = (p * q).partial_derivative(name)
        rhs = p * q.partial_derivative(name) + q * p.partial_derivative(name)
        assert lhs == rhs


def test_substitute_is_ring_homomorphism():
    on = torus_chart(2)
    rng = random.Random(103)
    z1, z2 = on.generators()
    images = {"z1": z1 * z2, "z2": z2 ** -1}
    for _ in range(60):
        p = random_poly(rng, on)
        q = random_poly(rng, on)
        assert (p + q).substitute(images) == p.substitute(images) + q.substitute(images)
        assert (p * q).substitute(images) == p.substitute(images) * q.substitute(images)


def test_evaluate_after_substitute_composes():
    on = torus_chart(2)
    rng = random.Random(104)
    z1, z2 = on.generators()
    images = {"z1": 2 * z1, "z2": z1 * z2}
    for _ in range(40):
        p = random_poly(rng, on)
        point = {"z1": Fraction(3), "z2": Fraction(-2)}
        composed = {
            name: images.get(name, on.generator(name)).evaluate(point)
            for name in on.coordinates
        }
        assert p.substitute(images).evaluate(point) == p.evaluate(composed)


def test_against_sympy_on_random_instances():
    on = surface_chart()
    rng = random.Random(105)
    symbols = sympy.symbols(on.coordinates)
    for _ in range(40):
        p = random_poly(rng, on)
        q = random_poly(rng, on)
        assert sympy_equal(p * q, poly_to_sympy(p) * poly_to_sympy(q))
        assert sympy_equal(p + q, poly_to_sympy(p) + poly_to_sympy(q))
        name = rng.choice(on.coordinates)
        sym = symbols[on.coordinates.index(name)]
        assert sympy_equal(p.partial_derivative(name), sympy.diff(poly_to_sympy(p), sym))


XYZ = ("x", "y", "z")
# denominators up to 10^9; 999999937 and 998244353 are prime
DENOMINATORS = [1, 1, 2, 7, 12, 360, 65536, 998244353, 999999937, 10 ** 9]


def wide_poly(rng: random.Random, n_terms: int) -> LaurentPoly:
    """Laurent polynomial with up to n_terms terms and large coefficients."""
    terms = {}
    for _ in range(n_terms):
        exps = tuple(rng.randint(-3, 3) for _ in XYZ)
        terms[exps] = Fraction(rng.randint(-10 ** 6, 10 ** 6) or 1, rng.choice(DENOMINATORS))
    return LaurentPoly.from_dict(XYZ, terms)


def assert_canonical(p: LaurentPoly) -> None:
    keys = [(sum(exps), exps) for exps, _ in p.terms]
    assert keys == sorted(set(keys), reverse=True)  # grlex descending, distinct
    for exps, coeff in p.terms:
        assert type(exps) is tuple and len(exps) == len(p.variables)
        assert all(type(e) is int for e in exps)
        assert type(coeff) is Fraction and coeff != 0


def test_products_of_wide_operands_match_sympy_in_canonical_form():
    rng = random.Random(2024)
    x, y, z = LaurentPoly.generators(XYZ)
    zero, five = LaurentPoly.zero(XYZ), LaurentPoly.constant(XYZ, Fraction(5, 999999937))
    pairs = []
    for _ in range(16):
        pairs.append((wide_poly(rng, rng.randint(1, 15)), wide_poly(rng, rng.randint(1, 15))))
    for n in (1, 2, 15):
        pairs.append((wide_poly(rng, 1), wide_poly(rng, n)))
        pairs.append((wide_poly(rng, n), wide_poly(rng, 1)))
    for other in (zero, five, LaurentPoly.one(XYZ)):
        pairs.append((other, wide_poly(rng, 9)))
        pairs.append((wide_poly(rng, 9), other))
    pairs.append((zero, zero))
    # the middle terms cancel inside the convolution
    a, b = wide_poly(rng, 6), wide_poly(rng, 5)
    pairs.append((a + b, a - b))
    pairs.append((x - y / 7, x + y / 7))
    for p, q in pairs:
        product = p * q
        assert_canonical(product)
        assert poly_to_sympy(product) == sympy.expand(poly_to_sympy(p) * poly_to_sympy(q))
    assert (x - y / 7) * (x + y / 7) - (x ** 2 - y ** 2 / 49) == zero
    assert (a + b) * (a - b) == a * a - b * b
    assert_canonical(Fraction(3, 10 ** 9) * a)
    assert_canonical(a * 7)
    assert zero * a == a * zero == zero
    assert five * z * a == a * (z * five)


def test_substitute_matches_sympy_on_random_laurent_polynomials():
    # a variable that occurs with a negative exponent gets a unit image
    on = torus_chart(3)
    rng = random.Random(106)
    units = 0
    for _ in range(30):
        p = random_poly(rng, on, max_terms=5)
        bindings = {}
        for name in rng.sample(on.coordinates, rng.randint(1, 3)):
            unit = p.min_degree_in(name) < 0
            units += unit
            bindings[name] = random_poly(rng, on, max_terms=1 if unit else 3)
        got = p.substitute(bindings)
        assert_canonical(got)
        assert poly_to_sympy(got) == substitute_by_sympy(p, bindings), (p, bindings)
    assert units


def test_term_surgery_builds_nothing_through_the_validating_constructors(monkeypatch):
    # substitute, coefficient_in and extend_variables build arithmetic results,
    # so none of from_dict, constant and monomial (the entry points that check
    # outside input) runs
    x, y = gens(*XY)
    p = x ** 2 * y ** -1 + 3 * x - Fraction(1, 2) * y ** -2 + 5
    bindings = {"x": x + y, "y": 2 * y}
    calls = []
    for name in ("from_dict", "constant", "monomial"):
        def counted(*args, _name=name, _build=getattr(LaurentPoly, name), **kwargs):
            calls.append(_name)
            return _build(*args, **kwargs)
        monkeypatch.setattr(LaurentPoly, name, staticmethod(counted))
    substituted = p.substitute(bindings)
    coefficient = p.coefficient_in("x", 1)
    extended = p.extend_variables(("t", "x", "y"))
    assert calls == []
    monkeypatch.undo()
    assert substituted == ((x + y) ** 2 * (2 * y) ** -1 + 3 * (x + y)
                           - Fraction(1, 2) * (2 * y) ** -2 + 5)
    assert coefficient == LaurentPoly.constant(XY, 3)
    assert extended.variables == ("t", "x", "y") and str(extended) == str(p)


POINT_VALUES = [0, 1, -1, 3, -7, Fraction(5), Fraction(-3, 4), Fraction(22, 7),
                Fraction(-1, 10 ** 9), Fraction(999999937, 12)]


def _evaluation_cases():
    # mixed denominators; zero values only where no exponent is negative, which
    # multiplying by z**3 guarantees for z
    rng = random.Random(2025)
    z = LaurentPoly.variable(XYZ, "z")
    for k in range(80):
        p = wide_poly(rng, rng.randint(0, 8))
        if k % 2:
            p = p * z ** 3
        point = {}
        for name in XYZ:
            value = rng.choice(POINT_VALUES)
            while value == 0 and p.min_degree_in(name) < 0:
                value = rng.choice(POINT_VALUES)
            point[name] = value
        yield p, point
    # a negative value under an odd negative exponent makes a term's
    # denominator negative: -1/8 for x**-3 at x = -2
    x, y, _ = LaurentPoly.generators(XYZ)
    for p in (x ** -3, 5 * x ** -3 - Fraction(2, 3) * y ** -1, x ** -3 * y ** -1 + 1):
        yield p, {"x": -2, "y": Fraction(-3, 4), "z": 1}


def test_evaluate_matches_sympy_substitution():
    symbols = sympy.symbols(XYZ)
    zeros = negative_parts = 0
    for p, point in _evaluation_cases():
        zeros += 0 in point.values()
        got = p.evaluate(point)
        expected = poly_to_sympy(p).xreplace(
            {sym: sympy.Rational(point[name]) for name, sym in zip(XYZ, symbols)}
        )
        assert type(got) is Fraction
        assert sympy.Rational(got.numerator, got.denominator) == expected, (p, point)
        # the kernel under evaluate: a positive denominator and the same ratio
        values = [Fraction(point[name]) for name in XYZ]
        num, den = p._evaluate_parts([(v.numerator, v.denominator) for v in values])
        assert den > 0 and Fraction(num, den) == got, (p, point)
        negative_parts += any(
            v < 0 and e % 2 and e < 0 for exps, _ in p.terms for v, e in zip(values, exps)
        )
    assert zeros and negative_parts


def test_rename_and_extend_variables():
    x, y = gens(*XY)
    p = x ** 2 * y - 3
    renamed = p.rename_variables({"x": "u"})
    assert renamed.variables == ("u", "y")
    extended = p.extend_variables(("t", "x", "y"))
    assert extended.variables == ("t", "x", "y")
    assert extended.evaluate({"t": 9, "x": 2, "y": 1}) == p.evaluate({"x": 2, "y": 1})


def test_string_form_is_stable():
    x, y = gens(*XY)
    assert str(x ** 2 - Fraction(1, 2) * y ** -1) == "x**2 - 1/2*y**-1"
    assert str(LaurentPoly.zero(XY)) == "0"


X = LaurentPoly.variable(XY, "x")

ALGEBRA_INPUT_ERRORS = {
    "exponent_length": (lambda: LaurentPoly.from_dict(("x",), {(1, 2): 1}), VariableMismatchError,
                        "exponent vector (1, 2) has length 2, expected 1"),
    "unknown_variable": (lambda: LaurentPoly.variable(XY, "q"), UnknownVariableError,
                         "unknown variable 'q'"),
    "fractional_power": (lambda: X ** Fraction(1, 2), TypeError, "exponent must be an integer"),
    "rename_duplicate": (lambda: X.rename_variables({"x": "y"}), VariableMismatchError,
                         "renaming produces duplicate names: ('y', 'y')"),
    "extend_missing": (lambda: X.extend_variables(("y",)), UnknownVariableError,
                       "target variable list is missing 'x'"),
    # an operand of another type is NotImplemented, so Python raises
    "add_str": (lambda: X + "a", TypeError,
                "unsupported operand type(s) for +: 'LaurentPoly' and 'str'"),
    "sub_str": (lambda: X - "a", TypeError,
                "unsupported operand type(s) for -: 'LaurentPoly' and 'str'"),
    "div_str": (lambda: X / "a", TypeError,
                "unsupported operand type(s) for /: 'LaurentPoly' and 'str'"),
}


@pytest.mark.parametrize("case", ALGEBRA_INPUT_ERRORS)
def test_algebra_input_errors(case):
    build, error, message = ALGEBRA_INPUT_ERRORS[case]
    with pytest.raises(error) as raised:
        build()
    assert str(raised.value) == message


def test_zero_polynomial_degree_and_repr():
    assert LaurentPoly.zero(XY).degree_in("x") == 0
    assert repr(X * X - 1) == "LaurentPoly(x**2 - 1)"
