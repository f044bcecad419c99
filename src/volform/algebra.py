"""Sparse multivariate Laurent polynomials over exact rationals.

Terms are keyed by integer exponent vectors aligned with a fixed, ordered
variable list.  Negative exponents are syntactically allowed on any variable;
charts (see :mod:`volform.variety`) restrict them to coordinates flagged
invertible.  The canonical term order is graded lexicographic in the declared
variable order, so equality of canonical forms is plain tuple comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Collection, Iterable, Mapping, Sequence, Union

from .errors import (
    EvaluationError,
    NotAUnitError,
    ResourceLimitError,
    ScalarError,
    UnknownVariableError,
    VariableMismatchError,
)

Exponents = tuple[int, ...]
Scalar = Union[int, Fraction]
PolyLike = Union["LaurentPoly", int, Fraction]


def _term_key(term: tuple[Exponents, Fraction]) -> tuple[int, Exponents]:
    """A term's graded-lex key: its degree, then its exponents."""
    exps = term[0]
    return (sum(exps), exps)


def scalar_text(c: Fraction | int) -> str:
    """``str(c)``, or ResourceLimitError past Python's int-to-string digit limit."""
    try:
        return str(c)
    except ValueError:
        what = "a coefficient" if isinstance(c, Fraction) else "an exponent"
        bits = max(c.numerator.bit_length(), c.denominator.bit_length())
        raise ResourceLimitError(f"{what} of {bits} bits is too long to print") from None


def exact_scalar(value: object, what: str, key: object) -> Scalar:
    """``value`` itself when it is an int or a Fraction; otherwise ScalarError
    naming ``what`` and ``key``.  ``Fraction`` would take a float or a string
    as an exact rational, so nothing else reaches it."""
    if isinstance(value, (int, Fraction)):
        return value
    raise ScalarError(f"{what} {key!r} is {value!r}, not an int or a Fraction")


def _integral(terms: Collection[tuple]) -> tuple[int, list[tuple]]:
    """The lcm of the denominators of (key, Fraction) pairs, and the pairs times it."""
    den = math.lcm(*(c.denominator for _, c in terms))
    return den, [(e, c.numerator * (den // c.denominator)) for e, c in terms]


@dataclass(frozen=True)
class LaurentPoly:
    """Immutable sparse Laurent polynomial with Fraction coefficients.

    ``terms`` is stored already canonicalized: graded-lex descending, no zero
    coefficients.  Use :meth:`from_dict` or the arithmetic operators rather
    than the raw constructor.  :meth:`from_dict` is the validating path: it
    checks that each exponent vector has the right length and only ``int``
    entries, and converts every coefficient.  :meth:`_from_terms` is internal,
    for arithmetic results only, whose terms are already ``Fraction``
    coefficients on int tuples.  A product convolves the operands' integer
    numerators over the lcm of their denominators and builds one ``Fraction``
    per output term; a single-term operand only shifts the other's exponents,
    which keeps their order.
    """

    variables: tuple[str, ...]
    terms: tuple[tuple[Exponents, Fraction], ...]

    # ------------------------------------------------------------------ build

    @staticmethod
    def from_dict(variables: Iterable[str], terms: Mapping[Exponents, Scalar]) -> "LaurentPoly":
        vs = tuple(variables)
        nvars = len(vs)
        checked: dict[Exponents, Fraction] = {}
        for exps, coeff in terms.items():
            if len(exps) != nvars:
                raise VariableMismatchError(
                    f"exponent vector {exps} has length {len(exps)}, expected {nvars}"
                )
            if not all(type(e) is int for e in exps):
                raise ScalarError(f"exponent vector {exps!r} has an exponent that is not an int")
            checked[tuple(exps)] = Fraction(exact_scalar(coeff, "coefficient at exponents", exps))
        return LaurentPoly._from_terms(vs, checked)

    @staticmethod
    def _from_terms(variables: tuple[str, ...], terms: Mapping[Exponents, Fraction]) -> "LaurentPoly":
        """Trusted constructor for arithmetic results: drops zero terms and
        sorts, without re-wrapping coefficients or re-tupling exponents."""
        items = [term for term in terms.items() if term[1]]
        items.sort(key=_term_key, reverse=True)
        return LaurentPoly(variables, tuple(items))

    @staticmethod
    def zero(variables: Iterable[str]) -> "LaurentPoly":
        return LaurentPoly(tuple(variables), ())

    @staticmethod
    def constant(variables: Iterable[str], value: Scalar) -> "LaurentPoly":
        vs = tuple(variables)
        c = Fraction(exact_scalar(value, "constant over", vs))
        if c == 0:
            return LaurentPoly(vs, ())
        return LaurentPoly(vs, (((0,) * len(vs), c),))

    @staticmethod
    def one(variables: Iterable[str]) -> "LaurentPoly":
        return LaurentPoly.constant(variables, 1)

    @staticmethod
    def variable(variables: Iterable[str], name: str) -> "LaurentPoly":
        vs = tuple(variables)
        if name not in vs:
            raise UnknownVariableError(f"unknown variable {name!r}")
        exps = tuple(1 if v == name else 0 for v in vs)
        return LaurentPoly(vs, ((exps, Fraction(1)),))

    @staticmethod
    def monomial(variables: Iterable[str], exps: Exponents, coeff: Scalar = 1) -> "LaurentPoly":
        return LaurentPoly.from_dict(variables, {tuple(exps): coeff})

    @staticmethod
    def generators(variables: Iterable[str]) -> tuple["LaurentPoly", ...]:
        vs = tuple(variables)
        return tuple(LaurentPoly.variable(vs, v) for v in vs)

    # ------------------------------------------------------------- inspection

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def support(self) -> frozenset[str]:
        """Variables appearing with a nonzero exponent."""
        used = set()
        for exps, _ in self.terms:
            for v, e in zip(self.variables, exps):
                if e != 0:
                    used.add(v)
        return frozenset(used)

    def degree_in(self, name: str) -> int:
        idx = self._index(name)
        if self.is_zero:
            return 0
        return max(exps[idx] for exps, _ in self.terms)

    def min_degree_in(self, name: str) -> int:
        idx = self._index(name)
        if self.is_zero:
            return 0
        return min(exps[idx] for exps, _ in self.terms)

    def coefficient_in(self, name: str, power: int) -> "LaurentPoly":
        """Coefficient of name**power, as a polynomial in the remaining variables."""
        idx = self._index(name)
        out: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms:
            if exps[idx] == power:
                reduced = exps[:idx] + (0,) + exps[idx + 1:]
                out[reduced] = out.get(reduced, Fraction(0)) + coeff
        return LaurentPoly._from_terms(self.variables, out)

    def _index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise UnknownVariableError(f"unknown variable {name!r}") from None

    def _check_same_variables(self, other: "LaurentPoly") -> None:
        if self.variables != other.variables:
            raise VariableMismatchError(
                f"variable lists differ: {self.variables} vs {other.variables}"
            )

    # ------------------------------------------------------------- arithmetic

    def _coerce(self, other: PolyLike) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            self._check_same_variables(other)
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.constant(self.variables, other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: PolyLike) -> "LaurentPoly":
        q = self._coerce(other)
        if q is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for exps, coeff in q.terms:
            prior = out.get(exps)
            out[exps] = coeff if prior is None else prior + coeff
        return LaurentPoly._from_terms(self.variables, out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.variables, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: PolyLike) -> "LaurentPoly":
        q = self._coerce(other)
        if q is NotImplemented:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other: PolyLike) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other: PolyLike) -> "LaurentPoly":
        q = self._coerce(other)
        if q is NotImplemented:
            return NotImplemented
        a, b = (q.terms, self.terms) if len(q.terms) == 1 else (self.terms, q.terms)
        # one term shifts every exponent (order kept, nothing merges); else convolve int numerators
        if len(a) == 1:
            (e1, c1), = a
            b = b if c1 == 1 else [(e2, c1 * c2) for e2, c2 in b]  # coefficient 1 keeps b's
            return LaurentPoly(self.variables, tuple([(tuple(map(add, e1, e2)), c) for e2, c in b]))
        (d1, a), (d2, b) = _integral(a), _integral(b)
        den = d1 * d2
        out: dict[Exponents, int] = {}
        for e1, n1 in a:
            for e2, n2 in b:
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + n1 * n2
        return LaurentPoly._from_terms(self.variables, {
            e: Fraction(n, den) if den != 1 else Fraction(n) for e, n in out.items() if n
        })

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return self.unit_inverse() ** (-n)
        result = None
        base = self
        k = n
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:  # square only while a bit remains
                base = base * base
        return LaurentPoly.one(self.variables) if result is None else result

    def __truediv__(self, other: PolyLike) -> "LaurentPoly":
        q = self._coerce(other)
        if q is NotImplemented:
            return NotImplemented
        return self * q.unit_inverse()

    def unit_inverse(self) -> "LaurentPoly":
        """Inverse of a single-term monomial; NotAUnitError otherwise."""
        if len(self.terms) != 1:
            raise NotAUnitError(f"{self} is not a single-term monomial")
        exps, coeff = self.terms[0]
        inv = tuple(-e for e in exps)
        return LaurentPoly(self.variables, ((inv, Fraction(1) / coeff),))

    # -------------------------------------------------------------- calculus

    def partial_derivative(self, name: str) -> "LaurentPoly":
        """Formal partial derivative; d(x**n)/dx = n*x**(n-1) for any integer n."""
        idx = self._index(name)
        out: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms:
            n = exps[idx]
            if n == 0:
                continue
            # distinct terms keep distinct exponent vectors, so nothing merges
            out[exps[:idx] + (n - 1,) + exps[idx + 1:]] = coeff * n
        return LaurentPoly._from_terms(self.variables, out)

    def substitute(self, bindings: Mapping[str, PolyLike]) -> "LaurentPoly":
        """Simultaneous substitution of variables by polynomials.

        A variable raised to a negative power may only be replaced by a
        single-term monomial (a unit), otherwise the result would leave the
        Laurent ring.
        """
        images: dict[int, LaurentPoly] = {}
        for name, value in bindings.items():
            idx = self._index(name)
            images[idx] = self._coerce(value)
        result: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms:
            residual = tuple(0 if idx in images else e for idx, e in enumerate(exps))
            factor = LaurentPoly(self.variables, ((residual, coeff),))
            for idx, image in images.items():
                e = exps[idx]
                if e == 0:
                    continue
                if e < 0 and len(image.terms) != 1:
                    raise NotAUnitError(
                        f"substitution for {self.variables[idx]!r} must be a unit "
                        f"(single-term monomial) to support exponent {e}"
                    )
                factor = factor * image ** e
            for e2, c2 in factor.terms:
                prior = result.get(e2)
                result[e2] = c2 if prior is None else prior + c2
        return LaurentPoly._from_terms(self.variables, result)

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a rational point.

        The validating front of :meth:`_evaluate_parts`: it reads each value's
        numerator and denominator once, by variable position.  A value that
        is not an int or a Fraction is a ScalarError, zero assigned to a
        negatively occurring variable an EvaluationError, and a name that is
        not a variable, or a used variable with no value, an
        UnknownVariableError.
        """
        parts: list[tuple[int, int] | None] = [None] * len(self.variables)
        for name, value in point.items():
            idx = self._index(name)
            value = exact_scalar(value, "value of variable", name)
            parts[idx] = (value.numerator, value.denominator)
        for idx, part in enumerate(parts):
            if part is None and any(exps[idx] for exps, _ in self.terms):
                raise UnknownVariableError(
                    f"no value assigned to variable {self.variables[idx]!r}"
                )
        return Fraction(*self._evaluate_parts(parts))

    def _evaluate_parts(self, parts: Sequence[tuple[int, int] | None]) -> tuple[int, int]:
        """The value as (numerator, positive denominator), not reduced.

        Trusted kernel: ``parts[i]`` is the (numerator, denominator) of the
        value of variable i, and may be None only where no term has a
        nonzero exponent.  A term is an integer numerator over an integer
        denominator (a negative exponent swaps the value's two parts); the
        terms are summed over a common denominator.  Zero under a negative
        exponent is an EvaluationError.
        """
        total, den = 0, 1
        for exps, coeff in self.terms:
            n, d = coeff.numerator, coeff.denominator
            for idx, e in enumerate(exps):
                if not e:
                    continue
                vn, vd = parts[idx]  # type: ignore[misc]
                if e > 0:
                    n *= vn ** e
                    d *= vd ** e
                elif vn:
                    n *= vd ** -e
                    d *= vn ** -e
                else:
                    raise EvaluationError(
                        f"zero assigned to {self.variables[idx]!r}, which occurs "
                        f"with negative exponent {e}"
                    )
            g = math.gcd(den, d)
            total = total * (d // g) + n * (den // g)
            den = den // g * d
        return (-total, -den) if den < 0 else (total, den)

    # ------------------------------------------------------- variable surgery

    def extend_variables(self, variables: Iterable[str]) -> "LaurentPoly":
        """Re-express over a larger variable list (superset, any order)."""
        vs = tuple(variables)
        positions = []
        for v in self.variables:
            if v not in vs:
                raise UnknownVariableError(f"target variable list is missing {v!r}")
            positions.append(vs.index(v))
        out: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms:
            e = [0] * len(vs)
            for pos, exp in zip(positions, exps):
                e[pos] = exp
            out[tuple(e)] = coeff
        return LaurentPoly._from_terms(vs, out)

    # -------------------------------------------------------------- rendering

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        chunks: list[str] = []
        for exps, coeff in self.terms:
            factors = []
            for v, e in zip(self.variables, exps):
                if e == 0:
                    continue
                factors.append(v if e == 1 else f"{v}**{scalar_text(e)}")
            if not factors:
                body = scalar_text(abs(coeff))
            else:
                mag = abs(coeff)
                if mag == 1:
                    body = "*".join(factors)
                else:
                    body = "*".join([scalar_text(mag)] + factors)
            sign = "-" if coeff < 0 else "+"
            chunks.append((sign, body))  # type: ignore[arg-type]
        first_sign, first_body = chunks[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)})"
