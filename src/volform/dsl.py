"""Document language: one-file descriptions of a chart, named objects, and
check directives.

Grammar sketch (the full reference lives in the README):

    chart { vars x, y, z; invert x, y; rel x + y + x*y*z - 1 solve z; }
    volume w = (x**-1*y**-1) dx^dy;
    field dz = (1 + x*z) d/dx - (1 + y*z) d/dy;
    poly pz = z;
    action swap_xy: x -> y, y -> x order 2;
    check potential(pz, dz, w);

``^`` is reserved for the wedge in form literals; polynomial powers use
``**``.  ``d/dx`` tokens denote coordinate derivations, ``dx`` inside a form
literal denotes the differential of the coordinate ``x``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

from .algebra import LaurentPoly
from .calculus import (
    DiffForm,
    diff_form,
    exterior_derivative,
    scalar_form,
    vector_field,
    volume_form,
    wedge,
)
from .checks import arity_error, render_form
from .errors import ParseError, SemanticError, VolformError
from .groups import group_presentation
from .model import CheckDirective, Model
from .variety import Chart, action, chart

T = TypeVar("T")

KEYWORDS = {
    "chart", "vars", "invert", "rel", "solve", "volume", "field", "form",
    "poly", "action", "order", "group", "ambient", "basis", "element",
    "check",
}


class Token(NamedTuple):
    kind: str  # IDENT, INT, DERIV, OP, EOF
    text: str
    line: int
    col: int


# the token kinds a parser rule can ask for; any other wanted text names an
# operator or a keyword
_KINDS = ("IDENT", "INT", "DERIV", "EOF")
# Alternatives are tried in order at each position.  A word (IDENT, or the
# coordinate of a derivation d/d<word>) continues with letters, digits and
# "_"; [^\W\d] also admits numerals such as "²", so tokenize checks that it
# starts with a letter or "_".  Integers are decimal digits, which int() reads.
_TOKEN = re.compile(r"""
    (?P<NEWLINE>\n)
  | (?P<SPACE>[ \t\r]+)
  | (?P<COMMENT>\#[^\n]*)
  | d/d(?P<DERIV>[^\W\d]\w*)
  | (?P<IDENT>[^\W\d]\w*)
  | (?P<INT>\d+)
  | (?P<OP>\*\*|->|[{}()\[\];,:*+\-/^=])
  | (?P<BAD>.)
""", re.VERBOSE)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start, pos, end = 1, 0, 0, 0
    while m := _TOKEN.match(text, pos):
        kind = m.lastgroup
        value, pos = m.group(kind), m.end()
        if kind in ("IDENT", "DERIV") and not (value[0].isalpha() or value[0] == "_"):
            if kind == "DERIV":  # "d/d²" is the word "d", then "/"
                kind, value, pos = "IDENT", "d", m.start() + 1
            else:
                kind = "BAD"
        if kind == "BAD":
            raise ParseError(f"unexpected character {value[0]!r}",
                             line, m.start() - line_start + 1)
        if kind == "INT":  # int() fails past Python's int-to-string digit limit
            try:
                int(value)
            except ValueError:
                raise ParseError(f"integer literal of {len(value)} digits is too long",
                                 line, m.start() - line_start + 1) from None
        if kind == "NEWLINE":
            line, line_start = line + 1, pos
        elif kind != "SPACE" and kind != "COMMENT":
            tokens.append(Token(kind, value, line, m.start() - line_start + 1))
        # a trailing comment does not move the end-of-input position
        end = m.start() if kind == "COMMENT" else pos
    tokens.append(Token("EOF", "", line, end - line_start + 1))
    return tokens


def parse_polynomial(text: str, variables: Iterable[str]) -> LaurentPoly:
    """Standalone polynomial parser over a fixed variable list."""
    parser = _Parser(tokenize(text), source="<polynomial>")
    value = parser._expr(tuple(variables))
    parser.expect("EOF", "end of polynomial")
    return value


class _Parser:
    def __init__(self, tokens: list[Token], source: str):
        self.tokens = tokens
        self.pos = 0
        self.model = Model(name=source)
        # d<c> per coordinate c of the document's one chart, built once
        self.differentials: dict[str, DiffForm] = {}

    # ------------------------------------------------------------ plumbing

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, want: str) -> bool:
        """Is the next token of kind ``want``, or the operator or keyword ``want``?"""
        tok = self.tokens[self.pos]
        if want in _KINDS:
            return tok.kind == want
        return tok.text == want and (tok.kind == "OP" or tok.kind == "IDENT")

    def accept(self, want: str) -> Token | None:
        return self.advance() if self.at(want) else None

    def expect(self, want: str, what: str | None = None) -> Token:
        if self.at(want):
            return self.advance()
        raise self._expected(what or repr(want))

    def _expected(self, what: str) -> ParseError:
        tok = self.peek()
        found = f"d/d{tok.text}" if tok.kind == "DERIV" else tok.text or "end of input"
        return ParseError(f"expected {what}, found {found!r}", tok.line, tok.col)

    # ------------------------------------------------------- shared rules

    def _commas(self, item: Callable[[], T]) -> list[T]:
        """``item ("," item)*``"""
        items = [item()]
        while self.accept(","):
            items.append(item())
        return items

    def _signed_terms(self, term: Callable[[], T]) -> Iterator[tuple[int, T]]:
        """``"-"? term (("+" | "-") term)*`` as (sign, term) pairs; each term
        is parsed when its pair is read, so errors keep document order."""
        sign = -1 if self.accept("-") else 1
        while True:
            yield sign, term()
            if self.accept("+"):
                sign = 1
            elif self.accept("-"):
                sign = -1
            else:
                return

    def _head(self, what: str, separator: str = "=") -> str:
        """``keyword name separator`` of a statement that defines the new ``name``."""
        self.advance()
        tok = self.expect("IDENT", f"{what} name")
        if tok.text in KEYWORDS:
            raise SemanticError(f"{tok.text!r} is a reserved word", tok.line, tok.col)
        if self.model.lookup(tok.text) is not None:
            raise SemanticError(f"name {tok.text!r} is already defined", tok.line, tok.col)
        self.expect(separator)
        return tok.text

    def _coordinate(self, coordinates: Iterable[str], kind: str = "IDENT",
                    what: str = "coordinate name") -> str:
        """A coordinate name, or with ``kind`` DERIV a derivation d/d<coordinate>."""
        tok = self.expect(kind, what)
        if tok.text not in coordinates:
            where = " in derivation" if kind == "DERIV" else ""
            raise SemanticError(f"unknown coordinate {tok.text!r}{where}", tok.line, tok.col)
        return tok.text

    # ----------------------------------------------------------- document

    def parse_document(self) -> Model:
        if self.at("EOF"):
            raise ParseError("empty document", 1, 1)
        while not self.at("EOF"):
            tok = self.peek()
            if tok.kind != "IDENT":
                raise self._expected("a statement")
            # statement keyword k is parsed by the method _k_stmt
            statement = getattr(self, f"_{tok.text}_stmt", None)
            if statement is None:
                raise ParseError(f"unknown statement {tok.text!r}", tok.line, tok.col)
            try:
                statement()
            except (ParseError, SemanticError):
                raise
            except VolformError as exc:
                # construction errors (chart, field, volume, ...) point at the statement
                raise SemanticError(str(exc), tok.line, tok.col) from exc
        return self.model

    def _require_chart(self) -> Chart:
        """The chart, which the statement starting at the next token needs."""
        if self.model.chart is None:
            tok = self.peek()
            raise SemanticError("this statement needs a chart block first",
                                tok.line, tok.col)
        return self.model.chart

    # ------------------------------------------------------------- chart

    def _chart_stmt(self):
        opener = self.advance()
        if self.model.chart is not None:
            raise SemanticError("only one chart block per document",
                                opener.line, opener.col)
        self.expect("{")
        self.expect("vars")
        invertible: set[str] = set()

        def var() -> str:
            name = self.expect("IDENT", "coordinate name").text
            if self.accept("*"):
                invertible.add(name)
            return name

        vs = tuple(self._commas(var))
        self.expect(";")
        if self.accept("invert"):
            invertible.update(self._commas(lambda: self._coordinate(vs)))
            self.expect(";")
        relations: list[tuple[LaurentPoly, str]] = []
        while rel_tok := self.accept("rel"):
            poly = self._expr(vs)
            if not self.accept("solve"):
                raise SemanticError("triangular presentation required: "
                                    "every rel needs a solve clause",
                                    rel_tok.line, rel_tok.col)
            relations.append((poly, self._coordinate(vs, what="solvable coordinate")))
            self.expect(";")
        self.expect("}")
        self.model.chart = chart(vs, invertible, relations)

    # ------------------------------------------------------- expressions

    def _expr(self, variables: tuple[str, ...]) -> LaurentPoly:
        value = self._term(variables)
        while True:
            if self.accept("+"):
                value = value + self._term(variables)
            elif self.accept("-"):
                value = value - self._term(variables)
            else:
                return value

    def _term(self, variables) -> LaurentPoly:
        value = self._factor(variables)
        while True:
            if self.accept("*"):
                value = value * self._factor(variables)
            elif self.accept("/"):
                tok = self.peek()
                divisor = self._factor(variables)
                try:
                    value = value / divisor
                except VolformError as exc:
                    raise SemanticError(
                        f"division by non-unit {divisor}: {exc}", tok.line, tok.col
                    ) from exc
            else:
                return value

    def _factor(self, variables) -> LaurentPoly:
        if self.accept("-"):
            return -self._factor(variables)
        return self._power(variables)

    def _power(self, variables) -> LaurentPoly:
        base = self._atom(variables)
        if not self.accept("**"):
            return base
        exponent = self._exponent()
        try:
            return base ** exponent
        except VolformError as exc:
            tok = self.peek()
            raise SemanticError(str(exc), tok.line, tok.col) from exc

    def _exponent(self) -> int:
        """``"-"? INT``, optionally in parentheses."""
        parenthesized = self.accept("(")
        sign = -1 if self.accept("-") else 1
        value = sign * int(self.expect("INT", "integer exponent").text)
        if parenthesized:
            self.expect(")")
        return value

    def _atom(self, variables) -> LaurentPoly:
        tok = self.peek()
        if self.accept("INT"):
            return LaurentPoly.constant(variables, int(tok.text))
        if self.accept("IDENT"):
            if tok.text in variables:
                return LaurentPoly.variable(variables, tok.text)
            if tok.text in self.model.polys:
                return self.model.polys[tok.text]
            raise SemanticError(f"unknown identifier {tok.text!r}", tok.line, tok.col)
        if self.accept("("):
            value = self._expr(variables)
            self.expect(")")
            return value
        raise self._expected("a polynomial atom")

    # ------------------------------------------------------------ field

    def _field_stmt(self):
        on = self._require_chart()
        name = self._head("field")
        coeffs: dict[str, LaurentPoly] = {}
        for sign, (coeff, target) in self._signed_terms(lambda: self._field_term(on)):
            entry = coeff if sign > 0 else -coeff
            coeffs[target] = coeffs.get(target, LaurentPoly.zero(on.coordinates)) + entry
        self.expect(";")
        self.model.fields[name] = vector_field(on, coeffs)

    def _field_term(self, on: Chart) -> tuple[LaurentPoly, str]:
        """``term? d/d<coordinate>``: the coefficient and the coordinate."""
        vs = on.coordinates
        coeff = LaurentPoly.one(vs) if self.at("DERIV") else self._term(vs)
        return coeff, self._coordinate(vs, "DERIV", "a derivation token d/d<coordinate>")

    # ------------------------------------------------------------- forms

    def _form_stmt(self):
        on = self._require_chart()
        name = self._head("form")
        value = self._form_literal(on)
        self.expect(";")
        self.model.forms[name] = value

    def _volume_stmt(self):
        opener = self.peek()
        if self.model.volume is not None:
            raise SemanticError("only one volume block per document",
                                opener.line, opener.col)
        on = self._require_chart()
        name = self._head("volume")
        value = self._form_literal(on)
        self.expect(";")
        if len(value.coefficients) != 1 or value.degree != on.dimension:
            raise SemanticError("volume literal must be a single top-degree term",
                                opener.line, opener.col)
        self.model.volume = volume_form(on, value.coefficients[0][1])
        self.model.volume_name = name

    def _form_literal(self, on: Chart) -> DiffForm:
        total = diff_form(on, 0, ())
        for sign, term in self._signed_terms(lambda: self._form_term(on)):
            total = total + term if sign > 0 else total - term
        return total

    def _form_term(self, on: Chart) -> DiffForm:
        tok = self.peek()
        if self.at("INT") or self.at("("):
            coeff = self._atom(on.coordinates)
        elif self._at_differential(on):
            coeff = LaurentPoly.one(on.coordinates)
        else:
            raise ParseError(
                "expected a coefficient or a differential d<coordinate> in the form literal",
                tok.line, tok.col,
            )
        result = scalar_form(on, coeff)
        if self._at_differential(on):
            result = wedge(result, self._differential(on))
            while self.accept("^"):
                result = wedge(result, self._differential(on))
        return result

    def _at_differential(self, on: Chart) -> bool:
        tok = self.peek()
        return tok.kind == "IDENT" and tok.text.startswith("d") and tok.text[1:] in on.coordinates

    def _differential(self, on: Chart) -> DiffForm:
        tok = self.peek()
        if not self._at_differential(on):
            raise ParseError("expected a differential d<coordinate> in the form literal",
                             tok.line, tok.col)
        self.advance()
        name = tok.text[1:]
        if name not in self.differentials:
            self.differentials[name] = exterior_derivative(scalar_form(on, on.generator(name)))
        return self.differentials[name]

    # -------------------------------------------------------- poly/action

    def _poly_stmt(self):
        on = self._require_chart()
        name = self._head("polynomial")
        value = self._expr(on.coordinates)
        self.expect(";")
        self.model.polys[name] = on.validate_poly(value)

    def _action_stmt(self):
        on = self._require_chart()
        name = self._head("action", ":")

        def image() -> tuple[str, LaurentPoly]:
            coord = self._coordinate(on.coordinates)
            self.expect("->")
            return coord, self._expr(on.coordinates)

        images = dict(self._commas(image))
        self.expect("order")
        order = int(self.expect("INT", "action order").text)
        self.expect(";")
        self.model.actions[name] = action(on, name, images, order)

    # -------------------------------------------------------------- group

    def _group_stmt(self):
        name = self._head("group", "{")
        self.expect("ambient")
        size = int(self.expect("INT", "ambient matrix size").text)
        self.expect(";")
        self.expect("basis")
        basis = self._commas(self._matrix)
        self.expect(";")
        elements: list[tuple[str, list[list[Fraction]]]] = []
        while self.accept("element"):
            el_name = self.expect("IDENT", "element name").text
            self.expect("=")
            matrix = self._matrix()
            self.expect(";")
            elements.append((el_name, matrix))
        self.expect("}")
        self.model.groups[name] = group_presentation(size, basis, elements)

    def _matrix(self) -> list[list[Fraction]]:
        return self._brackets(lambda: self._brackets(self._number))

    def _brackets(self, item: Callable[[], T]) -> list[T]:
        self.expect("[")
        items = self._commas(item)
        self.expect("]")
        return items

    def _number(self) -> Fraction:
        sign = -1 if self.accept("-") else 1
        value = Fraction(int(self.expect("INT", "a number").text))
        if self.accept("/"):
            den = self.expect("INT", "a denominator")
            if int(den.text) == 0:
                raise SemanticError("zero denominator", den.line, den.col)
            value = value / int(den.text)
        return sign * value

    # -------------------------------------------------------------- check

    def _check_stmt(self):
        self.advance()
        kind_tok = self.expect("IDENT", "check kind")
        args = self._args()
        problem = arity_error(kind_tok.text, len(args))
        if problem:
            raise SemanticError(problem, kind_tok.line, kind_tok.col)
        self.expect(";")
        self.model.checks = self.model.checks + (CheckDirective(kind_tok.text, tuple(args)),)

    def _args(self) -> list:
        """``"(" (arg ("," arg)*)? ")"``: a check's arguments or a tuple argument."""
        self.expect("(")
        args = [] if self.at(")") else self._commas(self._check_arg)
        self.expect(")")
        return args

    def _check_arg(self):
        tok = self.peek()
        if self.accept("IDENT"):
            return tok.text
        if self.at("INT") or self.at("-"):
            value = self._number()
            return int(value) if value.denominator == 1 else value
        if self.at("("):
            return tuple(self._args())
        raise self._expected("a check argument")


def parse(text: str, source: str = "<document>") -> Model:
    """Parse a document into a Model; ParseError/SemanticError carry positions."""
    return _Parser(tokenize(text), source).parse_document()


# -------------------------------------------------------------- printing


def format_document(model: Model) -> str:
    """Render a model back to document text; parse(format_document(m)) == m."""
    lines: list[str] = []
    on = model.chart
    if on is not None:
        lines.append("chart {")
        lines.append(f"  vars {', '.join(on.coordinates)};")
        if on.invertible:
            ordered = [c for c in on.coordinates if c in on.invertible]
            lines.append(f"  invert {', '.join(ordered)};")
        for rel in on.relations:
            lines.append(f"  rel {rel.poly} solve {rel.solves};")
        lines.append("}")
    if model.volume is not None:
        key = "^".join(f"d{c}" for c in on.free_coordinates)
        lines.append(
            f"volume {model.volume_name} = ({model.volume.unit_coefficient()}) {key};"
        )
    for name, value in model.polys.items():
        lines.append(f"poly {name} = {value};")
    for name, field in model.fields.items():
        lines.append(f"field {name} = {_format_field(field)};")
    for name, form in model.forms.items():
        lines.append(f"form {name} = {_format_form(form)};")
    for name, act in model.actions.items():
        images = [
            f"{c} -> {img}"
            for c, img in act.images
            if img != LaurentPoly.variable(img.variables, c)
        ] or [f"{act.images[0][0]} -> {act.images[0][1]}"]
        lines.append(f"action {name}: {', '.join(images)} order {act.order};")
    for name, group in model.groups.items():
        lines.append(f"group {name} {{")
        lines.append(f"  ambient {group.size};")
        basis = ", ".join(_format_matrix(b) for b in group.lie_basis)
        lines.append(f"  basis {basis};")
        for el_name, el in group.test_elements:
            lines.append(f"  element {el_name} = {_format_matrix(el)};")
        lines.append("}")
    for directive in model.checks:
        lines.append(f"check {directive.label()};")
    return "\n".join(lines) + "\n"


def _format_field(field) -> str:
    chunks = [
        f"({coeff}) d/d{name}"
        for name, coeff in field.coefficients
        if not coeff.is_zero
    ]
    if not chunks:
        return f"(0) d/d{field.chart.coordinates[0]}"
    return " + ".join(chunks)


def _format_form(form) -> str:
    if form.coefficients:
        return render_form(form)
    # the zero form keeps its degree, so that it parses back as one
    key = form.chart.free_coordinates[: form.degree]
    return f"(0) {'^'.join(f'd{c}' for c in key)}" if key else "(0)"


def _format_matrix(matrix) -> str:
    return "[" + ", ".join(
        "[" + ", ".join(str(x) for x in row) + "]" for row in matrix
    ) + "]"
