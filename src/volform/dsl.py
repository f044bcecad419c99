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

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .algebra import LaurentPoly
from .calculus import (
    DiffForm,
    exterior_derivative,
    scalar_form,
    vector_field,
    volume_form,
    wedge,
    zero_form,
)
from .checks import arity_error
from .errors import ParseError, SemanticError, VolformError
from .groups import group_presentation
from .model import CheckDirective, Model
from .variety import Chart, action, chart

Document = Model

KEYWORDS = {
    "chart", "vars", "invert", "rel", "solve", "volume", "field", "form",
    "poly", "action", "order", "group", "ambient", "basis", "element",
    "check",
}


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT, INT, DERIV, OP, EOF
    text: str
    line: int
    col: int


_PUNCT = ("**", "->", "{", "}", "(", ")", "[", "]", ";", ",", ":", "*",
          "+", "-", "/", "^", "=")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "d" and text.startswith("d/d", i) and i + 3 < n and (
            text[i + 3].isalpha() or text[i + 3] == "_"
        ):
            j = i + 3
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("DERIV", text[i + 3:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for punct in _PUNCT:
            if text.startswith(punct, i):
                tokens.append(Token("OP", punct, line, col))
                i += len(punct)
                col += len(punct)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


def parse_polynomial(text: str, variables: Iterable[str]) -> LaurentPoly:
    """Standalone polynomial parser over a fixed variable list."""
    tokens = tokenize(text)
    parser = _Parser(tokens, source="<polynomial>")
    vs = tuple(variables)
    value = parser._expr(vs)
    parser._expect_kind("EOF", "end of polynomial")
    return value


class _Parser:
    def __init__(self, tokens: list[Token], source: str):
        self.tokens = tokens
        self.pos = 0
        self.source = source
        self.model = Model(name=source)

    # ------------------------------------------------------------ plumbing

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at_op(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.text == text

    def accept_op(self, text: str) -> bool:
        if self.at_op(text):
            self.advance()
            return True
        return False

    def expect_op(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind == "OP" and tok.text == text:
            return self.advance()
        raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                         tok.line, tok.col)

    def _expect_kind(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> Token:
        return self._expect_kind("IDENT", what)

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text == word:
            return self.advance()
        raise ParseError(f"expected {word!r}, found {tok.text or 'end of input'!r}",
                         tok.line, tok.col)

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "IDENT" and tok.text == word

    # ----------------------------------------------------------- document

    def parse_document(self) -> Model:
        if self.peek().kind == "EOF":
            raise ParseError("empty document", 1, 1)
        while self.peek().kind != "EOF":
            tok = self.peek()
            if tok.kind != "IDENT":
                raise ParseError(f"expected a statement, found {tok.text!r}",
                                 tok.line, tok.col)
            handler = {
                "chart": self._chart_stmt,
                "volume": self._volume_stmt,
                "field": self._field_stmt,
                "form": self._form_stmt,
                "poly": self._poly_stmt,
                "action": self._action_stmt,
                "group": self._group_stmt,
                "check": self._check_stmt,
            }.get(tok.text)
            if handler is None:
                raise ParseError(f"unknown statement {tok.text!r}", tok.line, tok.col)
            try:
                handler()
            except (ParseError, SemanticError):
                raise
            except VolformError as exc:
                # construction errors (chart, field, volume, ...) point at the statement
                raise SemanticError(str(exc), tok.line, tok.col) from exc
        return self.model

    def _require_chart(self, tok: Token) -> Chart:
        if self.model.chart is None:
            raise SemanticError("this statement needs a chart block first",
                                tok.line, tok.col)
        return self.model.chart

    def _define(self, name_tok: Token):
        name = name_tok.text
        if name in KEYWORDS:
            raise SemanticError(f"{name!r} is a reserved word", name_tok.line, name_tok.col)
        if self.model.lookup(name) is not None:
            raise SemanticError(f"name {name!r} is already defined",
                                name_tok.line, name_tok.col)

    # ------------------------------------------------------------- chart

    def _chart_stmt(self):
        opener = self.advance()
        if self.model.chart is not None:
            raise SemanticError("only one chart block per document",
                                opener.line, opener.col)
        self.expect_op("{")
        self.expect_keyword("vars")
        coords: list[str] = []
        invertible: set[str] = set()
        while True:
            tok = self.expect_ident("coordinate name")
            coords.append(tok.text)
            if self.accept_op("*"):
                invertible.add(tok.text)
            if not self.accept_op(","):
                break
        self.expect_op(";")
        if self.at_keyword("invert"):
            self.advance()
            while True:
                tok = self.expect_ident("coordinate name")
                if tok.text not in coords:
                    raise SemanticError(f"unknown coordinate {tok.text!r}",
                                        tok.line, tok.col)
                invertible.add(tok.text)
                if not self.accept_op(","):
                    break
            self.expect_op(";")
        relations: list[tuple[LaurentPoly, str]] = []
        vs = tuple(coords)
        while self.at_keyword("rel"):
            rel_tok = self.advance()
            poly = self._expr(vs)
            if not self.at_keyword("solve"):
                raise SemanticError("triangular presentation required: "
                                    "every rel needs a solve clause",
                                    rel_tok.line, rel_tok.col)
            self.advance()
            solve_tok = self.expect_ident("solvable coordinate")
            if solve_tok.text not in coords:
                raise SemanticError(f"unknown coordinate {solve_tok.text!r}",
                                    solve_tok.line, solve_tok.col)
            relations.append((poly, solve_tok.text))
            self.expect_op(";")
        self.expect_op("}")
        self.model.chart = chart(vs, invertible, relations)

    # ------------------------------------------------------- expressions

    def _resolve_atom(self, tok: Token, variables: tuple[str, ...]) -> LaurentPoly:
        if tok.text in variables:
            return LaurentPoly.variable(variables, tok.text)
        if tok.text in self.model.polys:
            return self.model.polys[tok.text]
        raise SemanticError(f"unknown identifier {tok.text!r}", tok.line, tok.col)

    def _expr(self, variables: tuple[str, ...]) -> LaurentPoly:
        value = self._term(variables)
        while True:
            if self.accept_op("+"):
                value = value + self._term(variables)
            elif self.accept_op("-"):
                value = value - self._term(variables)
            else:
                return value

    def _term(self, variables) -> LaurentPoly:
        value = self._factor(variables)
        while True:
            if self.accept_op("*"):
                value = value * self._factor(variables)
            elif self.accept_op("/"):
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
        if self.accept_op("-"):
            return -self._factor(variables)
        return self._power(variables)

    def _power(self, variables) -> LaurentPoly:
        base = self._atom(variables)
        if self.accept_op("**"):
            exponent = self._exponent()
            try:
                return base ** exponent
            except VolformError as exc:
                tok = self.peek()
                raise SemanticError(str(exc), tok.line, tok.col) from exc
        return base

    def _exponent(self) -> int:
        if self.accept_op("("):
            sign = -1 if self.accept_op("-") else 1
            tok = self._expect_kind("INT", "integer exponent")
            self.expect_op(")")
            return sign * int(tok.text)
        sign = -1 if self.accept_op("-") else 1
        tok = self._expect_kind("INT", "integer exponent")
        return sign * int(tok.text)

    def _atom(self, variables) -> LaurentPoly:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            return LaurentPoly.constant(variables, int(tok.text))
        if tok.kind == "IDENT":
            self.advance()
            return self._resolve_atom(tok, variables)
        if self.accept_op("("):
            value = self._expr(variables)
            self.expect_op(")")
            return value
        raise ParseError(f"expected a polynomial atom, found {tok.text or 'end of input'!r}",
                         tok.line, tok.col)

    # ------------------------------------------------------------ field

    def _field_stmt(self):
        opener = self.advance()
        on = self._require_chart(opener)
        name_tok = self.expect_ident("field name")
        self._define(name_tok)
        self.expect_op("=")
        coeffs: dict[str, LaurentPoly] = {}
        sign = -1 if self.accept_op("-") else 1
        while True:
            coeff, coord_tok = self._field_term(on)
            target = coord_tok.text
            if target not in on.coordinates:
                raise SemanticError(f"unknown coordinate {target!r} in derivation",
                                    coord_tok.line, coord_tok.col)
            entry = coeff if sign > 0 else -coeff
            coeffs[target] = coeffs.get(target, LaurentPoly.zero(on.coordinates)) + entry
            if self.accept_op("+"):
                sign = 1
            elif self.accept_op("-"):
                sign = -1
            else:
                break
        self.expect_op(";")
        self.model.fields[name_tok.text] = vector_field(on, coeffs)

    def _field_term(self, on: Chart) -> tuple[LaurentPoly, Token]:
        if self.peek().kind == "DERIV":
            tok = self.advance()
            return LaurentPoly.one(on.coordinates), tok
        coeff = self._term(on.coordinates)
        tok = self._expect_kind("DERIV", "a derivation token d/d<coordinate>")
        return coeff, tok

    # ------------------------------------------------------------- forms

    def _form_stmt(self):
        opener = self.advance()
        on = self._require_chart(opener)
        name_tok = self.expect_ident("form name")
        self._define(name_tok)
        self.expect_op("=")
        value = self._form_literal(on)
        self.expect_op(";")
        self.model.forms[name_tok.text] = value

    def _volume_stmt(self):
        opener = self.advance()
        on = self._require_chart(opener)
        if self.model.volume is not None:
            raise SemanticError("only one volume block per document",
                                opener.line, opener.col)
        name_tok = self.expect_ident("volume name")
        self._define(name_tok)
        self.expect_op("=")
        value = self._form_literal(on)
        self.expect_op(";")
        if len(value.coefficients) != 1 or value.degree != on.dimension:
            raise SemanticError("volume literal must be a single top-degree term",
                                opener.line, opener.col)
        self.model.volume = volume_form(on, value.coefficients[0][1])
        self.model.volume_name = name_tok.text

    def _form_literal(self, on: Chart) -> DiffForm:
        total = zero_form(on)
        sign = -1 if self.accept_op("-") else 1
        while True:
            term = self._form_term(on)
            total = total + term if sign > 0 else total - term
            if self.accept_op("+"):
                sign = 1
            elif self.accept_op("-"):
                sign = -1
            else:
                break
        return total

    def _form_term(self, on: Chart) -> DiffForm:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            coeff = LaurentPoly.constant(on.coordinates, int(tok.text))
        elif self.accept_op("("):
            coeff = self._expr(on.coordinates)
            self.expect_op(")")
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
            while self.accept_op("^"):
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
        return exterior_derivative(scalar_form(on, on.generator(tok.text[1:])))

    # -------------------------------------------------------- poly/action

    def _poly_stmt(self):
        opener = self.advance()
        on = self._require_chart(opener)
        name_tok = self.expect_ident("polynomial name")
        self._define(name_tok)
        self.expect_op("=")
        value = self._expr(on.coordinates)
        self.expect_op(";")
        self.model.polys[name_tok.text] = on.validate_poly(value)

    def _action_stmt(self):
        opener = self.advance()
        on = self._require_chart(opener)
        name_tok = self.expect_ident("action name")
        self._define(name_tok)
        self.expect_op(":")
        images: dict[str, LaurentPoly] = {}
        while True:
            coord_tok = self.expect_ident("coordinate name")
            if coord_tok.text not in on.coordinates:
                raise SemanticError(f"unknown coordinate {coord_tok.text!r}",
                                    coord_tok.line, coord_tok.col)
            self.expect_op("->")
            images[coord_tok.text] = self._expr(on.coordinates)
            if not self.accept_op(","):
                break
        self.expect_keyword("order")
        order_tok = self._expect_kind("INT", "action order")
        self.expect_op(";")
        self.model.actions[name_tok.text] = action(
            on, name_tok.text, images, int(order_tok.text)
        )

    # -------------------------------------------------------------- group

    def _group_stmt(self):
        self.advance()
        name_tok = self.expect_ident("group name")
        self._define(name_tok)
        self.expect_op("{")
        self.expect_keyword("ambient")
        size_tok = self._expect_kind("INT", "ambient matrix size")
        self.expect_op(";")
        self.expect_keyword("basis")
        basis = [self._matrix()]
        while self.accept_op(","):
            basis.append(self._matrix())
        self.expect_op(";")
        elements: list[tuple[str, list[list[Fraction]]]] = []
        while self.at_keyword("element"):
            self.advance()
            el_tok = self.expect_ident("element name")
            self.expect_op("=")
            matrix = self._matrix()
            self.expect_op(";")
            elements.append((el_tok.text, matrix))
        self.expect_op("}")
        self.model.groups[name_tok.text] = group_presentation(
            int(size_tok.text), basis, elements
        )

    def _matrix(self) -> list[list[Fraction]]:
        self.expect_op("[")
        rows = [self._matrix_row()]
        while self.accept_op(","):
            rows.append(self._matrix_row())
        self.expect_op("]")
        return rows

    def _matrix_row(self) -> list[Fraction]:
        self.expect_op("[")
        row = [self._number()]
        while self.accept_op(","):
            row.append(self._number())
        self.expect_op("]")
        return row

    def _number(self) -> Fraction:
        sign = -1 if self.accept_op("-") else 1
        tok = self._expect_kind("INT", "a number")
        value = Fraction(int(tok.text))
        if self.accept_op("/"):
            den = self._expect_kind("INT", "a denominator")
            if int(den.text) == 0:
                raise SemanticError("zero denominator", den.line, den.col)
            value = value / int(den.text)
        return sign * value

    # -------------------------------------------------------------- check

    def _check_stmt(self):
        self.advance()
        kind_tok = self.expect_ident("check kind")
        self.expect_op("(")
        args: list = []
        if not self.at_op(")"):
            args.append(self._check_arg())
            while self.accept_op(","):
                args.append(self._check_arg())
        self.expect_op(")")
        problem = arity_error(kind_tok.text, len(args))
        if problem:
            raise SemanticError(problem, kind_tok.line, kind_tok.col)
        self.expect_op(";")
        self.model.checks = self.model.checks + (CheckDirective(kind_tok.text, tuple(args)),)

    def _check_arg(self):
        tok = self.peek()
        if tok.kind == "IDENT":
            self.advance()
            return tok.text
        if tok.kind == "INT" or (tok.kind == "OP" and tok.text == "-"):
            value = self._number()
            return int(value) if value.denominator == 1 else value
        if self.accept_op("("):
            inner: list = []
            if not self.at_op(")"):
                inner.append(self._check_arg())
                while self.accept_op(","):
                    inner.append(self._check_arg())
            self.expect_op(")")
            return tuple(inner)
        raise ParseError(f"expected a check argument, found {tok.text or 'end of input'!r}",
                         tok.line, tok.col)


def parse(text: str, source: str = "<document>") -> Document:
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
    if form.is_zero:
        key = "^".join(f"d{c}" for c in form.chart.free_coordinates[: form.degree])
        return f"(0) {key}"
    chunks = []
    for key, coeff in form.coefficients:
        wedge_text = "^".join(f"d{c}" for c in key)
        chunks.append(f"({coeff}) {wedge_text}")
    return " + ".join(chunks)


def _format_matrix(matrix) -> str:
    return "[" + ", ".join(
        "[" + ", ".join(str(x) for x in row) + "]" for row in matrix
    ) + "]"
