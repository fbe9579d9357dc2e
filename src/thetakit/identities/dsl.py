"""Textual DSL for theta-function identities.

Grammar (whitespace-insensitive; a unicode minus works anywhere "-" does):

    identity := expr "=" expr
    expr     := term (("+"|"-") term)*
    term     := (rational "*")? factor ("*" factor)*  |  rational
    factor   := "t" DIGIT "(" linform ("|" ("tau"|"2tau"))? ")"
              | "dt1(0)"  |  "pi"  |  "gauss4" "(" "0" ("|" slot)? ")"
    linform  := ("-")? atom (("+"|"-") atom)*
    atom     := INT var | var | rational "tau" | "tau" | rational
    rational := ("-")? INT ("/" INT)?

"t1".."t4" are the four theta functions and the default modular slot is
"tau"; "2tau" selects the doubled modular parameter.  "dt1(0)" is the
u-derivative of t1 at zero, "pi" the circle constant, and "gauss4(0)"
the alternating-product form of t4(0).  Variable coefficients must be
integers; the constant part and the tau coefficient may be rationals
(written e.g. "1/2" and "1/2tau").

Exact rationals are kept throughout, so printing an identity and
re-parsing it reproduces the same structure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

__all__ = [
    "ParseError",
    "LinearForm",
    "ThetaFactor",
    "Term",
    "Identity",
    "DTHETA1",
    "PI_CONST",
    "GAUSS4",
    "parse_identity",
    "format_linear_form",
    "format_factor",
    "format_identity",
    "structurally_equal",
]

# special factor kinds (ThetaFactor.index values besides 1..4)
DTHETA1 = "dt1"
PI_CONST = "pi"
GAUSS4 = "gauss4"


class ParseError(ValueError):
    """Syntax error with the offending position in the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.reason = message
        self.position = position


@dataclass(frozen=True)
class LinearForm:
    """Argument of a theta factor: sum of c_v*v + const + tau_coeff*tau.

    Variable coefficients are integers; const and tau_coeff are exact
    rationals.  var_coeffs is kept sorted by name with zeros dropped,
    so equality is structural.
    """

    var_coeffs: tuple[tuple[str, int], ...] = ()
    const: Fraction = Fraction(0)
    tau_coeff: Fraction = Fraction(0)

    @staticmethod
    def make(
        coeffs: dict[str, int] | None = None,
        const: Fraction | int = 0,
        tau_coeff: Fraction | int = 0,
    ) -> "LinearForm":
        items = tuple(
            sorted((name, int(c)) for name, c in (coeffs or {}).items() if c != 0)
        )
        return LinearForm(items, Fraction(const), Fraction(tau_coeff))

    def variables(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.var_coeffs)


ZERO_FORM = LinearForm()


@dataclass(frozen=True)
class ThetaFactor:
    """One multiplicative factor: a theta value, dt1(0), pi, or gauss4(0).

    index is 1..4 for the theta functions, or one of the DTHETA1,
    PI_CONST, GAUSS4 markers.  tau_multiplier is 1 or 2 and selects the
    modular slot (tau or 2tau); the tau_coeff inside the argument is
    always relative to the base tau.
    """

    index: int | str
    argument: LinearForm = ZERO_FORM
    tau_multiplier: int = 1

    def __post_init__(self):
        if self.index not in (1, 2, 3, 4, DTHETA1, PI_CONST, GAUSS4):
            raise ValueError(f"bad factor index {self.index!r}")
        if self.tau_multiplier not in (1, 2):
            raise ValueError("tau_multiplier must be 1 or 2")


@dataclass(frozen=True)
class Term:
    """coefficient * product of factors; an empty product is a constant."""

    coefficient: Fraction
    factors: tuple[ThetaFactor, ...] = ()


@dataclass(frozen=True)
class Identity:
    """A parsed identity: lhs terms = rhs terms over declared variables.

    The hash of the field tuple is computed on the first __hash__ and kept
    in the instance dict, outside the fields, so repr and == do not see it
    and a cached plan lookup does not rehash the whole term tree.  Pickling
    drops it: string hashes differ between processes.
    """

    id: str
    lhs: tuple[Term, ...]
    rhs: tuple[Term, ...]
    variables: tuple[str, ...]

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.id, self.lhs, self.rhs, self.variables))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


def structurally_equal(a: Identity, b: Identity) -> bool:
    """Equality ignoring the catalog id."""
    return a.lhs == b.lhs and a.rhs == b.rhs and a.variables == b.variables


# --------------------------------------------------------------------------
# lexer / parser
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z_]\w*)|([+*/|()=−-])|(\S)")


@dataclass
class _Token:
    kind: str  # "int", "ident", a literal symbol, or "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        pos = m.start()
        if m.group(1):
            tokens.append(_Token("int", m.group(1), pos))
        elif m.group(2):
            tokens.append(_Token("ident", m.group(2), pos))
        elif m.group(3):
            sym = "-" if m.group(3) == "−" else m.group(3)
            tokens.append(_Token(sym, sym, pos))
        else:
            raise ParseError(f"unexpected character {m.group(4)!r}", pos)
    tokens.append(_Token("end", "", len(text)))
    return tokens


_THETA_HEAD_RE = re.compile(r"t(\d+)\Z")


@dataclass
class _Parser:
    tokens: list[_Token]
    i: int = 0
    variables: list[str] = field(default_factory=list)

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}, got {tok.text or 'end of input'!r}", tok.pos)
        return self.advance()

    # rational := ("-")? INT ("/" INT)?
    def rational(self) -> Fraction:
        sign = 1
        if self.peek().kind == "-":
            self.advance()
            sign = -1
        num = int(self.expect("int", "a number").text)
        if self.peek().kind == "/":
            self.advance()
            den_tok = self.expect("int", "a denominator")
            den = int(den_tok.text)
            if den == 0:
                raise ParseError("zero denominator", den_tok.pos)
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    def _at_rational(self) -> bool:
        tok = self.peek()
        return tok.kind == "int" or (tok.kind == "-" and self.peek(1).kind == "int")

    def _register_var(self, name: str) -> None:
        if name not in self.variables:
            self.variables.append(name)

    def linform(self) -> LinearForm:
        coeffs: dict[str, int] = {}
        const = Fraction(0)
        tau_c = Fraction(0)
        sign = 1
        if self.peek().kind == "-":
            self.advance()
            sign = -1
        while True:
            tok = self.peek()
            if tok.kind == "int":
                value = self.rational()
                nxt = self.peek()
                if nxt.kind == "ident":
                    self.advance()
                    if nxt.text == "tau":
                        tau_c += sign * value
                    else:
                        if value.denominator != 1:
                            raise ParseError(
                                f"variable coefficient must be an integer, got {value}",
                                tok.pos,
                            )
                        coeffs[nxt.text] = coeffs.get(nxt.text, 0) + sign * int(value)
                        self._register_var(nxt.text)
                else:
                    const += sign * value
            elif tok.kind == "ident":
                self.advance()
                if tok.text == "tau":
                    tau_c += sign
                else:
                    coeffs[tok.text] = coeffs.get(tok.text, 0) + sign
                    self._register_var(tok.text)
            else:
                raise ParseError(
                    f"expected a linear-form atom, got {tok.text or 'end of input'!r}",
                    tok.pos,
                )
            nxt = self.peek()
            if nxt.kind == "+":
                self.advance()
                sign = 1
            elif nxt.kind == "-":
                self.advance()
                sign = -1
            else:
                return LinearForm.make(coeffs, const, tau_c)

    def _modular_slot(self) -> int:
        # after "|": "tau" or "2tau"
        tok = self.peek()
        if tok.kind == "int":
            if tok.text != "2":
                raise ParseError(f"expected 'tau' or '2tau', got {tok.text!r}", tok.pos)
            self.advance()
            ident = self.expect("ident", "'tau'")
            if ident.text != "tau":
                raise ParseError(f"expected 'tau' after 2, got {ident.text!r}", ident.pos)
            return 2
        ident = self.expect("ident", "'tau' or '2tau'")
        if ident.text != "tau":
            raise ParseError(f"expected 'tau' or '2tau', got {ident.text!r}", ident.pos)
        return 1

    def factor(self) -> ThetaFactor:
        tok = self.expect("ident", "a factor")
        name = tok.text
        if name == PI_CONST:
            return ThetaFactor(PI_CONST)
        if name == DTHETA1:
            self.expect("(", "'('")
            zero = self.expect("int", "'0'")
            if zero.text != "0":
                raise ParseError("dt1 takes the fixed argument 0", zero.pos)
            self.expect(")", "')'")
            return ThetaFactor(DTHETA1)
        if name == GAUSS4:
            self.expect("(", "'('")
            zero = self.expect("int", "'0'")
            if zero.text != "0":
                raise ParseError("gauss4 takes the fixed argument 0", zero.pos)
            mult = 1
            if self.peek().kind == "|":
                self.advance()
                mult = self._modular_slot()
            self.expect(")", "')'")
            return ThetaFactor(GAUSS4, ZERO_FORM, mult)
        head = _THETA_HEAD_RE.match(name)
        if head:
            index = int(head.group(1))
            if index not in (1, 2, 3, 4):
                raise ParseError(f"unknown theta index {name!r}", tok.pos)
            self.expect("(", "'('")
            arg = self.linform()
            mult = 1
            if self.peek().kind == "|":
                self.advance()
                mult = self._modular_slot()
            self.expect(")", "')'")
            return ThetaFactor(index, arg, mult)
        raise ParseError(f"unknown factor {name!r}", tok.pos)

    def term(self, sign: int) -> Term:
        coeff = Fraction(sign)
        factors: list[ThetaFactor] = []
        if self._at_rational():
            coeff *= self.rational()
            if self.peek().kind != "*":
                return Term(coeff)  # pure constant term
            self.advance()
        factors.append(self.factor())
        while self.peek().kind == "*":
            self.advance()
            factors.append(self.factor())
        return Term(coeff, tuple(factors))

    def expr(self) -> tuple[Term, ...]:
        terms = [self.term(1)]
        while True:
            tok = self.peek()
            if tok.kind == "+":
                self.advance()
                terms.append(self.term(1))
            elif tok.kind == "-":
                self.advance()
                terms.append(self.term(-1))
            else:
                return tuple(terms)

    def identity(self, identity_id: str) -> Identity:
        lhs = self.expr()
        eq = self.peek()
        if eq.kind != "=":
            raise ParseError("expected '=' between the two sides", eq.pos)
        self.advance()
        rhs = self.expr()
        trailing = self.peek()
        if trailing.kind == "=":
            raise ParseError("duplicate '='", trailing.pos)
        if trailing.kind != "end":
            raise ParseError(f"unexpected trailing input {trailing.text!r}", trailing.pos)
        return Identity(identity_id, lhs, rhs, tuple(self.variables))


def parse_identity(text: str, identity_id: str = "") -> Identity:
    """Parse a DSL identity; raises ParseError with a position on bad input."""
    return _Parser(_tokenize(text)).identity(identity_id)


# --------------------------------------------------------------------------
# printing (canonical form; print -> parse round-trips structurally)
# --------------------------------------------------------------------------


def format_linear_form(lf: LinearForm) -> str:
    pieces: list[tuple[int, str]] = []  # (sign, magnitude text)
    for name, c in lf.var_coeffs:
        mag = name if abs(c) == 1 else f"{abs(c)}{name}"
        pieces.append((1 if c > 0 else -1, mag))
    if lf.const != 0:
        pieces.append((1 if lf.const > 0 else -1, str(abs(lf.const))))
    if lf.tau_coeff != 0:
        mag = "tau" if abs(lf.tau_coeff) == 1 else f"{abs(lf.tau_coeff)}tau"
        pieces.append((1 if lf.tau_coeff > 0 else -1, mag))
    if not pieces:
        return "0"
    out = []
    for i, (sign, mag) in enumerate(pieces):
        if i == 0:
            out.append(f"-{mag}" if sign < 0 else mag)
        else:
            out.append(f"{'-' if sign < 0 else '+'}{mag}")
    return "".join(out)


def format_factor(f: ThetaFactor) -> str:
    if f.index == PI_CONST:
        return "pi"
    if f.index == DTHETA1:
        return "dt1(0)"
    slot = "2tau" if f.tau_multiplier == 2 else "tau"
    if f.index == GAUSS4:
        return f"gauss4(0|{slot})"
    return f"t{f.index}({format_linear_form(f.argument)}|{slot})"


def _format_side(terms: tuple[Term, ...]) -> str:
    out = []
    for i, term in enumerate(terms):
        mag = abs(term.coefficient)
        body = "*".join(format_factor(f) for f in term.factors)
        if not term.factors:
            piece = str(mag)
        elif mag == 1:
            piece = body
        else:
            piece = f"{mag}*{body}"
        if i == 0:
            if term.coefficient < 0:
                piece = f"-{mag}*{body}" if term.factors else f"-{mag}"
            out.append(piece)
        else:
            out.append(f"{'-' if term.coefficient < 0 else '+'} {piece}")
    return " ".join(out)


def format_identity(identity: Identity) -> str:
    return f"{_format_side(identity.lhs)} = {_format_side(identity.rhs)}"
