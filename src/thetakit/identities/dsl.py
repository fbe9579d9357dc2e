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

The parser scans a token only when it reaches it, and parses each
distinct factor text once per process.  Every factor but "pi" reads no
token past its first ")", so the text up to there is the key of a
bounded cache (_parse_factor, 1024 entries, exceptions not kept) of the
factor and its variables in order of first appearance.  A repeat skips
the text and replays those variables, so Identity.variables keeps the
identity's own order, a cancelling "u-u" included.  Errors are those
of a parser over the whole token list: a position counts from the start
of the identity text, and a stray character anywhere is reported before
a syntax error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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

# one token after optional whitespace: an integer, an identifier, a symbol
# (a unicode minus reads as "-"), or a stray character
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|([+*/|()=−-])|(\S))")


def _scan(text: str, pos: int) -> tuple[str, str, int, int]:
    """The token at or after pos: (kind, text, start, end).

    kind is "int", "ident", the symbol itself, or "end" once only
    whitespace is left; a stray character raises ParseError.
    """
    m = _TOKEN_RE.match(text, pos)
    if m is None:
        return ("end", "", len(text), len(text))
    group = m.lastindex
    start = m.start(group)
    if group == 1:
        return ("int", m.group(1), start, m.end())
    if group == 2:
        return ("ident", m.group(2), start, m.end())
    if group == 3:
        sym = "-" if m.group(3) == "−" else m.group(3)
        return (sym, sym, start, m.end())
    raise ParseError(f"unexpected character {m.group(4)!r}", start)


_THETA_HEAD_RE = re.compile(r"t(\d+)\Z")


class _Parser:
    """Recursive descent over text, reading one token ahead.

    tok is the current token as _scan returns it; every other token is
    scanned only when the parser reaches it, and a factor's text is
    skipped whole when _parse_factor has seen it before.
    """

    __slots__ = ("text", "tok", "variables")

    def __init__(self, text: str):
        self.text = text
        self.tok = _scan(text, 0)
        self.variables: list[str] = []

    def advance(self) -> tuple[str, str, int, int]:
        tok = self.tok
        if tok[0] != "end":
            self.tok = _scan(self.text, tok[3])
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str, int, int]:
        tok = self.tok
        if tok[0] != kind:
            raise ParseError(f"expected {what}, got {tok[1] or 'end of input'!r}", tok[2])
        return self.advance()

    # rational := ("-")? INT ("/" INT)?
    def rational(self) -> Fraction:
        sign = 1
        if self.tok[0] == "-":
            self.advance()
            sign = -1
        num = int(self.expect("int", "a number")[1])
        if self.tok[0] == "/":
            self.advance()
            _, den_text, den_pos, _ = self.expect("int", "a denominator")
            den = int(den_text)
            if den == 0:
                raise ParseError("zero denominator", den_pos)
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    def _at_rational(self) -> bool:
        kind, _, _, end = self.tok
        return kind == "int" or (kind == "-" and _scan(self.text, end)[0] == "int")

    def _register_var(self, name: str) -> None:
        if name not in self.variables:
            self.variables.append(name)

    def linform(self) -> LinearForm:
        coeffs: dict[str, int] = {}
        const = Fraction(0)
        tau_c = Fraction(0)
        sign = 1
        if self.tok[0] == "-":
            self.advance()
            sign = -1
        while True:
            kind, text, pos, _ = self.tok
            if kind == "int":
                value = self.rational()
                nxt_kind, name, _, _ = self.tok
                if nxt_kind == "ident":
                    self.advance()
                    if name == "tau":
                        tau_c += sign * value
                    else:
                        if value.denominator != 1:
                            raise ParseError(
                                f"variable coefficient must be an integer, got {value}",
                                pos,
                            )
                        coeffs[name] = coeffs.get(name, 0) + sign * int(value)
                        self._register_var(name)
                else:
                    const += sign * value
            elif kind == "ident":
                self.advance()
                if text == "tau":
                    tau_c += sign
                else:
                    coeffs[text] = coeffs.get(text, 0) + sign
                    self._register_var(text)
            else:
                raise ParseError(
                    f"expected a linear-form atom, got {text or 'end of input'!r}", pos
                )
            kind = self.tok[0]
            if kind == "+":
                self.advance()
                sign = 1
            elif kind == "-":
                self.advance()
                sign = -1
            else:
                return LinearForm.make(coeffs, const, tau_c)

    def _modular_slot(self) -> int:
        # after "|": "tau" or "2tau"
        kind, text, pos, _ = self.tok
        if kind == "int":
            if text != "2":
                raise ParseError(f"expected 'tau' or '2tau', got {text!r}", pos)
            self.advance()
            _, ident, ident_pos, _ = self.expect("ident", "'tau'")
            if ident != "tau":
                raise ParseError(f"expected 'tau' after 2, got {ident!r}", ident_pos)
            return 2
        _, ident, ident_pos, _ = self.expect("ident", "'tau' or '2tau'")
        if ident != "tau":
            raise ParseError(f"expected 'tau' or '2tau', got {ident!r}", ident_pos)
        return 1

    def factor(self) -> ThetaFactor:
        kind, name, start, end = self.tok
        if kind != "ident":
            raise ParseError(f"expected a factor, got {name or 'end of input'!r}", start)
        if name == PI_CONST:
            self.advance()
            return ThetaFactor(PI_CONST)
        # any other factor reads no token past its first ")"
        text = self.text
        close = text.find(")", end)
        stop = len(text) if close < 0 else close + 1
        try:
            factor, names = _parse_factor(text[start:stop])
        except ParseError as err:
            raise ParseError(err.reason, start + err.position) from None
        for var in names:
            self._register_var(var)
        self.tok = _scan(text, stop)
        return factor

    def parenthesized_factor(self) -> ThetaFactor:
        """dt1(0), gauss4(0...) or t<d>(...), from its name on."""
        _, name, pos, _ = self.advance()
        if name == DTHETA1:
            self.expect("(", "'('")
            _, zero, zero_pos, _ = self.expect("int", "'0'")
            if zero != "0":
                raise ParseError("dt1 takes the fixed argument 0", zero_pos)
            self.expect(")", "')'")
            return ThetaFactor(DTHETA1)
        if name == GAUSS4:
            self.expect("(", "'('")
            _, zero, zero_pos, _ = self.expect("int", "'0'")
            if zero != "0":
                raise ParseError("gauss4 takes the fixed argument 0", zero_pos)
            mult = 1
            if self.tok[0] == "|":
                self.advance()
                mult = self._modular_slot()
            self.expect(")", "')'")
            return ThetaFactor(GAUSS4, ZERO_FORM, mult)
        head = _THETA_HEAD_RE.match(name)
        if head:
            index = int(head.group(1))
            if index not in (1, 2, 3, 4):
                raise ParseError(f"unknown theta index {name!r}", pos)
            self.expect("(", "'('")
            arg = self.linform()
            mult = 1
            if self.tok[0] == "|":
                self.advance()
                mult = self._modular_slot()
            self.expect(")", "')'")
            return ThetaFactor(index, arg, mult)
        raise ParseError(f"unknown factor {name!r}", pos)

    def term(self, sign: int) -> Term:
        coeff = Fraction(sign)
        factors: list[ThetaFactor] = []
        if self._at_rational():
            coeff *= self.rational()
            if self.tok[0] != "*":
                return Term(coeff)  # pure constant term
            self.advance()
        factors.append(self.factor())
        while self.tok[0] == "*":
            self.advance()
            factors.append(self.factor())
        return Term(coeff, tuple(factors))

    def expr(self) -> tuple[Term, ...]:
        terms = [self.term(1)]
        while True:
            kind = self.tok[0]
            if kind == "+":
                self.advance()
                terms.append(self.term(1))
            elif kind == "-":
                self.advance()
                terms.append(self.term(-1))
            else:
                return tuple(terms)

    def identity(self, identity_id: str) -> Identity:
        lhs = self.expr()
        kind, _, pos, _ = self.tok
        if kind != "=":
            raise ParseError("expected '=' between the two sides", pos)
        self.advance()
        rhs = self.expr()
        kind, text, pos, _ = self.tok
        if kind == "=":
            raise ParseError("duplicate '='", pos)
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return Identity(identity_id, lhs, rhs, tuple(self.variables))


@lru_cache(maxsize=1024)
def _parse_factor(text: str) -> tuple[ThetaFactor, tuple[str, ...]]:
    """The factor that text holds through its first ")" and its variables
    in order of first appearance.  A ParseError counts positions from the
    start of text; factor() adds the factor's offset in the identity."""
    parser = _Parser(text)
    factor = parser.parenthesized_factor()
    return factor, tuple(parser.variables)


def parse_identity(text: str, identity_id: str = "") -> Identity:
    """Parse a DSL identity; raises ParseError with a position on bad input.

    A stray character anywhere is reported before a syntax error, as if
    the whole text were scanned first.
    """
    parser = _Parser(text)
    try:
        return parser.identity(identity_id)
    except ParseError:
        while parser.tok[0] != "end":  # raises at a stray character left
            parser.advance()
        raise


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
