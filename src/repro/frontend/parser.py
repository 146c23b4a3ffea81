"""Recursive-descent parser for the stencil front-end language.

Grammar::

    program   := stencil*
    stencil   := "stencil" IDENT "{" iterate statement+ "}"
    iterate   := "iterate" range ("," range)*
    range     := IDENT "=" expr ".." expr
    statement := access ("=" | "+=") expr
    access    := IDENT "[" expr ("," expr)* "]"
    expr      := term (("+"|"-") term)*
    term      := unary (("*"|"/") unary)*
    unary     := ("-"|"+") unary | power
    power     := atom ("^" unary)?
    atom      := NUMBER | IDENT | access | call | "(" expr ")"
    call      := ("max"|"min") "(" expr ("," expr)* ")"

Identifiers followed by ``[`` are arrays; all other identifiers are
scalar symbols (loop counters inside index expressions, sizes and
physical constants elsewhere).  Counters are integer symbols; everything
else is real.  The parsed stencils are validated by ``make_loop_nest``
against the Section 3.4 restrictions, so malformed stencils are rejected
with the same errors as programmatically constructed ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy as sp

from ..core.loopnest import LoopNest, Statement, make_loop_nest
from ..core.validate import (
    DEFAULT_SPEC_LIMITS,
    SpecLimits,
    validate_loop_nest,
    validate_untrusted,
)
from ..errors import ValidationError
from .lexer import Token, tokenize

__all__ = ["ParseError", "parse_stencils", "parse_stencil"]


class ParseError(ValidationError):
    """Raised on grammar violations, with token location.

    Part of the typed hierarchy (:class:`~repro.errors.ValidationError`,
    and thus still a ``ValueError`` as before).
    """

    def __init__(self, message: str, token: Token):
        super().__init__(f"{message} at line {token.line}, column {token.col}")
        self.token = token


@dataclass
class _State:
    tokens: list[Token]
    pos: int = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = f"{kind} {text!r}" if text else kind
            raise ParseError(f"expected {want}, found {tok!r}", tok)
        return self.next()

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.next()
        return None


class _Parser:
    def __init__(self, source: str, limits: SpecLimits | None = None):
        # The source-size cap comes first: an adversarial spec must be
        # bounced before tokenize() materialises a token per character.
        if limits is not None and len(source) > limits.max_source_bytes:
            raise ValidationError(
                f"stencil source is {len(source)} bytes; the limit is "
                f"{limits.max_source_bytes}"
            )
        self.state = _State(tokenize(source))
        self._limits = limits
        self._depth = 0
        # Scalars are real symbols except counters, which are integer.
        self._counters: dict[str, sp.Symbol] = {}
        self._scalars: dict[str, sp.Symbol] = {}
        self._arrays: dict[str, sp.Function] = {}

    # -- symbol management ---------------------------------------------------

    def _symbol(self, name: str) -> sp.Symbol:
        if name in self._counters:
            return self._counters[name]
        if name not in self._scalars:
            self._scalars[name] = sp.Symbol(name, real=True)
        return self._scalars[name]

    def _counter(self, name: str, token: Token) -> sp.Symbol:
        if name in self._scalars:
            raise ParseError(f"{name!r} already used as a scalar", token)
        if name not in self._counters:
            self._counters[name] = sp.Symbol(name, integer=True)
        return self._counters[name]

    def _array(self, name: str) -> sp.Function:
        if name not in self._arrays:
            self._arrays[name] = sp.Function(name)
        return self._arrays[name]

    # -- grammar ----------------------------------------------------------

    def parse_program(self) -> list[LoopNest]:
        nests = []
        while self.state.peek().kind != "end":
            nests.append(self.parse_stencil())
        if not nests:
            raise ParseError("no stencil definitions found", self.state.peek())
        if self._limits is not None:
            for nest in nests:
                validate_untrusted(nest, self._limits)
        return nests

    def parse_stencil(self) -> LoopNest:
        self.state.expect("keyword", "stencil")
        name = self.state.expect("ident").text
        self.state.expect("op", "{")
        counters, bounds = self.parse_iterate()
        statements = []
        while not self.state.accept("op", "}"):
            statements.append(self.parse_statement(counters))
        if not statements:
            raise ParseError("stencil has no statements", self.state.peek())
        if len(statements) == 1:
            st = statements[0]
            nest = make_loop_nest(
                lhs=st.lhs, rhs=st.rhs, counters=counters,
                bounds=bounds, op=st.op, name=name,
            )
        else:
            nest = LoopNest(
                statements=tuple(statements),
                counters=tuple(counters),
                bounds={c: tuple(b) for c, b in bounds.items()},
                name=name,
            )
            validate_loop_nest(nest)
        return nest

    def parse_iterate(self):
        self.state.expect("keyword", "iterate")
        counters: list[sp.Symbol] = []
        bounds: dict[sp.Symbol, list[sp.Expr]] = {}
        while True:
            tok = self.state.expect("ident")
            c = self._counter(tok.text, tok)
            self.state.expect("op", "=")
            lo = self.parse_expr(index_mode=True)
            self.state.expect("op", "..")
            hi = self.parse_expr(index_mode=True)
            counters.append(c)
            bounds[c] = [lo, hi]
            if not self.state.accept("op", ","):
                break
        return counters, bounds

    def parse_statement(self, counters) -> Statement:
        tok = self.state.expect("ident")
        if not self.state.accept("op", "["):
            raise ParseError("statement must start with an array access", tok)
        lhs = self._finish_access(tok.text)
        if self.state.accept("op", "+="):
            op = "+="
        else:
            self.state.expect("op", "=")
            op = "="
        rhs = self.parse_expr()
        return Statement(lhs=lhs, rhs=rhs, op=op)

    def _finish_access(self, name: str) -> sp.Expr:
        """Parse the index list after '[' has been consumed."""
        indices = [self.parse_expr(index_mode=True)]
        while self.state.accept("op", ","):
            indices.append(self.parse_expr(index_mode=True))
        self.state.expect("op", "]")
        return self._array(name)(*indices)

    # Expression parsing with precedence climbing.

    def parse_expr(self, index_mode: bool = False) -> sp.Expr:
        # Depth cap: parse_expr re-enters itself through parentheses,
        # calls and index lists, so a pathological spec of nested
        # parens would otherwise hit the interpreter's RecursionError
        # (an untyped crash) instead of a ValidationError.
        limit = (
            self._limits.max_expr_depth
            if self._limits is not None
            else DEFAULT_SPEC_LIMITS.max_expr_depth
        )
        self._depth += 1
        try:
            if self._depth > limit:
                raise ValidationError(
                    f"expression nesting exceeds {limit} levels "
                    f"(line {self.state.peek().line})"
                )
            expr = self.parse_term(index_mode)
            while True:
                if self.state.accept("op", "+"):
                    expr = expr + self.parse_term(index_mode)
                elif self.state.accept("op", "-"):
                    expr = expr - self.parse_term(index_mode)
                else:
                    return expr
        finally:
            self._depth -= 1

    def parse_term(self, index_mode: bool) -> sp.Expr:
        expr = self.parse_unary(index_mode)
        while True:
            if self.state.accept("op", "*"):
                expr = expr * self.parse_unary(index_mode)
            elif self.state.accept("op", "/"):
                expr = expr / self.parse_unary(index_mode)
            else:
                return expr

    def parse_unary(self, index_mode: bool) -> sp.Expr:
        if self.state.accept("op", "-"):
            return -self.parse_unary(index_mode)
        if self.state.accept("op", "+"):
            return self.parse_unary(index_mode)
        return self.parse_power(index_mode)

    def parse_power(self, index_mode: bool) -> sp.Expr:
        base = self.parse_atom(index_mode)
        if self.state.accept("op", "^"):
            return base ** self.parse_unary(index_mode)
        return base

    def parse_atom(self, index_mode: bool) -> sp.Expr:
        tok = self.state.peek()
        if tok.kind == "number":
            self.state.next()
            if "." in tok.text:
                return sp.Float(tok.text)
            return sp.Integer(int(tok.text))
        if tok.kind == "keyword" and tok.text in ("max", "min"):
            self.state.next()
            self.state.expect("op", "(")
            args = [self.parse_expr()]
            while self.state.accept("op", ","):
                args.append(self.parse_expr())
            self.state.expect("op", ")")
            fn = sp.Max if tok.text == "max" else sp.Min
            return fn(*args)
        if tok.kind == "ident":
            self.state.next()
            if self.state.accept("op", "["):
                if index_mode:
                    raise ParseError("array access not allowed inside indices", tok)
                return self._finish_access(tok.text)
            return self._symbol(tok.text)
        if self.state.accept("op", "("):
            expr = self.parse_expr(index_mode)
            self.state.expect("op", ")")
            return expr
        raise ParseError(f"unexpected token {tok!r}", tok)


def parse_stencils(
    source: str, limits: SpecLimits | None = DEFAULT_SPEC_LIMITS
) -> list[LoopNest]:
    """Parse every ``stencil`` definition in *source* into loop nests.

    ``limits`` caps the resources an untrusted spec may claim (source
    size, expression nesting/size, statement count, concrete loop
    extents — see :class:`~repro.core.validate.SpecLimits`); violations
    raise a typed :class:`~repro.errors.ValidationError`.  The default
    limits are generous; pass ``limits=None`` for fully trusted input
    (a minimal nesting-depth guard still applies, converting the
    interpreter's ``RecursionError`` into a typed error).
    """
    return _Parser(source, limits).parse_program()


def parse_stencil(
    source: str, limits: SpecLimits | None = DEFAULT_SPEC_LIMITS
) -> LoopNest:
    """Parse exactly one stencil definition (same *limits* contract)."""
    nests = parse_stencils(source, limits)
    if len(nests) != 1:
        raise ParseError(
            f"expected exactly one stencil, found {len(nests)}",
            Token("end", "", 0, 0),
        )
    return nests[0]
