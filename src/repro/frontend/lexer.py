"""Tokenizer for the stencil front-end language.

The paper notes that PerforAD "does not contain its own parser front-end
and instead relies on the caller to supply a high-level description of
the stencil computation ... Automating this process remains future work"
(Section 3.1).  This package implements that front-end: a small textual
stencil language that parses into :class:`~repro.core.loopnest.LoopNest`
objects.  Grammar (see :mod:`repro.frontend.parser`)::

    stencil wave3d {
      iterate i = 1 .. n-2, j = 1 .. n-2, k = 1 .. n-2
      u[i,j,k] += 2.0*u_1[i,j,k] - u_2[i,j,k]
                  + c[i,j,k]*D*(u_1[i-1,j,k] - 2*u_1[i,j,k] + u_1[i+1,j,k])
    }
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ValidationError

__all__ = ["Token", "LexError", "tokenize"]

_KEYWORDS = {"stencil", "iterate", "max", "min"}
_TWO_CHAR = {"+=", ".."}
_ONE_CHAR = set("+-*/^()[]{},=")


class LexError(ValidationError):
    """Raised for unrecognised input, with line/column information.

    Part of the typed hierarchy (:class:`~repro.errors.ValidationError`,
    and thus still a ``ValueError`` as before).
    """

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    """A lexical token: kind in {ident, number, keyword, op, end}."""

    kind: str
    text: str
    line: int
    col: int

    def __repr__(self) -> str:  # compact for parser error messages
        return f"{self.kind}({self.text!r})"


def tokenize(source: str) -> list[Token]:
    """Tokenise *source*; comments run from '#' to end of line."""
    tokens: list[Token] = []
    line = 1
    col = 1
    idx = 0
    n = len(source)
    while idx < n:
        ch = source[idx]
        if ch == "\n":
            line += 1
            col = 1
            idx += 1
            continue
        if ch in " \t\r":
            idx += 1
            col += 1
            continue
        if ch == "#":
            while idx < n and source[idx] != "\n":
                idx += 1
            continue
        two = source[idx : idx + 2]
        if two in _TWO_CHAR:
            tokens.append(Token("op", two, line, col))
            idx += 2
            col += 2
            continue
        if ch.isdigit() or (ch == "." and idx + 1 < n and source[idx + 1].isdigit()):
            start = idx
            seen_dot = False
            while idx < n and (source[idx].isdigit() or (source[idx] == "." and not seen_dot)):
                if source[idx] == ".":
                    # ".." is a range operator, not part of a number.
                    if source[idx : idx + 2] == "..":
                        break
                    seen_dot = True
                idx += 1
            text = source[start:idx]
            tokens.append(Token("number", text, line, col))
            col += idx - start
            continue
        if ch.isalpha() or ch == "_":
            start = idx
            while idx < n and (source[idx].isalnum() or source[idx] == "_"):
                idx += 1
            text = source[start:idx]
            kind = "keyword" if text in _KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, col))
            col += idx - start
            continue
        if ch in _ONE_CHAR:
            tokens.append(Token("op", ch, line, col))
            idx += 1
            col += 1
            continue
        raise LexError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("end", "", line, col))
    return tokens
