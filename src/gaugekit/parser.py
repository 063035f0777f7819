"""Parser for the space-expression text grammar (the inverse of the text
renderer on canonical expressions).

    expr     := factor (("x" factor)* | ("v" factor)*)
    factor   := prefix | primary ["u" ["[" label "]"] "e^" INT]
    prefix   := ("Omega^" INT | "Sigma^" INT) factor        (INT >= 1)
    primary  := "S^" INT | "CP^2" | "SCP2^" INT
              | "TC(" INT "," INT ";" INT "mod" INT ")"
              | "Map*(" expr "," expr ")"
              | "G_" LABEL "(" expr [";" group] ")"
              | "(" expr ")"
              | NAME ["(" INT ")"]

Chains may not mix "x" and "v" without parentheses.  Factors nest at most
MAX_DEPTH levels deep: each prefix operand, parenthesis, and "Map*(" or
"G_...(" argument is one level.  The parser builds bottom-up through the
smart constructors, so every argument it passes is already canonical and so
is the result: parse(render_text(e)) == e for every canonical expression e
whose text nests at most MAX_DEPTH levels.  An attached complex under a
prefix renders parenthesized, so its text nests one level deeper than its
tree.
"""

from __future__ import annotations

import re

from .exact import CyclicElem
from .spaces import (
    LieGroup,
    MappingSpace,
    SpaceExpr,
    Sphere,
    SuspCP2,
    attached,
    gauge,
    loop,
    product,
    suspension,
    two_cell,
    wedge,
)

__all__ = ["parse", "ParseError", "MAX_DEPTH"]

# Deepest factor nesting `parse` accepts.  Jobs build trees a few levels
# deep; at this bound every traversal of a parsed tree stays far below the
# interpreter's recursion limit.
MAX_DEPTH = 100


class ParseError(ValueError):
    pass


_TOKEN = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<SPHERE>S\^\d+)
  | (?P<SCP2>SCP2\^\d+)
  | (?P<CP2>CP\^2)
  | (?P<OMEGA>Omega\^\d+)
  | (?P<SIGMA>Sigma\^\d+)
  | (?P<ECELL>e\^\d+)
  | (?P<GAUGE>G_[A-Za-z]\w*)
  | (?P<MAPSTAR>Map\*)
  | (?P<TC>TC(?!\w))
  | (?P<MOD>mod(?!\w))
  | (?P<X>x(?!\w))
  | (?P<V>v(?!\w))
  | (?P<U>u(?!\w))
  | (?P<LABEL>\[[^\]]*\])
  | (?P<NAME>[A-Za-z]\w*)
  | (?P<INT>\d+)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<SEMI>;)
  | (?P<COMMA>,)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        pos = m.end()
        kind = m.lastgroup
        if kind != "WS":
            tokens.append((kind, m.group()))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # factors open around the one being parsed

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, str]:
        if self.pos >= len(self.tokens):
            raise ParseError("unexpected end of input")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> str:
        k, v = self.next()
        if k != kind:
            raise ParseError(f"expected {kind}, got {k} {v!r}")
        return v

    def parse_expr(self) -> SpaceExpr:
        first = self.parse_factor()
        op = self.peek()
        if op not in ("X", "V"):
            return first
        parts = [first]
        while self.peek() == op:
            self.next()
            parts.append(self.parse_factor())
        if self.peek() in ("X", "V"):
            raise ParseError("cannot mix x and v without parentheses")
        return product(*parts) if op == "X" else wedge(*parts)

    def parse_factor(self) -> SpaceExpr:
        if self.depth > MAX_DEPTH:
            raise ParseError("expression nested too deeply")
        self.depth += 1
        kind = self.peek()
        if kind in ("OMEGA", "SIGMA"):
            prefix = self.next()[1]
            power = int(prefix.split("^")[1])
            if power < 1:
                raise ParseError(f"{prefix} needs a power >= 1")
            build = loop if kind == "OMEGA" else suspension
            expr = build(power, self.parse_factor())
        else:
            expr = self.parse_primary()
            if self.peek() == "U":
                self.next()
                label = None
                if self.peek() == "LABEL":
                    label = self.next()[1][1:-1]
                top = int(self.expect("ECELL").split("^")[1])
                expr = attached(expr, top, label)
        self.depth -= 1
        return expr

    def parse_primary(self) -> SpaceExpr:
        kind, value = self.next()
        if kind == "SPHERE":
            return Sphere(int(value.split("^")[1]))
        if kind == "SCP2":
            return SuspCP2(int(value.split("^")[1]))
        if kind == "CP2":
            return SuspCP2(0)
        if kind == "TC":
            self.expect("LPAREN")
            bottom = int(self.expect("INT"))
            self.expect("COMMA")
            top = int(self.expect("INT"))
            self.expect("SEMI")
            residue = int(self.expect("INT"))
            self.expect("MOD")
            modulus = int(self.expect("INT"))
            self.expect("RPAREN")
            if top != 2 * bottom:
                raise ParseError(f"two-cell complex must be TC(n,2n;...), got TC({bottom},{top};...)")
            return two_cell(bottom, CyclicElem(residue, modulus))
        if kind == "MAPSTAR":
            self.expect("LPAREN")
            domain = self.parse_expr()
            self.expect("COMMA")
            codomain = self.parse_expr()
            self.expect("RPAREN")
            return MappingSpace(domain, codomain)
        if kind == "GAUGE":
            label = value[2:]
            self.expect("LPAREN")
            base = self.parse_expr()
            group = None
            if self.peek() == "SEMI":
                self.next()
                group = self.parse_group_name()
            self.expect("RPAREN")
            return gauge(base, label, group)
        if kind == "LPAREN":
            inner = self.parse_expr()
            self.expect("RPAREN")
            return inner
        if kind == "NAME":
            return LieGroup(self.parse_lie_suffix(value))
        raise ParseError(f"unexpected token {kind} {value!r}")

    def parse_group_name(self) -> str:
        return self.parse_lie_suffix(self.expect("NAME"))

    def parse_lie_suffix(self, name: str) -> str:
        if self.peek() == "LPAREN":
            self.next()
            rank = self.expect("INT")
            self.expect("RPAREN")
            return f"{name}({rank})"
        return name


def parse(text: str) -> SpaceExpr:
    """Parse a rendered space expression back to its canonical tree.  Every
    rejection, including a node constructor's and nesting deeper than
    MAX_DEPTH, raises ParseError."""
    parser = _Parser(_tokenize(text))
    try:
        expr = parser.parse_expr()
    except ValueError as exc:  # a node constructor's rejection, or a ParseError
        raise ParseError(str(exc)) from None
    if parser.pos != len(parser.tokens):
        kind, value = parser.tokens[parser.pos]
        raise ParseError(f"trailing input at token {kind} {value!r}")
    return expr
