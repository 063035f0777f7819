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
whose text nests at most MAX_DEPTH levels.  Names and labels need no
condition here: the tokens are built from the name grammar of `spaces`,
whose node constructors reject any name or label outside it.  An attached
complex under a prefix renders parenthesized, so its text nests one level
deeper than its tree.
"""

from __future__ import annotations

import re

from .exact import CyclicElem
from .spaces import (
    CELL_LABEL,
    GAUGE,
    NAME,
    RESERVED,
    WORD,
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


# One token after optional whitespace.  The group is optional, so a match
# never fails: it finds no token at the end of the text and at a character
# no token starts with.  Reserved words match as words, like group names;
# an earlier alternative wins where two overlap.
_TOKEN = re.compile(
    rf"""\s*(
        S\^\d+ | SCP2\^\d+ | CP\^2 | Omega\^\d+ | Sigma\^\d+ | e\^\d+
      | {GAUGE}{WORD} | Map\* | {WORD} | \[{CELL_LABEL}\] | \d+ | [(),;]
    )?""",
    re.VERBOSE,
)

# Kind names, which only ParseError messages use: whole tokens, then prefixes.
_KIND_OF_TOKEN = {
    "(": "LPAREN", ")": "RPAREN", ";": "SEMI", ",": "COMMA",
    **{word: word.upper() for word in RESERVED}, "Map*": "MAPSTAR", "CP^2": "CP2",
}
_KIND_OF_PREFIX = (
    ("S^", "SPHERE"), ("SCP2^", "SCP2"), ("Omega^", "OMEGA"), ("Sigma^", "SIGMA"),
    ("e^", "ECELL"), ("[", "LABEL"), (GAUGE, "GAUGE"),
)


def _tokenize(text: str) -> list[str]:
    match = _TOKEN.match
    tokens = []
    m = match(text)
    while (token := m[1]) is not None:
        tokens.append(token)
        m = match(text, m.end())
    pos = m.end()
    if pos < len(text):
        raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
    return tokens


# Truthy exactly for a gauge-atom token and for a group-name word token.
_is_gauge = re.compile(GAUGE + WORD).fullmatch
_is_name = NAME.fullmatch


def _kind(token: str) -> str:
    if _is_name(token):
        return "NAME"
    if token in _KIND_OF_TOKEN:
        return _KIND_OF_TOKEN[token]
    for prefix, kind in _KIND_OF_PREFIX:
        if token.startswith(prefix):
            return kind
    return "INT"


def _mismatch(expected: str, token: str) -> ParseError:
    return ParseError(f"expected {expected}, got {_kind(token)} {token!r}")


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens + [""]  # "" marks the end of the input
        self.pos = 0
        self.depth = 0  # factors open around the one being parsed

    def next(self) -> str:
        token = self.tokens[self.pos]
        if not token:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return token

    def expect(self, want: str) -> None:
        token = self.next()
        if token != want:
            raise _mismatch(_kind(want), token)

    def expect_int(self) -> str:
        token = self.next()
        if not token.isdecimal():
            raise _mismatch("INT", token)
        return token

    def parse_expr(self) -> SpaceExpr:
        first = self.parse_factor()
        op = self.tokens[self.pos]
        if op != "x" and op != "v":
            return first
        parts = [first]
        while self.tokens[self.pos] == op:
            self.pos += 1
            parts.append(self.parse_factor())
        if self.tokens[self.pos] in ("x", "v"):
            raise ParseError("cannot mix x and v without parentheses")
        return product(*parts) if op == "x" else wedge(*parts)

    def parse_factor(self) -> SpaceExpr:
        if self.depth > MAX_DEPTH:
            raise ParseError("expression nested too deeply")
        self.depth += 1
        token = self.tokens[self.pos]
        if token.startswith(("Omega^", "Sigma^")):
            self.pos += 1
            power = int(token[6:])
            if power < 1:
                raise ParseError(f"{token} needs a power >= 1")
            build = loop if token[0] == "O" else suspension
            expr = build(power, self.parse_factor())
        else:
            expr = self.parse_primary()
            if self.tokens[self.pos] == "u":
                self.pos += 1
                label = None
                if self.tokens[self.pos].startswith("["):
                    label = self.next()[1:-1]
                top = self.next()
                if not top.startswith("e^"):
                    raise _mismatch("ECELL", top)
                expr = attached(expr, int(top[2:]), label)
        self.depth -= 1
        return expr

    def parse_primary(self) -> SpaceExpr:
        token = self.next()
        if token.startswith("S^"):
            return Sphere(int(token[2:]))
        if _is_name(token):
            return LieGroup(self.parse_lie_suffix(token))
        if token == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if _is_gauge(token):
            self.expect("(")
            base = self.parse_expr()
            group = None
            if self.tokens[self.pos] == ";":
                self.pos += 1
                group = self.parse_group_name()
            self.expect(")")
            return gauge(base, token[len(GAUGE):], group)
        if token == "Map*":
            self.expect("(")
            domain = self.parse_expr()
            self.expect(",")
            codomain = self.parse_expr()
            self.expect(")")
            return MappingSpace(domain, codomain)
        if token == "TC":
            self.expect("(")
            bottom = int(self.expect_int())
            self.expect(",")
            top = int(self.expect_int())
            self.expect(";")
            residue = int(self.expect_int())
            self.expect("mod")
            modulus = int(self.expect_int())
            self.expect(")")
            if top != 2 * bottom:
                raise ParseError(f"two-cell complex must be TC(n,2n;...), got TC({bottom},{top};...)")
            return two_cell(bottom, CyclicElem(residue, modulus))
        if token.startswith("SCP2^"):
            return SuspCP2(int(token[5:]))
        if token == "CP^2":
            return SuspCP2(0)
        raise ParseError(f"unexpected token {_kind(token)} {token!r}")

    def parse_group_name(self) -> str:
        name = self.next()
        if not _is_name(name):
            raise _mismatch("NAME", name)
        return self.parse_lie_suffix(name)

    def parse_lie_suffix(self, name: str) -> str:
        if self.tokens[self.pos] == "(":
            self.pos += 1
            rank = self.expect_int()
            self.expect(")")
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
    token = parser.tokens[parser.pos]
    if token:
        raise ParseError(f"trailing input at token {_kind(token)} {token!r}")
    return expr
