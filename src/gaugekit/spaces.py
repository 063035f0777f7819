"""Symbolic space expressions: spheres, suspended projective planes,
two-cell complexes, attached complexes, loop and mapping spaces, gauge
atoms, and their wedge/product combinations.

Expressions are immutable trees with a canonical normal form: wedge and
product lists are flattened and sorted under one fixed total order,
singleton combinations collapse, loop and suspension powers merge,
suspensions push through wedges and shift spheres and suspended projective
planes, and a two-cell complex whose attaching class is the zero residue
splits into the wedge of its cells.

The smart constructors take canonical arguments and return canonical
trees, each by one rewriting step at the top of the tree.  `normalize` and
`localize` accept any tree: both rebuild it bottom-up through the smart
constructors in a single walk, and `localize` also splits the two-cell
complexes whose attaching class dies away from its primes.

Names and labels are written into the text form as they are, so the nodes
that carry them accept only those that read back as the same tokens; the
name grammar below is the one the parser's tokens are built from.
"""

from __future__ import annotations

import re
from typing import Iterable

from .exact import CyclicElem, element_order, prime_to_part
from .value import Value, set_field

__all__ = [
    "SpaceExpr",
    "Sphere",
    "SuspCP2",
    "TwoCell",
    "AttachedComplex",
    "LieGroup",
    "MappingSpace",
    "Gauge",
    "Wedge",
    "Product",
    "Loop",
    "Suspension",
    "wedge",
    "product",
    "loop",
    "suspension",
    "two_cell",
    "attached",
    "gauge",
    "normalize",
    "localize",
    "sort_key",
]


# --- the name grammar ---------------------------------------------------------
# The parser builds its tokens from these pieces.  `\w` and `\d` keep
# Python's Unicode meaning.
WORD = r"[A-Za-z]\w*"  # a gauge label, and a group name before its rank
RESERVED = ("x", "v", "u", "mod", "TC")  # words that are tokens of their own
GAUGE = "G_"  # with a word after it, opens a gauge atom G_label(...)
CELL_LABEL = r"[^\]]*"  # the label of a cell attachment u[label]: no "]"

# A group name is NAME or NAME(INT), NAME a word that is not reserved and
# does not open a gauge atom.
NAME = re.compile(rf"(?!(?:{'|'.join(RESERVED)})\b|{GAUGE}{WORD}){WORD}")
_is_group = re.compile(rf"{NAME.pattern}(?:\(\d+\))?").fullmatch
_is_gauge_label = re.compile(WORD).fullmatch


def _not_a_group(name: str) -> ValueError:
    return ValueError(f"group must be a Lie group name NAME or NAME(INT), got {name!r}")


class SpaceExpr(Value):
    """Base class for all space expressions."""

    __slots__ = ()


class Sphere(SpaceExpr):
    __slots__ = ("n",)
    n: int

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("sphere dimension must be >= 0")
        set_field(self, "n", n)


class SuspCP2(SpaceExpr):
    """The k-fold suspension of the complex projective plane (k = 0 is the
    plane itself); cells in dimensions k+2 and k+4."""

    __slots__ = ("k",)
    k: int

    def __init__(self, k: int):
        if k < 0:
            raise ValueError("suspension power must be >= 0")
        set_field(self, "k", k)


class TwoCell(SpaceExpr):
    """S^bottom with a (2*bottom)-cell attached along a class recorded as a
    residue with its modulus."""

    __slots__ = ("bottom", "attach")
    bottom: int
    attach: CyclicElem

    def __init__(self, bottom: int, attach: CyclicElem):
        set_field(self, "bottom", bottom)
        set_field(self, "attach", attach)

    @property
    def top(self) -> int:
        return 2 * self.bottom


class AttachedComplex(SpaceExpr):
    """A wedge skeleton with one top cell attached along a symbolic class
    (label None when the class is unspecified); a label has no "]"."""

    __slots__ = ("skeleton", "top", "label")
    skeleton: SpaceExpr
    top: int
    label: str | None

    def __init__(self, skeleton: SpaceExpr, top: int, label: str | None = None):
        if label and "]" in label:
            raise ValueError(f"cell label must not contain ']', got {label!r}")
        set_field(self, "skeleton", skeleton)
        set_field(self, "top", top)
        set_field(self, "label", label)


class LieGroup(SpaceExpr):
    """A structure group, named NAME or NAME(INT) in the name grammar."""

    __slots__ = ("name",)
    name: str

    def __init__(self, name: str):
        if _is_group(name) is None:
            raise _not_a_group(name)
        set_field(self, "name", name)


class MappingSpace(SpaceExpr):
    """Based mapping space, basepoint component."""

    __slots__ = ("domain", "codomain")
    domain: SpaceExpr
    codomain: SpaceExpr

    def __init__(self, domain: SpaceExpr, codomain: SpaceExpr):
        set_field(self, "domain", domain)
        set_field(self, "codomain", codomain)


class Gauge(SpaceExpr):
    """Gauge-group atom G_label(base), its label a word; the structure group
    annotation is optional and omitted from the text render when absent."""

    __slots__ = ("base", "label", "group")
    base: SpaceExpr
    label: str
    group: str | None

    def __init__(self, base: SpaceExpr, label: str = "k", group: str | None = None):
        if _is_gauge_label(label) is None:
            raise ValueError(
                f"gauge label must be an ASCII letter followed by word characters, got {label!r}"
            )
        if group and _is_group(group) is None:
            raise _not_a_group(group)
        set_field(self, "base", base)
        set_field(self, "label", label)
        set_field(self, "group", group)


class Wedge(SpaceExpr):
    __slots__ = ("parts",)
    parts: tuple[SpaceExpr, ...]

    def __init__(self, parts: Iterable[SpaceExpr]):
        set_field(self, "parts", tuple(parts))


class Product(SpaceExpr):
    __slots__ = ("parts",)
    parts: tuple[SpaceExpr, ...]

    def __init__(self, parts: Iterable[SpaceExpr]):
        set_field(self, "parts", tuple(parts))


class Loop(SpaceExpr):
    __slots__ = ("power", "space")
    power: int
    space: SpaceExpr

    def __init__(self, power: int, space: SpaceExpr):
        if power < 1:
            raise ValueError("loop power must be >= 1")
        set_field(self, "power", power)
        set_field(self, "space", space)


class Suspension(SpaceExpr):
    __slots__ = ("power", "space")
    power: int
    space: SpaceExpr

    def __init__(self, power: int, space: SpaceExpr):
        if power < 1:
            raise ValueError("suspension power must be >= 1")
        set_field(self, "power", power)
        set_field(self, "space", space)


# --- canonical order --------------------------------------------------------

def _not_a_space(e, *args):
    """The miss path of every per-kind dispatch table."""
    raise TypeError(f"not a space expression: {e!r}")


# One entry per node class; the rank that leads each key orders the kinds.
_KEY = {
    Gauge: lambda e: (0, sort_key(e.base), e.label, e.group or ""),
    AttachedComplex: lambda e: (1, e.top, sort_key(e.skeleton), e.label or ""),
    TwoCell: lambda e: (2, e.bottom, e.attach.modulus, e.attach.value),
    Suspension: lambda e: (3, sort_key(e.space), e.power),
    SuspCP2: lambda e: (4, e.k),
    Sphere: lambda e: (5, e.n),
    LieGroup: lambda e: (6, e.name),
    MappingSpace: lambda e: (7, sort_key(e.domain), sort_key(e.codomain)),
    Loop: lambda e: (8, e.power, sort_key(e.space)),
    Wedge: lambda e: (9, tuple(sort_key(p) for p in e.parts)),
    Product: lambda e: (10, tuple(sort_key(p) for p in e.parts)),
}


def sort_key(e: SpaceExpr):
    return _KEY.get(type(e), _not_a_space)(e)


# --- smart constructors (canonical arguments, one rewriting step) -----------

def two_cell(bottom: int, attach: CyclicElem) -> SpaceExpr:
    """Two-cell complex S^bottom cup e^(2*bottom); the zero attaching class
    splits it into the wedge of its cells."""
    if attach.value == 0:
        return wedge(Sphere(bottom), Sphere(2 * bottom))
    return TwoCell(bottom, attach)


def attached(skeleton: SpaceExpr, top: int, label: str | None = None) -> SpaceExpr:
    """An empty label is no label: both render alike, so they must be equal."""
    if not isinstance(skeleton, SpaceExpr):
        _not_a_space(skeleton)
    return AttachedComplex(skeleton, top, label or None)


def gauge(base: SpaceExpr, label: str = "k", group: str | None = None) -> Gauge:
    """An empty group annotation is no annotation, as for `attached`."""
    if not isinstance(base, SpaceExpr):
        _not_a_space(base)
    return Gauge(base, label, group or None)


def _flatten(cls, parts) -> list[SpaceExpr]:
    out: list[SpaceExpr] = []
    for p in parts:
        if isinstance(p, cls):
            out.extend(p.parts)
        elif isinstance(p, SpaceExpr):
            out.append(p)
        else:
            _not_a_space(p)
    return out


def wedge(*parts: SpaceExpr) -> SpaceExpr:
    flat = _flatten(Wedge, parts)
    if not flat:
        raise ValueError("wedge of no spaces")
    if len(flat) == 1:
        return flat[0]
    return Wedge(tuple(sorted(flat, key=sort_key)))


def product(*parts: SpaceExpr) -> SpaceExpr:
    flat = _flatten(Product, parts)
    if not flat:
        raise ValueError("product of no spaces")
    if len(flat) == 1:
        return flat[0]
    return Product(tuple(sorted(flat, key=sort_key)))


def loop(power: int, space: SpaceExpr) -> SpaceExpr:
    if isinstance(space, Loop):
        return Loop(power + space.power, space.space)
    if not isinstance(space, SpaceExpr):
        _not_a_space(space)
    return Loop(power, space)


def suspension(power: int, space: SpaceExpr) -> SpaceExpr:
    if isinstance(space, Suspension):
        return Suspension(power + space.power, space.space)
    if isinstance(space, Sphere):
        return Sphere(space.n + power)
    if isinstance(space, SuspCP2):
        return SuspCP2(space.k + power)
    if isinstance(space, Wedge):
        return wedge(*(suspension(power, p) for p in space.parts))
    if not isinstance(space, SpaceExpr):
        _not_a_space(space)
    return Suspension(power, space)


# --- canonical form -----------------------------------------------------------

def _split_away(e: SpaceExpr, primes: frozenset[int]) -> SpaceExpr:
    """A two-cell complex whose attaching class has order with all its prime
    factors in `primes` splits into its cells."""
    if primes and isinstance(e, TwoCell):
        if prime_to_part(element_order(e.attach.value, e.attach.modulus), primes) == 1:
            return wedge(Sphere(e.bottom), Sphere(e.top))
    return e


_REBUILD = {
    Sphere: lambda e, primes: e,
    SuspCP2: lambda e, primes: e,
    LieGroup: lambda e, primes: e,
    TwoCell: lambda e, primes: _split_away(two_cell(e.bottom, e.attach), primes),
    AttachedComplex: lambda e, primes: attached(_rebuild(e.skeleton, primes), e.top, e.label),
    MappingSpace: lambda e, primes: MappingSpace(
        _rebuild(e.domain, primes), _rebuild(e.codomain, primes)
    ),
    Gauge: lambda e, primes: gauge(_rebuild(e.base, primes), e.label, e.group),
    Wedge: lambda e, primes: wedge(*(_rebuild(p, primes) for p in e.parts)),
    Product: lambda e, primes: product(*(_rebuild(p, primes) for p in e.parts)),
    Loop: lambda e, primes: loop(e.power, _rebuild(e.space, primes)),
    Suspension: lambda e, primes: suspension(e.power, _rebuild(e.space, primes)),
}


def _rebuild(e: SpaceExpr, primes: frozenset[int]) -> SpaceExpr:
    """Bottom-up rebuild of an arbitrary tree through the smart constructors,
    splitting the two-cell complexes that die away from `primes`."""
    return _REBUILD.get(type(e), _not_a_space)(e, primes)


def normalize(e: SpaceExpr) -> SpaceExpr:
    """Canonical form of an arbitrary expression tree."""
    return _rebuild(e, frozenset())


def localize(e: SpaceExpr, primes: frozenset[int] | set[int]) -> SpaceExpr:
    """Canonical form of an arbitrary expression tree, localized away from a
    set of primes: every two-cell complex whose attaching class has order
    invertible after the primes are inverted (all prime factors of the order
    lie in the set) splits.  Idempotent; the empty set gives `normalize`."""
    return _rebuild(e, frozenset(primes))
