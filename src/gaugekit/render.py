"""Deterministic text and LaTeX rendering of space expressions.

The text format round-trips through the parser; see README for the
grammar.  LaTeX output is one-way.
"""

from __future__ import annotations

from .spaces import (
    AttachedComplex,
    Gauge,
    LieGroup,
    Loop,
    MappingSpace,
    Product,
    SpaceExpr,
    Sphere,
    SuspCP2,
    Suspension,
    TwoCell,
    Wedge,
    _not_a_space,
)

__all__ = ["render", "render_text", "render_latex"]

# Operand kinds that render in parentheses.  A prefix takes a factor, so
# under a loop or suspension these are the chains and, for readability,
# attached complexes.  A prefix skeleton needs them too: "u" would otherwise
# attach the cell to the prefix's operand.
_PREFIX_OPEN_TEXT = (Wedge, Product, AttachedComplex)
_SKELETON_OPEN_TEXT = (Wedge, Product, AttachedComplex, Suspension, Loop)


def _paren_text(e: SpaceExpr, kinds) -> str:
    return f"({render_text(e)})" if type(e) in kinds else render_text(e)


_TEXT = {
    Sphere: lambda e: f"S^{e.n}",
    SuspCP2: lambda e: "CP^2" if e.k == 0 else f"SCP2^{e.k}",
    TwoCell: lambda e: f"TC({e.bottom},{e.top};{e.attach.value} mod {e.attach.modulus})",
    AttachedComplex: lambda e: (
        f"{_paren_text(e.skeleton, _SKELETON_OPEN_TEXT)} "
        f"{f'u[{e.label}]' if e.label else 'u'} e^{e.top}"
    ),
    LieGroup: lambda e: e.name,
    MappingSpace: lambda e: f"Map*({render_text(e.domain)}, {render_text(e.codomain)})",
    Gauge: lambda e: f"G_{e.label}({render_text(e.base)}{f'; {e.group}' if e.group else ''})",
    Loop: lambda e: f"Omega^{e.power} {_paren_text(e.space, _PREFIX_OPEN_TEXT)}",
    Suspension: lambda e: f"Sigma^{e.power} {_paren_text(e.space, _PREFIX_OPEN_TEXT)}",
    Wedge: lambda e: " v ".join(_paren_text(p, (Product,)) for p in e.parts),
    Product: lambda e: " x ".join(_paren_text(p, (Wedge,)) for p in e.parts),
}


def render_text(e: SpaceExpr) -> str:
    return _TEXT.get(type(e), _not_a_space)(e)


def _paren_latex(e: SpaceExpr, kinds) -> str:
    return f"({render_latex(e)})" if type(e) in kinds else render_latex(e)


_CP2_LATEX = r"\mathbb{C}P^{2}"
_LIE_LATEX = {"E6": "E_6", "E7": "E_7", "E8": "E_8"}
_LABEL_LATEX = {"alpha": r"\alpha"}
_LOOP_OPEN_LATEX = (Wedge, Product, AttachedComplex, Suspension, TwoCell)
_SIGMA_OPEN_LATEX = (Wedge, Product, AttachedComplex, TwoCell)

_LATEX = {
    Sphere: lambda e: f"S^{{{e.n}}}",
    SuspCP2: lambda e: _CP2_LATEX if e.k == 0 else rf"\Sigma^{{{e.k}}}{_CP2_LATEX}",
    TwoCell: lambda e: rf"S^{{{e.bottom}}} \cup_{{{e.attach.value}}} e^{{{e.top}}}",
    AttachedComplex: lambda e: (
        rf"{_paren_latex(e.skeleton, (Wedge, Product))} "
        rf"\cup{f'_{{{e.label}}}' if e.label else ''} e^{{{e.top}}}"
    ),
    LieGroup: lambda e: _LIE_LATEX.get(e.name, e.name),
    MappingSpace: lambda e: (
        rf"{{\rm Map}}^{{\ast}}({render_latex(e.domain)}, {render_latex(e.codomain)})"
    ),
    Gauge: lambda e: (
        rf"\mathcal{{G}}_{{{_LABEL_LATEX.get(e.label, e.label)}}}({render_latex(e.base)})"
    ),
    Loop: lambda e: rf"\Omega^{{{e.power}}} {_paren_latex(e.space, _LOOP_OPEN_LATEX)}",
    Suspension: lambda e: (
        rf"\Sigma{f'^{{{e.power}}}' if e.power > 1 else ''} "
        rf"{_paren_latex(e.space, _SIGMA_OPEN_LATEX)}"
    ),
    Wedge: lambda e: r" \vee ".join(_paren_latex(p, (Product,)) for p in e.parts),
    Product: lambda e: r" \times ".join(_paren_latex(p, (Wedge,)) for p in e.parts),
}


def render_latex(e: SpaceExpr) -> str:
    return _LATEX.get(type(e), _not_a_space)(e)


def render(e: SpaceExpr, fmt: str = "text") -> str:
    """Render an expression deterministically; "text" or "latex"."""
    if fmt == "text":
        return render_text(e)
    if fmt == "latex":
        return render_latex(e)
    raise ValueError(f"unknown format {fmt!r}")
