"""gaugekit: suspension splittings of highly connected manifolds and product
decompositions of their gauge groups, computed exactly and symbolically."""

from .exact import CyclicElem, bernoulli, gcd_mod, imj_order
from .groups import FGAbelianGroup
from .modmatrix import (
    AttachingMatrix,
    F2Matrix,
    RowOp,
    nonzero_column_count,
    rank_f2,
    reduce_with_report,
    replay_oplog,
    rowop_orbit,
)
from .tables import (
    GroupQueryResult,
    HypothesisNotMetError,
    NotTabulatedError,
    Tables,
    default_tables,
)
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
    localize,
    normalize,
)
from .render import render, render_latex, render_text
from .manifolds import (
    GeneralComplex,
    N2Manifold,
    SigmaFCase,
    SphereBundle,
    WallManifold,
)
from .decompose import (
    CaseInapplicableError,
    Decomposition,
    DecompositionError,
    NoSplittingError,
    UnsupportedManifoldError,
    decompose,
    index_e,
    skeleton_split_n2,
    suspension_split_wall,
)

__version__ = "0.1.0"

_LAZY = ("parse", "ParseError")


def __getattr__(name: str):
    """`parse` and `ParseError` load the expression parser on first use, so
    the CLI, which never parses an expression, does not import it."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import parser

    value = globals()[name] = getattr(parser, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
