"""gaugekit: suspension splittings of highly connected manifolds and product
decompositions of their gauge groups, computed exactly and symbolically."""

from .exact import CyclicElem, bernoulli, gcd_mod, imj_order
from .groups import FGAbelianGroup
from .modmatrix import (
    AttachingMatrix,
    F2Matrix,
    ReductionReport,
    RowOp,
    apply_rowop,
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
from .parser import ParseError, parse
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
    gauge_decompose_complex,
    gauge_decompose_n2,
    gauge_decompose_sphere_bundle,
    gauge_decompose_wall,
    index_e,
    skeleton_split_n2,
    suspension_split_wall,
)

__version__ = "0.1.0"
