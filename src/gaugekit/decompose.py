"""Theorem dispatch: from a manifold/complex description and a structure
group to the suspension splitting and the gauge-group product decomposition.

Every emitted decomposition records the rule it used and the primes it
localized away; every hypothesis is checked against the homotopy tables and
failures surface as typed errors, never as guesses.
"""

from __future__ import annotations

from typing import Iterable

from .exact import CyclicElem, is_prime, subgroup_generator
from .manifolds import GeneralComplex, N2Manifold, SigmaFCase, SphereBundle, WallManifold
from .modmatrix import nonzero_column_count, rank_f2, reduce_with_report
from .spaces import (
    LieGroup,
    MappingSpace,
    Product,
    SpaceExpr,
    Sphere,
    SuspCP2,
    attached,
    gauge,
    localize,
    loop,
    product,
    suspension,
    two_cell,
    wedge,
)
from .groups import Z
from .tables import NotTabulatedError, Tables, default_tables
from .value import Value, set_field

__all__ = [
    "DecompositionError",
    "UnsupportedManifoldError",
    "NoSplittingError",
    "CaseInapplicableError",
    "Decomposition",
    "index_e",
    "suspension_split_wall",
    "gauge_decompose_wall",
    "gauge_decompose_complex",
    "gauge_decompose_sphere_bundle",
    "skeleton_split_n2",
    "gauge_decompose_n2",
    "decompose",
]


class DecompositionError(Exception):
    """A theorem hypothesis failed; the message names it and its source."""


class UnsupportedManifoldError(DecompositionError):
    pass


class NoSplittingError(DecompositionError):
    pass


class CaseInapplicableError(DecompositionError):
    pass


class Decomposition(Value):
    """A suspension splitting together with the matching gauge-group product,
    the rule that produced them, and the localization applied."""

    __slots__ = ("suspension", "gauge", "theorem_used", "localized_away", "base_space")
    suspension: SpaceExpr
    gauge: SpaceExpr
    theorem_used: str
    localized_away: frozenset[int]
    base_space: SpaceExpr | None

    def __init__(
        self,
        suspension: SpaceExpr,
        gauge: SpaceExpr,
        theorem_used: str,
        localized_away: frozenset[int] = frozenset(),
        base_space: SpaceExpr | None = None,
    ) -> None:
        set_field(self, "suspension", suspension)
        set_field(self, "gauge", gauge)
        set_field(self, "theorem_used", theorem_used)
        set_field(self, "localized_away", localized_away)
        set_field(self, "base_space", base_space)

    def gauge_factors(self) -> tuple[SpaceExpr, ...]:
        if isinstance(self.gauge, Product):
            return self.gauge.parts
        return (self.gauge,)


def _away(localize_away: Iterable[int]) -> frozenset[int]:
    away = frozenset(localize_away)
    for p in away:
        if not is_prime(p):
            raise ValueError(f"localize_away must contain primes, got {p}")
    return away


def _gauge_label(tables: Tables, group: str, dimension: int, strict: bool) -> str:
    """"k" when the bundle classes pi_{dimension-1}(G) are tabulated as the
    integers, else the generic class label "alpha".  Untabulated classes
    raise NotTabulatedError when `strict`, and get "alpha" otherwise."""
    try:
        classes = tables.pi(group, dimension - 1).group
    except NotTabulatedError:
        if strict:
            raise
        return "alpha"
    return "k" if classes == Z else "alpha"


def _split(
    base: SpaceExpr,
    summands: list[SpaceExpr],
    label: str,
    group: str,
    theorem: str,
    away: frozenset[int] = frozenset(),
    base_space: SpaceExpr | None = None,
) -> Decomposition:
    """The splitting rule: a suspension splitting Sigma(base) v (wedge of
    Sigma X) gives G_label(base) x (product of Map*(X, G)), where X = S^k
    contributes Omega^k G and X = SCP2^k contributes Omega^k Map*(CP^2, G)."""
    G = LieGroup(group)
    factors = [
        loop(x.n, G) if isinstance(x, Sphere) else loop(x.k, MappingSpace(SuspCP2(0), G))
        for x in summands
    ]
    return Decomposition(
        wedge(suspension(1, base), *(suspension(1, x) for x in summands)),
        product(gauge(base, label), *factors),
        theorem,
        away,
        base_space,
    )


def _cone(cells: list[SpaceExpr], top: int, label: str | None = None) -> SpaceExpr:
    """A top cell attached to the wedge of `cells`; the bare S^top when
    there are none."""
    return attached(wedge(*cells), top, label) if cells else Sphere(top)


# --- (n-1)-connected 2n-manifolds -------------------------------------------

def index_e(M: WallManifold) -> CyclicElem:
    """Least positive generator of the subgroup generated by the chi residues
    (the minimum positive element of the image, 0 if the image is trivial),
    as a residue modulo the stable J-image order."""
    d = M.modulus
    return CyclicElem(subgroup_generator((c.value for c in M.chi), d), d)


_ADAMS_QUILLEN = "stable J-image orders after Adams (1966) and Quillen (1971)"


def _wall_base(
    M: WallManifold, away: frozenset[int], group: str | None
) -> tuple[SpaceExpr, int, str]:
    """The base of the splitting, S^2n or TC(n, e), the count of n-spheres
    left beside it (m, or m-1 beside the two-cell complex), and the reason
    for that shape, always set.  The J-image case is read off the modulus:
    1 exactly for n = 3,5,6,7 mod 8, and 2 exactly for n = 1,2 mod 8."""
    n, e = M.n, index_e(M)
    if e.modulus == 1:
        reason = f"trivial J-image case (n = {n} is 3,5,6,7 mod 8; {_ADAMS_QUILLEN})"
    elif e.is_zero():
        reason = "null attaching residue: the top cell splits off"
    elif e.modulus == 2 and 2 in away:
        reason = "mod-2 case localized away from 2: the two-cell complex splits"
    elif M.almost_parallelizable and n == 8 and group == "E8" and {3, 5} <= away:
        reason = (
            "almost-parallelizable 16-manifold localized away from {3,5}: "
            "the degree-8 Steenrod square vanishes, so the 2-primary "
            "attaching residue dies (Wu formula)"
        )
    else:
        if e.modulus == 2:
            reason = f"mod-2 case (n = {n} is 1,2 mod 8; {_ADAMS_QUILLEN})"
        else:
            reason = (
                "n = 4s case, attaching residue modulo the denominator of B_s/4s "
                f"({_ADAMS_QUILLEN})"
            )
        return two_cell(n, e), M.m - 1, reason
    return Sphere(2 * n), M.m, reason


def suspension_split_wall(M: WallManifold) -> SpaceExpr:
    """Suspension splitting of an (n-1)-connected 2n-manifold (n >= 3): a
    wedge of spheres, with one suspended two-cell complex when the image of
    chi is nontrivial."""
    if M.n < 3:
        raise UnsupportedManifoldError(
            "suspension splittings of rank-m 4-manifolds are prior work on "
            "simply connected 4-manifolds; this engine starts at n = 3"
        )
    base, spheres, _ = _wall_base(M, frozenset(), None)
    return wedge(suspension(1, base), *[Sphere(M.n + 1)] * spheres)


def gauge_decompose_wall(
    M: WallManifold,
    group: str,
    localize_away: Iterable[int] = (),
    tables: Tables | None = None,
) -> Decomposition:
    """Product decomposition of the gauge groups of principal bundles over an
    (n-1)-connected 2n-manifold with pi_{n-1}(G) = pi_n(G) = 0 (after the
    requested localization)."""
    tables = tables or default_tables()
    away = _away(localize_away)
    n = M.n
    if n < 3:
        raise UnsupportedManifoldError(
            "gauge groups over rank-m 4-manifolds are prior work on simply "
            "connected 4-manifolds; this engine starts at n = 3"
        )
    tables.require_vanishing(
        group,
        n - 1,
        n,
        "the gauge splitting over (n-1)-connected 2n-manifolds "
        f"(pi_{n - 1} and pi_{n} of the structure group must vanish)",
        away,
    )
    # the bundles are classified by pi_{2n-1}(G); an untabulated group there
    # surfaces as an error rather than a guessed class label
    label = _gauge_label(tables, group, M.dimension, strict=True)
    base, spheres, reason = _wall_base(M, away, group)
    theorem = f"gauge splitting over (n-1)-connected 2n-manifolds: {reason}"
    return _split(base, [Sphere(n)] * spheres, label, group, theorem, away)


# --- general two-cone complexes ----------------------------------------------

def gauge_decompose_complex(
    Zc: GeneralComplex,
    group: str,
    tables: Tables | None = None,
) -> Decomposition:
    """Gauge splitting of a wedge-of-n-spheres-with-one-2n-cell complex: each
    zero column of the reduced suspended attaching matrix splits off one
    n-sphere, hence one n-fold loop-group factor."""
    tables = tables or default_tables()
    n, m = Zc.n, Zc.m
    reduced, _report = reduce_with_report(Zc.B)
    t = nonzero_column_count(reduced)
    if t >= m:
        raise NoSplittingError(
            f"the reduced attaching matrix has t = {t} nonzero columns with "
            f"rank m = {m}; the splitting requires t < m (no sphere splits off)"
        )
    tables.require_vanishing(
        group,
        n - 1,
        n,
        "the two-cone gauge splitting "
        f"(pi_{n - 1} and pi_{n} of the structure group must vanish)",
    )
    return _split(
        _cone([Sphere(n)] * t, 2 * n),
        [Sphere(n)] * (m - t),
        "alpha",
        group,
        "two-cone gauge factorization via restricted row reduction of the "
        "suspended attaching matrix",
    )


# --- sphere bundles over spheres ---------------------------------------------

_JW = "James-Whitehead (1954) sphere bundles over spheres"


def gauge_decompose_sphere_bundle(
    E: SphereBundle,
    group: str,
    tables: Tables | None = None,
) -> Decomposition:
    """Gauge splitting of the total space of a sectioned sphere bundle of an
    oriented plane bundle over a sphere.  A reducible bundle in the stable
    range n <= 2q-1 yields a section automatically, the total space is a
    product of spheres, and the gauge group gains a third factor when
    pi_{q-1}(G) also vanishes."""
    tables = tables or default_tables()
    q, n = E.q, E.n
    stable_range = n <= 2 * q - 1
    if not E.has_section and not (E.j_xi_trivial and stable_range):
        raise UnsupportedManifoldError(
            "need a cross section, or reducibility with n <= 2q-1 (which "
            f"produces one via the Hopf-construction argument; {_JW}); got "
            f"q={q}, n={n}, section={E.has_section}, reducible={E.j_xi_trivial}"
        )
    tables.require_vanishing(
        group,
        n - 1,
        n - 1,
        f"the sectioned sphere-bundle gauge splitting (pi_{n - 1}(G) = 0)",
    )
    label = _gauge_label(tables, group, E.dimension, strict=False)

    if E.j_xi_trivial and stable_range:
        try:
            q_vanishes = tables.pi(group, q - 1).group.is_trivial()
        except NotTabulatedError:
            q_vanishes = False
        if q_vanishes:
            return _split(
                Sphere(q + n),
                [Sphere(n), Sphere(q)],
                label,
                group,
                f"reducible sphere bundle in the range n <= 2q-1: the total space "
                f"is S^q x S^n and the gauge group splits three ways ({_JW})",
                base_space=product(Sphere(q), Sphere(n)),
            )

    if E.j_xi_trivial:
        base: SpaceExpr = wedge(Sphere(q), Sphere(q + n))
    else:
        base = attached(Sphere(q), q + n, "J(xi)")
    return _split(
        base,
        [Sphere(n)],
        label,
        group,
        f"sectioned sphere-bundle gauge splitting: the Thom space of a plane "
        f"bundle over a sphere is a two-cell complex ({_JW})",
    )


# --- (n-2)-connected 2n-manifolds, n = 6, 8 ----------------------------------

# the cells of the (n+1)-skeleton the top cell attaches to, in each case: a
# copies of SCP2^{n-3}, b of S^{n-1} and h of S^{n+1}; every other cell
# gives one loop factor
_N2_CASES = {
    6: {
        SigmaFCase.GENERAL: (1, 1, 0),
        SigmaFCase.IN_SUSPENDED_CP2: (1, 0, 0),
        SigmaFCase.IN_BOTTOM_SPHERES: (0, 1, 0),
        SigmaFCase.NULL_HOMOTOPIC: (0, 0, 0),
    },
    8: {
        SigmaFCase.GENERAL: (4, 3, 1),
        SigmaFCase.IN_SUSPENDED_CP2: (4, 0, 0),
        SigmaFCase.IN_BOTTOM_SPHERES: (0, 3, 0),
        SigmaFCase.IN_TOP_SPHERE: (0, 0, 1),
        SigmaFCase.NULL_HOMOTOPIC: (0, 0, 0),
    },
}


def _n2_cells(n: int, a: int, b: int, h: int) -> list[SpaceExpr]:
    """a copies of SCP2^{n-3}, b of S^{n-1} and h of S^{n+1}."""
    return [SuspCP2(n - 3)] * a + [Sphere(n - 1)] * b + [Sphere(n + 1)] * h


def skeleton_split_n2(M: N2Manifold) -> SpaceExpr:
    """Homotopy type of the (n+1)-skeleton: the mod-2 rank c of the attaching
    matrix counts the suspended projective planes; the remaining m-c
    generators contribute sphere pairs."""
    c = rank_f2(M.C)
    return wedge(*_n2_cells(M.n, c, M.m - c, M.m - c))


def gauge_decompose_n2(
    M: N2Manifold,
    group: str,
    localize_away: Iterable[int] = (),
    tables: Tables | None = None,
) -> Decomposition:
    """Gauge decomposition over (n-2)-connected 2n-manifolds for the two
    exceptional cases (n, G) = (6, E7) and (8, E8), by the user-selected
    case of the suspended top attaching map; away from 2 the suspended
    projective planes split, which is the null case with c = 0."""
    tables = tables or default_tables()
    away = _away(localize_away)
    n, m = M.n, M.m
    if (n, group) not in ((6, "E7"), (8, "E8")):
        raise UnsupportedManifoldError(
            f"(n, G) = ({n}, {group}) is not covered; the (n-2)-connected "
            "decompositions are proved for (6, E7) and (8, E8)"
        )
    # bundle classification is integral even when the decomposition localizes
    tables.classify_bundles(M.dimension, M.connectivity, group)

    c = rank_f2(M.C)
    case = M.sigma_f_case
    which = f" (case: {case.value})"
    if 2 in away:
        case, c = SigmaFCase.NULL_HOMOTOPIC, 0
        which = ", localized away from 2 (suspended projective planes split)"
    cells = _N2_CASES[n][case]
    counts = []
    for name, whole, offset in zip(("c", "m-c", "m-c"), (c, m - c, m - c), cells):
        if offset:
            name += f"-{offset}"
        if whole < offset:
            raise CaseInapplicableError(
                f"factor count {name} = {whole - offset} is negative for rank m={m}, "
                f"mod-2 rank c={c} in case {case.value}; the theorem "
                "presupposes nonnegative counts"
            )
        counts.append(whole - offset)
    return _split(
        _cone(_n2_cells(n, *cells), 2 * n, "f" if case is SigmaFCase.GENERAL else None),
        _n2_cells(n, *counts),
        "k",
        group,
        f"{group}-gauge decomposition over {M.connectivity}-connected "
        f"{M.dimension}-manifolds{which}",
        away,
    )


# --- dispatcher ---------------------------------------------------------------

def decompose(
    manifold: WallManifold | SphereBundle | N2Manifold | GeneralComplex,
    group: str,
    localize_away: Iterable[int] = (),
    tables: Tables | None = None,
) -> Decomposition:
    """Dispatch on the input kind.  Every variant either produces a
    Decomposition or raises a typed error."""
    if isinstance(manifold, WallManifold):
        return gauge_decompose_wall(manifold, group, localize_away, tables)
    if isinstance(manifold, N2Manifold):
        return gauge_decompose_n2(manifold, group, localize_away, tables)
    if isinstance(manifold, SphereBundle):
        d = gauge_decompose_sphere_bundle(manifold, group, tables)
    elif isinstance(manifold, GeneralComplex):
        d = gauge_decompose_complex(manifold, group, tables)
    else:
        raise TypeError(f"not a manifold or complex description: {manifold!r}")
    # these theorems are integral; localization splits their results afterwards
    away = _away(localize_away)
    if not away:
        return d
    return Decomposition(
        localize(d.suspension, away), localize(d.gauge, away), d.theorem_used, away, d.base_space
    )
