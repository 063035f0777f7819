"""Input data models: the combinatorial descriptions of the manifolds and
complexes whose gauge groups get decomposed.

These carry exactly the homotopy-theoretic data the decompositions consume;
nothing here is computed from geometry.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable

from .exact import CyclicElem, imj_order
from .modmatrix import AttachingMatrix, F2Matrix
from .value import Value, set_field

__all__ = [
    "WallManifold",
    "SphereBundle",
    "N2Manifold",
    "GeneralComplex",
    "SigmaFCase",
    "chi_modulus",
]


def chi_modulus(n: int) -> int:
    """Modulus of the middle-cohomology attaching invariants of an
    (n-1)-connected 2n-manifold: the order of the stable J-image in the
    (n-1)-stem.  n = 2 is admitted with modulus 2 (the 1-stem); every wall
    gets its n >= 2 check here."""
    if n < 2:
        raise ValueError(f"wall manifolds need n >= 2, got {n}")
    if n == 2:
        return 2
    return imj_order(n)


class WallManifold(Value):
    """An oriented (n-1)-connected closed 2n-manifold of rank m, described by
    the residues of the composite (J-homomorphism after the normal-bundle
    invariant) on a basis of middle cohomology."""

    __slots__ = ("n", "chi", "almost_parallelizable")
    n: int
    chi: tuple[CyclicElem, ...]
    almost_parallelizable: bool

    def __init__(
        self, n: int, chi: Iterable[CyclicElem], almost_parallelizable: bool = False
    ) -> None:
        d = chi_modulus(n)
        chi = tuple(chi)
        if not chi:
            raise ValueError("rank must be >= 1 (one residue per cohomology generator)")
        for c in chi:
            if c.modulus != d:
                raise ValueError(f"chi residues for n={n} must have modulus {d}, got {c.modulus}")
        set_field(self, "n", n)
        set_field(self, "chi", chi)
        set_field(self, "almost_parallelizable", almost_parallelizable)

    @classmethod
    def of(
        cls,
        n: int,
        chi_values: Iterable[int],
        almost_parallelizable: bool = False,
    ) -> "WallManifold":
        d = chi_modulus(n)
        return cls(n, tuple(CyclicElem(v, d) for v in chi_values), almost_parallelizable)

    @property
    def m(self) -> int:
        return len(self.chi)

    @property
    def modulus(self) -> int:
        return self.chi[0].modulus

    @property
    def dimension(self) -> int:
        return 2 * self.n

    @property
    def connectivity(self) -> int:
        return self.n - 1


class SphereBundle(Value):
    """The total space of the sphere bundle of an oriented (q+1)-plane bundle
    over S^n.  j_xi_trivial records reducibility (the composite of the
    J-homomorphism with the clutching data vanishes), which over a sphere is
    equivalent to the Thom space splitting."""

    __slots__ = ("q", "n", "has_section", "j_xi_trivial", "clutching_note")
    q: int
    n: int
    has_section: bool
    j_xi_trivial: bool
    clutching_note: str

    def __init__(
        self,
        q: int,
        n: int,
        has_section: bool = False,
        j_xi_trivial: bool = False,
        clutching_note: str = "",
    ) -> None:
        if q < 1 or n < 1:
            raise ValueError("need fibre and base dimensions >= 1")
        set_field(self, "q", q)
        set_field(self, "n", n)
        set_field(self, "has_section", has_section)
        set_field(self, "j_xi_trivial", j_xi_trivial)
        set_field(self, "clutching_note", clutching_note)

    @property
    def dimension(self) -> int:
        return self.q + self.n


class SigmaFCase(Enum):
    """Which summand of the (n+1)-skeleton the suspended top attaching map
    lands in; supplied by the user because the class itself is not pinned
    down by the input data."""

    GENERAL = "general"
    IN_SUSPENDED_CP2 = "in_suspended_cp2"
    IN_BOTTOM_SPHERES = "in_bottom_spheres"
    IN_TOP_SPHERE = "in_top_sphere"
    NULL_HOMOTOPIC = "null"


class N2Manifold(Value):
    """An oriented (n-2)-connected closed 2n-manifold (n = 6 or 8) of rank m,
    with the mod-2 matrix recording how the (n+1)-cells attach to the
    (n-1)-spheres, and the user's case selection for the top attaching map."""

    __slots__ = ("n", "C", "sigma_f_case")
    n: int
    C: F2Matrix
    sigma_f_case: SigmaFCase

    def __init__(self, n: int, C: F2Matrix, sigma_f_case: SigmaFCase = SigmaFCase.GENERAL) -> None:
        if n not in (6, 8):
            raise ValueError(f"only n = 6 and n = 8 are supported, got n={n}")
        if C.size < 1:
            raise ValueError("rank must be >= 1")
        if n == 6 and sigma_f_case is SigmaFCase.IN_TOP_SPHERE:
            raise ValueError(
                "the in_top_sphere case exists only for n = 8 (the 12-dimensional "
                "theorem has four cases)"
            )
        set_field(self, "n", n)
        set_field(self, "C", C)
        set_field(self, "sigma_f_case", sigma_f_case)

    @property
    def m(self) -> int:
        return self.C.size

    @property
    def dimension(self) -> int:
        return 2 * self.n

    @property
    def connectivity(self) -> int:
        return self.n - 2


class GeneralComplex(Value):
    """An (n-1)-connected two-cone complex: a wedge of m n-spheres with one
    2n-cell attached, described by the matrix of its suspended attaching
    map over the cyclic decomposition of the (n-1)-stem."""

    __slots__ = ("n", "B")
    n: int
    B: AttachingMatrix

    def __init__(self, n: int, B: AttachingMatrix) -> None:
        if n < 2:
            raise ValueError(f"need n >= 2, got n={n}")
        set_field(self, "n", n)
        set_field(self, "B", B)

    @property
    def m(self) -> int:
        return self.B.m

    @property
    def dimension(self) -> int:
        return 2 * self.n
