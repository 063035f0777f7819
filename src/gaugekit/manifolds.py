"""Input data models: the combinatorial descriptions of the manifolds and
complexes whose gauge groups get decomposed.

These carry exactly the homotopy-theoretic data the decompositions consume;
nothing here is computed from geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .exact import CyclicElem, imj_order
from .modmatrix import AttachingMatrix, F2Matrix

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


@dataclass(frozen=True)
class WallManifold:
    """An oriented (n-1)-connected closed 2n-manifold of rank m, described by
    the residues of the composite (J-homomorphism after the normal-bundle
    invariant) on a basis of middle cohomology."""

    n: int
    chi: tuple[CyclicElem, ...]
    almost_parallelizable: bool = False

    def __post_init__(self) -> None:
        d = chi_modulus(self.n)
        if not self.chi:
            raise ValueError("rank must be >= 1 (one residue per cohomology generator)")
        for c in self.chi:
            if c.modulus != d:
                raise ValueError(
                    f"chi residues for n={self.n} must have modulus {d}, got {c.modulus}"
                )

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


@dataclass(frozen=True)
class SphereBundle:
    """The total space of the sphere bundle of an oriented (q+1)-plane bundle
    over S^n.  j_xi_trivial records reducibility (the composite of the
    J-homomorphism with the clutching data vanishes), which over a sphere is
    equivalent to the Thom space splitting."""

    q: int
    n: int
    has_section: bool = False
    j_xi_trivial: bool = False
    clutching_note: str = ""

    def __post_init__(self) -> None:
        if self.q < 1 or self.n < 1:
            raise ValueError("need fibre and base dimensions >= 1")

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


@dataclass(frozen=True)
class N2Manifold:
    """An oriented (n-2)-connected closed 2n-manifold (n = 6 or 8) of rank m,
    with the mod-2 matrix recording how the (n+1)-cells attach to the
    (n-1)-spheres, and the user's case selection for the top attaching map."""

    n: int
    C: F2Matrix
    sigma_f_case: SigmaFCase = SigmaFCase.GENERAL

    def __post_init__(self) -> None:
        if self.n not in (6, 8):
            raise ValueError(f"only n = 6 and n = 8 are supported, got n={self.n}")
        if self.C.size < 1:
            raise ValueError("rank must be >= 1")
        if self.n == 6 and self.sigma_f_case is SigmaFCase.IN_TOP_SPHERE:
            raise ValueError(
                "the in_top_sphere case exists only for n = 8 (the 12-dimensional "
                "theorem has four cases)"
            )

    @property
    def m(self) -> int:
        return self.C.size

    @property
    def dimension(self) -> int:
        return 2 * self.n

    @property
    def connectivity(self) -> int:
        return self.n - 2


@dataclass(frozen=True)
class GeneralComplex:
    """An (n-1)-connected two-cone complex: a wedge of m n-spheres with one
    2n-cell attached, described by the matrix of its suspended attaching
    map over the cyclic decomposition of the (n-1)-stem."""

    n: int
    B: AttachingMatrix

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need n >= 2, got n={self.n}")

    @property
    def m(self) -> int:
        return self.B.m

    @property
    def dimension(self) -> int:
        return 2 * self.n
