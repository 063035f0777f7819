"""Finitely generated abelian groups in invariant-factor form.

The value type of every homotopy-group lookup: a free rank plus an ordered
list of torsion coefficients t_1 | t_2 | ... with each t_i >= 2.  The
canonical form is unique, so equality is structural.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable

from .exact import prime_to_part
from .value import Value, set_field

__all__ = ["FGAbelianGroup", "TRIVIAL", "Z"]


class FGAbelianGroup(Value):
    __slots__ = ("free_rank", "torsion")
    free_rank: int
    torsion: tuple[int, ...]

    def __init__(self, free_rank: int = 0, torsion: Iterable[int] = ()) -> None:
        torsion = tuple(torsion)
        if free_rank < 0:
            raise ValueError("free rank must be >= 0")
        prev = 1
        for t in torsion:
            if t < 2:
                raise ValueError("torsion coefficients must be >= 2")
            if t % prev != 0:
                raise ValueError(
                    f"torsion coefficients must form a divisibility chain, got {torsion}"
                )
            prev = t
        set_field(self, "free_rank", free_rank)
        set_field(self, "torsion", torsion)

    @classmethod
    def of(cls, free_rank: int = 0, torsion: Iterable[int] = ()) -> "FGAbelianGroup":
        """Canonicalize an arbitrary list of cyclic orders into invariant
        factors.  Order-independent; factors of 1 are dropped; 0 is not a
        torsion coefficient (it belongs in the free rank)."""
        # Insert each order into a descending chain, replacing each pair
        # (c, t) by (lcm, gcd): per prime, that is an insertion into the
        # sorted exponents, so the chain is the unique invariant-factor form.
        chain: list[int] = []
        for t in torsion:
            if t < 1:
                raise ValueError(f"cyclic torsion order must be >= 1, got {t}")
            for i, c in enumerate(chain):
                g = gcd(c, t)
                chain[i], t = c // g * t, g
            if t > 1:
                chain.append(t)
        return cls(free_rank, tuple(reversed(chain)))

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def localized_away(self, primes: Iterable[int]) -> "FGAbelianGroup":
        """Invert the given primes: kills the torsion supported on them.
        With no primes, or no torsion, nothing changes and the group itself
        is returned."""
        away = tuple(primes)
        if not away or not self.torsion:
            return self
        return FGAbelianGroup.of(self.free_rank, [prime_to_part(t, away) for t in self.torsion])

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


TRIVIAL = FGAbelianGroup()
Z = FGAbelianGroup(1)
