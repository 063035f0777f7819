"""Exact arithmetic kernel: Bernoulli numbers, stable J-image orders, gcd
invariants in finite cyclic groups, and prime-to-p parts and primality
without factoring.

Bernoulli numbers come from the integer tangent-number recurrence, so
bernoulli(s) costs O(s^2) integer multiply-adds and a single gcd; the
J-image order of the (4s-1)-stem takes its denominator.

Everything here is arbitrary-precision integer/rational arithmetic; there is
no floating point anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd
from typing import Iterable

from .value import Value, set_field

__all__ = [
    "CyclicElem",
    "bernoulli",
    "imj_order",
    "gcd_mod",
    "subgroup_generator",
    "element_order",
    "prime_to_part",
    "is_prime",
]


class CyclicElem(Value):
    """A residue in Z/modulus (modulus >= 1), stored as its canonical
    representative in [0, modulus)."""

    __slots__ = ("value", "modulus")
    value: int
    modulus: int

    def __init__(self, value: int, modulus: int) -> None:
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {modulus}")
        set_field(self, "value", value % modulus)
        set_field(self, "modulus", modulus)

    def is_zero(self) -> bool:
        return self.value == 0

    def __str__(self) -> str:
        return f"{self.value} mod {self.modulus}"


@cache
def bernoulli(s: int) -> Fraction:
    """s-th Bernoulli number in the unsigned even-index convention.

    Only even-index Bernoulli numbers appear here, all with positive sign:
    bernoulli(1) = 1/6, bernoulli(2) = 1/30, bernoulli(3) = 1/42, ...
    In terms of the standard signed convention (B_n via z/(e^z-1) =
    sum B_n z^n / n!), this is |B_{2s}|.

    Computed from the tangent numbers T_k (tan z = sum T_k z^(2k-1)/(2k-1)!)
    by the integer recurrence of Brent and Harvey (2011), then
    |B_{2s}| = 2s T_s / (4^s (4^s - 1)).  That is O(s^2) multiply-adds of
    small integers by integers of O(s log s) bits, with one gcd at the end
    when the Fraction is built.  Results are memoized per s.
    """
    if s < 1:
        raise ValueError(f"bernoulli index must be >= 1, got {s}")
    t = [0, 1] + [0] * (s - 1)  # t[k] = T_k
    for k in range(2, s + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, s + 1):
        for j in range(k, s + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    power = 4**s
    return Fraction(2 * s * t[s], power * (power - 1))


def imj_order(n: int) -> int:
    """Order of the image of the stable J-homomorphism in the (n-1)-stem.

    The image is trivial for n = 3, 5, 6, 7 mod 8, has order 2 for
    n = 1, 2 mod 8 (n > 2), and for n = 4s has order the denominator of
    bernoulli(s)/(4s) (Adams 1966, Quillen 1971).
    """
    if n < 3:
        raise ValueError(f"imj_order requires n >= 3, got {n}")
    r = n % 8
    if r in (3, 5, 6, 7):
        return 1
    if r in (1, 2):
        return 2
    s = n // 4
    return (bernoulli(s) / (4 * s)).denominator


def subgroup_generator(values: Iterable[int], modulus: int) -> int:
    """Least positive generator of the subgroup of Z/modulus generated by
    the given residues, or 0 for the trivial subgroup."""
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    g = modulus
    for v in values:
        g = gcd(g, v % modulus)
    return g % modulus


def gcd_mod(elems: Iterable[CyclicElem]) -> int:
    """Greatest common divisor of a multiset of residues sharing a modulus
    d > 0: the minimum, over nonnegative representative tuples, of their
    ordinary gcd.

    For two or more elements this equals gcd(values, d) reduced mod d
    (0 exactly when every element is the zero class).  For a single element
    the representatives only grow, so the result is the least nonnegative
    residue itself -- note the discontinuity against the multi-element case,
    where the modulus participates in the gcd.
    """
    elems = list(elems)
    if not elems:
        raise ValueError("gcd_mod requires a nonempty multiset")
    d = elems[0].modulus
    if any(e.modulus != d for e in elems):
        raise ValueError("gcd_mod requires all elements to share one modulus")
    if len(elems) == 1:
        return elems[0].value
    return subgroup_generator((e.value for e in elems), d)


def element_order(value: int, modulus: int) -> int:
    """Order of a residue in Z/modulus (modulus > 0)."""
    if modulus <= 0:
        raise ValueError("element_order requires a positive modulus")
    return modulus // gcd(modulus, value % modulus)


def prime_to_part(n: int, primes: Iterable[int]) -> int:
    """|n| with every given prime divided out; no factorization is needed,
    since gcd(n, p) > 1 exactly while p still divides n (a 1 is a no-op)."""
    n = abs(n)
    if n == 0:
        raise ValueError("prime_to_part of 0 is undefined")
    for p in primes:
        while (g := gcd(n, p)) > 1:
            n //= g
    return n


# Deterministic Miller-Rabin: the prime bases 2..41 decide primality of every
# n below the bound (Sorenson and Webster 2015, psi_13).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Primality by deterministic Miller-Rabin, exact for n below
    3317044064679887385961981; a larger n raises ValueError."""
    if n >= _MR_BOUND:
        raise ValueError(f"is_prime decides only n < {_MR_BOUND}, got {n}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
