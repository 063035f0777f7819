import itertools
import random

import pytest

from gaugekit.groups import TRIVIAL, Z, FGAbelianGroup

from support import factored_localized_away, factored_of


def test_canonicalization_examples():
    assert FGAbelianGroup.of(0, [2, 3]) == FGAbelianGroup(0, (6,))
    assert FGAbelianGroup.of(0, [4, 2]) == FGAbelianGroup(0, (2, 4))
    assert FGAbelianGroup.of(0, [2, 2, 2]) == FGAbelianGroup(0, (2, 2, 2))
    assert FGAbelianGroup.of(1, [120]) == FGAbelianGroup(1, (120,))
    assert FGAbelianGroup.of(0, [12, 60]) == FGAbelianGroup(0, (12, 60))
    assert FGAbelianGroup.of(0, [2, 4, 3]) == FGAbelianGroup(0, (2, 12))
    assert FGAbelianGroup.of(0, [1, 1]) == TRIVIAL


def test_canonicalization_is_order_independent_and_idempotent():
    rng = random.Random(3)
    for _ in range(200):
        torsion = [rng.randrange(2, 30) for _ in range(rng.randrange(0, 5))]
        g = FGAbelianGroup.of(rng.randrange(0, 3), torsion)
        for perm in itertools.islice(itertools.permutations(torsion), 6):
            assert FGAbelianGroup.of(g.free_rank, perm) == g
        assert FGAbelianGroup.of(g.free_rank, g.torsion) == g  # idempotent


def test_direct_construction_requires_canonical_chain():
    with pytest.raises(ValueError):
        FGAbelianGroup(0, (2, 3))
    with pytest.raises(ValueError):
        FGAbelianGroup(0, (4, 2))
    with pytest.raises(ValueError):
        FGAbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        FGAbelianGroup(-1)


def test_str_forms():
    assert str(TRIVIAL) == "0"
    assert str(Z) == "Z"
    assert str(FGAbelianGroup(2)) == "Z^2"
    assert str(FGAbelianGroup.of(0, [240])) == "Z/240"
    assert str(FGAbelianGroup.of(1, [120])) == "Z + Z/120"
    assert str(FGAbelianGroup.of(0, [2, 2, 2])) == "Z/2 + Z/2 + Z/2"


def test_localized_away():
    g = FGAbelianGroup.of(0, [240])
    assert g.localized_away({2}) == FGAbelianGroup.of(0, [15])
    assert g.localized_away({2, 3, 5}) == TRIVIAL
    assert g.localized_away(set()) == g
    assert Z.localized_away({2}) == Z
    two = FGAbelianGroup.of(0, [2])
    assert two.localized_away({2}).is_trivial()
    assert not two.localized_away({3}).is_trivial()


def test_gcd_lcm_forms_match_the_factoring_forms():
    rng = random.Random(5)
    prime_pool = (2, 3, 5, 7, 11, 13, 101)
    for _ in range(20_000):
        torsion = [
            rng.choice((1, rng.randrange(1, 100), rng.choice(prime_pool) ** rng.randrange(1, 4)))
            * rng.choice((1, 1, 2, 6, 240))
            for _ in range(rng.randrange(0, 6))
        ]
        free_rank = rng.randrange(0, 3)
        g = FGAbelianGroup.of(free_rank, torsion)
        assert g == factored_of(free_rank, torsion), torsion
        primes = set(rng.sample(prime_pool, rng.randrange(0, 4)))
        assert g.localized_away(primes) == factored_localized_away(g, primes), (torsion, primes)
