import itertools
import pytest
from fractions import Fraction

from gaugekit.exact import (
    CyclicElem,
    bernoulli,
    element_order,
    gcd_mod,
    imj_order,
    is_prime,
    prime_to_part,
    subgroup_generator,
)

from support import (
    bernoulli_unsigned,
    closed_form_imj_order,
    defgcd_exhaustive,
    seconds_in_fresh_interpreter,
    series_bernoulli,
    trial_division_is_prime,
    von_staudt_denominator,
)


# frozen values, confirmed by the series/Akiyama-Tanigawa oracles below
def test_bernoulli_small_values():
    assert bernoulli(1) == Fraction(1, 6)
    assert bernoulli(2) == Fraction(1, 30)
    assert bernoulli(6) == Fraction(691, 2730)


def test_bernoulli_matches_second_algorithm():
    # the Fraction series recurrence and Akiyama-Tanigawa
    for s in range(1, 121):
        assert bernoulli(s) == series_bernoulli(s) == bernoulli_unsigned(s), s


def test_bernoulli_von_staudt_clausen_denominators():
    for s in range(1, 301):
        assert bernoulli(s).denominator == von_staudt_denominator(s), s


def test_bernoulli_rejects_bad_index():
    with pytest.raises(ValueError):
        bernoulli(0)
    with pytest.raises(ValueError):
        bernoulli(-3)


def test_imj_order_examples():
    assert imj_order(7) == 1
    assert imj_order(8) == 240
    assert imj_order(4) == 24
    assert imj_order(9) == 2


def test_imj_order_quadruple_case_values():
    expected = {4: 24, 8: 240, 12: 504, 16: 480, 20: 264, 24: 65520}
    for n, want in expected.items():
        assert imj_order(n) == want


def test_imj_order_cold_cost_stays_small_at_s_500():
    # cold, on a 2-vCPU Xeon VM: ~19 s by the Fraction series, ~0.1 s by
    # the tangent-number recurrence
    statement = f"assert gaugekit.exact.imj_order(4 * 500) == {closed_form_imj_order(500)}"
    assert seconds_in_fresh_interpreter(statement) < 1.0


def test_bernoulli_is_memoized():
    assert bernoulli(40) is bernoulli(40)


def test_imj_order_periodicity_in_constant_cases():
    # the trivial and Z/2 cases repeat with period 8; n = 4s is excluded
    for n in range(3, 40):
        if n % 8 in (3, 5, 6, 7, 1, 2):
            assert imj_order(n) == imj_order(n + 8) == imj_order(n + 16)


def test_imj_order_rejects_small_n():
    with pytest.raises(ValueError):
        imj_order(2)


def test_cyclic_elem_normalizes_and_validates():
    assert CyclicElem(27, 12).value == 3
    assert CyclicElem(-5, 8).value == 3
    with pytest.raises(ValueError):
        CyclicElem(1, -2)
    with pytest.raises(ValueError, match="modulus must be >= 1, got 0"):
        CyclicElem(1, 0)
    assert str(CyclicElem(3, 12)) == "3 mod 12"


def test_gcd_mod_examples():
    assert gcd_mod([CyclicElem(4, 8), CyclicElem(6, 8)]) == 2  # oracle: see sweep below
    assert gcd_mod([CyclicElem(0, 12)]) == 0
    assert gcd_mod([CyclicElem(3, 12), CyclicElem(3, 12)]) == 3


def test_gcd_mod_examples_match_exhaustive_definition():
    assert defgcd_exhaustive([4, 6], 8, k_max=10) == 2
    assert defgcd_exhaustive([0], 12) == 0
    assert defgcd_exhaustive([3, 3], 12) == 3


def test_gcd_mod_singleton_is_least_nonnegative_residue():
    for d in (5, 8, 12):
        for v in range(d):
            assert gcd_mod([CyclicElem(v, d)]) == v
            assert defgcd_exhaustive([v], d) == v


def test_gcd_mod_small_exhaustive_sweep():
    # the full d <= 30 sweep is acceptance criterion 2; keep a quick one here
    for d in range(1, 13):
        for s in itertools.combinations_with_replacement(range(d), 2):
            elems = [CyclicElem(v, d) for v in s]
            assert gcd_mod(elems) == defgcd_exhaustive(s, d), (s, d)


def test_gcd_mod_invariants():
    for d in (6, 8, 12):
        for s in itertools.combinations_with_replacement(range(d), 3):
            g = gcd_mod([CyclicElem(v, d) for v in s])
            for perm in itertools.permutations(s):
                assert gcd_mod([CyclicElem(v, d) for v in perm]) == g
            if any(v % d for v in s):
                assert d % g == 0
            else:
                assert g == 0  # trivial subgroup; 0 rather than d


def test_gcd_mod_rejects_bad_input():
    with pytest.raises(ValueError):
        gcd_mod([])
    with pytest.raises(ValueError):
        gcd_mod([CyclicElem(1, 4), CyclicElem(1, 8)])
    with pytest.raises(ValueError):
        gcd_mod([CyclicElem(1, 0)])


def test_subgroup_generator():
    assert subgroup_generator([120, 80], 240) == 40
    assert subgroup_generator([0, 0], 240) == 0
    assert subgroup_generator([9], 240) == 3


def test_element_order_and_primes():
    assert element_order(120, 240) == 2
    assert element_order(0, 7) == 1
    assert prime_to_part(240, {2, 3, 5}) == 1
    assert prime_to_part(1, ()) == 1
    assert is_prime(2) and is_prime(13) and not is_prime(15) and not is_prime(1)


def test_prime_to_part_divides_out_every_power():
    assert prime_to_part(240, {2}) == 15
    assert prime_to_part(-240, {3, 7}) == 80
    assert prime_to_part(2**64 * 3**40 * 10000000000000000051, {2, 3}) == 10000000000000000051
    assert prime_to_part(97, {1}) == 97  # 1 is a no-op
    with pytest.raises(ValueError):
        prime_to_part(0, {2})


def test_is_prime_matches_trial_division_and_rejects_strong_pseudoprimes():
    for n in range(-2, 200_000):
        assert is_prime(n) == trial_division_is_prime(n), n
    # strong pseudoprimes to the first several prime bases
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(10000000000000000051) and is_prime(1000000000000000003)
    assert is_prime(2**61 - 1) and not is_prime((2**61 - 1) * (2**19 - 1))
    assert not is_prime(3317044064679887385961980)
    with pytest.raises(ValueError, match="is_prime decides only"):
        is_prime(3317044064679887385961981)
