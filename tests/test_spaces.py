import random

import pytest

from gaugekit.exact import CyclicElem
from gaugekit.spaces import (
    AttachedComplex,
    Loop,
    Product,
    Sphere,
    SuspCP2,
    Suspension,
    TwoCell,
    Wedge,
    attached,
    gauge,
    localize,
    loop,
    normalize,
    product,
    suspension,
    two_cell,
    wedge,
)

from support import denormalize, random_expr, seconds_in_fresh_interpreter, split_two_cells


def test_wedge_flattens_sorts_and_collapses():
    w = wedge(Sphere(8), wedge(Sphere(6), Sphere(8)), Sphere(6))
    assert w == Wedge((Sphere(6), Sphere(6), Sphere(8), Sphere(8)))
    assert wedge(Sphere(5)) == Sphere(5)
    with pytest.raises(ValueError):
        wedge()


def test_product_puts_gauge_first_then_loops_by_power():
    from gaugekit.spaces import LieGroup, MappingSpace

    g = gauge(Sphere(12))
    p = product(
        loop(7, LieGroup("E7")),
        loop(5, LieGroup("E7")),
        g,
        loop(3, MappingSpace(SuspCP2(0), LieGroup("E7"))),
    )
    assert isinstance(p, Product)
    assert p.parts[0] == g
    assert [f.power for f in p.parts[1:]] == [3, 5, 7]


def test_loop_and_suspension_powers_merge():
    from gaugekit.spaces import LieGroup

    assert loop(2, loop(3, LieGroup("E6"))) == Loop(5, LieGroup("E6"))
    assert suspension(2, suspension(1, AttachedComplex(Sphere(5), 12, None))) == Suspension(
        3, AttachedComplex(Sphere(5), 12, None)
    )


def test_suspension_pushes_through_spheres_planes_and_wedges():
    assert suspension(3, Sphere(5)) == Sphere(8)
    assert suspension(2, SuspCP2(3)) == SuspCP2(5)
    assert suspension(1, wedge(Sphere(5), SuspCP2(3))) == wedge(Sphere(6), SuspCP2(4))
    # two-cell complexes stay symbolic under suspension
    tc = two_cell(8, CyclicElem(40, 240))
    assert suspension(1, tc) == Suspension(1, tc)


def test_two_cell_with_zero_class_splits():
    assert two_cell(8, CyclicElem(0, 240)) == wedge(Sphere(8), Sphere(16))
    assert two_cell(5, CyclicElem(0, 1)) == wedge(Sphere(5), Sphere(10))
    assert two_cell(8, CyclicElem(240, 240)) == wedge(Sphere(8), Sphere(16))
    live = two_cell(8, CyclicElem(40, 240))
    assert isinstance(live, TwoCell)
    with pytest.raises(ValueError):
        two_cell(8, CyclicElem(1, 0))
    with pytest.raises(ValueError):
        normalize(TwoCell(5, CyclicElem(3, 0)))


def test_normalize_handles_raw_trees():
    raw = Wedge((Suspension(1, Suspension(1, Sphere(4))), Wedge((Sphere(6), Sphere(1)))))
    assert normalize(raw) == Wedge((Sphere(1), Sphere(6), Sphere(6)))
    raw2 = Product((Loop(1, Loop(1, Sphere(3))), TwoCell(4, CyclicElem(0, 24))))
    assert normalize(raw2) == Product((Loop(2, Sphere(3)), Wedge((Sphere(4), Sphere(8)))))


def test_localize_examples():
    tc = TwoCell(10, CyclicElem(1, 2))
    assert localize(tc, {2}) == wedge(Sphere(10), Sphere(20))
    e = product(gauge(tc), loop(10, Sphere(3)))
    assert localize(e, set()) == normalize(e)
    tc240 = TwoCell(8, CyclicElem(120, 240))
    assert localize(tc240, {2}) == wedge(Sphere(8), Sphere(16))
    # order 240/gcd(240, 40) = 6 = 2*3 needs both primes
    tc40 = TwoCell(8, CyclicElem(40, 240))
    assert localize(tc40, {2}) == tc40
    assert localize(tc40, {2, 3}) == wedge(Sphere(8), Sphere(16))


def test_localize_is_idempotent_and_recursive():
    rng = random.Random(11)
    variants = random.Random(12)
    for _ in range(300):
        e = random_expr(rng, depth=3)
        for primes in (set(), {2}, {2, 3}, {2, 3, 5}):
            once = localize(e, primes)
            assert localize(once, primes) == once
            assert localize(denormalize(variants, e), primes) == once
        assert localize(e, set()) == normalize(e)


def test_localize_reaches_inside_gauge_and_attached():
    inner = gauge(TwoCell(10, CyclicElem(1, 2)))
    assert localize(inner, {2}) == gauge(wedge(Sphere(10), Sphere(20)))
    nested = attached(wedge(TwoCell(5, CyclicElem(1, 2)), Sphere(9)), 16, "f")
    split = localize(nested, {2})
    assert split == attached(wedge(Sphere(5), Sphere(9), Sphere(10)), 16, "f")


def test_normalization_confluence_under_random_presentations():
    rng = random.Random(2024)
    for _ in range(400):
        e = random_expr(rng, depth=3)
        canonical = normalize(e)
        assert normalize(canonical) == canonical
        for _ in range(3):
            variant = denormalize(rng, canonical)
            assert normalize(variant) == canonical, (canonical, variant)


def test_sort_is_deterministic_across_orders():
    rng = random.Random(5)
    for _ in range(100):
        parts = [random_expr(rng, depth=1) for _ in range(4)]
        w1 = wedge(*parts)
        rng.shuffle(parts)
        w2 = wedge(*parts)
        assert w1 == w2


def test_localize_matches_the_factoring_split_rule():
    rng = random.Random(21)
    for _ in range(500):
        e = random_expr(rng, depth=3)
        for primes in ({2}, {3}, {5}, {2, 3}, {2, 5}, {3, 5}, {2, 3, 5}, {7}):
            assert localize(e, primes) == normalize(split_two_cells(e, primes)), (e, primes)


def test_localize_with_a_large_prime_order_returns_promptly():
    statement = (
        "e = gaugekit.parse('TC(3,6;1 mod 10000000000000000051)'); "
        "assert gaugekit.localize(e, {2}) == e"
    )
    assert seconds_in_fresh_interpreter(statement) < 1.0
