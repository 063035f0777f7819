"""Acceptance suite: one test per criterion, each printing a pass line and
enforcing its stated budget.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import random
import time
from math import gcd

from gaugekit.decompose import decompose
from gaugekit.exact import CyclicElem, bernoulli, gcd_mod, imj_order
from gaugekit.groups import FGAbelianGroup
from gaugekit.manifolds import N2Manifold, SigmaFCase, SphereBundle, WallManifold
from gaugekit.modmatrix import AttachingMatrix, F2Matrix, RowOp, reduce_with_report, replay_oplog
from gaugekit.render import render_text
from gaugekit.spaces import Gauge, Loop, TwoCell, localize, normalize
from gaugekit.tables import Tables, default_tables
from gaugekit.parser import parse

from support import (
    bernoulli_unsigned,
    closed_form_imj_order,
    column_orbit_partition,
    denormalize,
    least_positive_generator,
    random_expr,
    subgroup_closure,
    von_staudt_denominator,
)

Zof = FGAbelianGroup.of


def _report(num, name, elapsed, budget, detail=""):
    extra = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: PASS in {elapsed:.2f}s (budget {budget}s){extra}")


def test_criterion_1_bernoulli_imj_suite():
    start = time.perf_counter()
    expected = {4: 24, 8: 240, 12: 504, 16: 480, 20: 264, 24: 65520}
    for n, want in expected.items():
        s = n // 4
        assert imj_order(n) == want
        # independent confirmations: a second Bernoulli algorithm and the
        # von Staudt-Clausen denominator
        assert bernoulli(s) == bernoulli_unsigned(s)
        assert bernoulli(s).denominator == von_staudt_denominator(s)
        assert (bernoulli_unsigned(s) / (4 * s)).denominator == want
    # the 7-stem of the sphere spectrum confirms n = 8 from the tables
    assert default_tables().pi("S", 7).group == Zof(0, [240])
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "Bernoulli/Im J suite", elapsed, 1)


def test_criterion_1_imj_order_closed_form():
    # the J-image order without Bernoulli numbers, prod p^(1 + v_p(4s)) over
    # primes with (p - 1) | 2s, against the engine's Bernoulli route
    start = time.perf_counter()
    for s in range(1, 301):
        assert imj_order(4 * s) == closed_form_imj_order(s), s
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(1, "Im J closed form (s <= 300)", elapsed, 10)


def test_criterion_2_gcd_mod_equivalence():
    start = time.perf_counter()
    checked = 0
    for d in range(1, 31):
        k_range = range(0, 4 * d + 1)
        reps = {v: [v + k * d for k in k_range] for v in range(d)}
        pair_sets: dict[tuple[int, int], frozenset[int]] = {}
        for a, b in itertools.combinations_with_replacement(range(d), 2):
            ra, rb = reps[a], reps[b]
            pset = frozenset(gcd(x, y) for x in ra for y in rb)
            pair_sets[(a, b)] = pset
            expected = min(pset)
            got = gcd_mod([CyclicElem(a, d), CyclicElem(b, d)])
            assert got == expected, (d, a, b, got, expected)
            checked += 1
        for a, b, c in itertools.combinations_with_replacement(range(d), 3):
            floor = 0 if (a % d == b % d == c % d == 0) else 1
            best = None
            for g in pair_sets[(a, b)]:
                for z in reps[c]:
                    t = gcd(g, z)
                    if best is None or t < best:
                        best = t
                        if best == floor:
                            break
                if best == floor:
                    break
            got = gcd_mod([CyclicElem(a, d), CyclicElem(b, d), CyclicElem(c, d)])
            assert got == best, (d, a, b, c, got, best)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(2, "gcd equivalence (exhaustive, d <= 30)", elapsed, 30, f"{checked} multisets")


def test_criterion_3_restricted_reduction_oracle():
    start = time.perf_counter()
    checked = 0
    single_row_logged = 0
    for d in (4, 8, 12, 24):
        for m in (1, 2, 3):
            component = column_orbit_partition(d, m)
            # per component: the attainable pivot values (states of shape
            # (v, 0, ..., 0)) and their minimum positive representative
            attainable: dict[int, set[int]] = {}
            for state, cid in component.items():
                if all(x == 0 for x in state[1:]):
                    attainable.setdefault(cid, set()).add(state[0])
            for column in itertools.product(range(d), repeat=m):
                B = AttachingMatrix.from_rows([[v] for v in column], d)
                reduced, notes = reduce_with_report(B)
                out_state = tuple(row[0] for row in reduced.entries)
                # (a) output lies in the row-operation orbit of the input
                assert component[out_state] == component[column]
                # (b) replaying the certified log reproduces the output
                assert replay_oplog(reduced) == reduced.entries
                # (c) the pivot is the best value the orbit admits
                pivots = attainable[component[column]]
                positive = [p for p in pivots if p > 0]
                best = min(positive) if positive else 0
                assert reduced.diagonal[0] == best, (d, column, reduced.diagonal, best)
                generator = least_positive_generator(column, d)
                if m >= 2:
                    # with a spare row the subgroup generator is always attained
                    assert reduced.diagonal[0] == generator
                elif reduced.diagonal[0] != generator:
                    # single free row: unreachable generator must be logged
                    assert any("unreachable" in note for note in notes)
                    single_row_logged += 1
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        3,
        "restricted-reduction oracle",
        elapsed,
        60,
        f"{checked} matrices; generator attained whenever two rows are free; "
        f"{single_row_logged} logged single-row shortfalls",
    )


def test_criterion_4_table_fidelity():
    start = time.perf_counter()
    T = default_tables()
    quoted = {
        ("E6", 9): Zof(1),
        ("E7", 11): Zof(1),
        ("E8", 15): Zof(1),
        ("S^5", 9): Zof(0, [2]),
        ("S^6", 11): Zof(1),
        ("S^8", 15): Zof(1, [120]),
        ("S", 7): Zof(0, [240]),
        ("S^8", 12): Zof(0),
        ("S^10", 16): Zof(0, [2]),
        ("S^7", 15): Zof(0, [2, 2, 2]),
        ("S^6", 12): Zof(0, [2]),
        ("S^8", 16): Zof(0, [2, 2, 2, 2]),
    }
    for (space, degree), want in quoted.items():
        assert T.pi(space, degree).group == want, (space, degree)
    for k in (9, 10, 14, 23):
        assert T.pi(f"S^{k}", k + 7).group == Zof(0, [240])
    for dim, group in ((10, "E6"), (12, "E7"), (16, "E8")):
        assert T.classify_bundles(dim, 4, group).group == Zof(1)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(4, "table fidelity", elapsed, 5, f"{len(quoted) + 4 + 3} quoted values")


def _diag_bits(m, c):
    return F2Matrix.from_rows([[1 if i == j and i < c else 0 for j in range(m)] for i in range(m)])


def _golden(name):
    from pathlib import Path

    path = Path(__file__).parent / "golden" / f"{name}.txt"
    return path.read_text(encoding="utf-8").strip()


def test_criterion_5_theorem_reproduction():
    start = time.perf_counter()
    cases = {
        "prop_e6_n5_m3": lambda: decompose(WallManifold.of(5, [0, 0, 0]), "E6"),
        "prop_e7_n6_m2": lambda: decompose(WallManifold.of(6, [0, 0]), "E7"),
        "prop_e8_n8_null_m3": lambda: decompose(WallManifold.of(8, [0, 0, 0]), "E8"),
        "prop_e8_n8_nonnull_m3": lambda: decompose(WallManifold.of(8, [1, 0, 0]), "E8"),
        "prop_ap_away15_m2": lambda: decompose(
            WallManifold.of(8, [120, 80], almost_parallelizable=True), "E8", [3, 5]
        ),
        "prop_sp_n10_m3_r5": lambda: decompose(WallManifold.of(10, [1, 1, 1]), "Sp(5)"),
        "prop_sp_n10_m3_r5_away2": lambda: decompose(
            WallManifold.of(10, [1, 1, 1]), "Sp(5)", [2]
        ),
        "prop_spin_n10_m2_r21_away2": lambda: decompose(
            WallManifold.of(10, [1, 1]), "Spin(21)", [2]
        ),
        "thm_bundle_q5_n6": lambda: decompose(
            SphereBundle(q=5, n=6, has_section=True), "E6"
        ),
        "cor_bundle_reducible_q5_n6": lambda: decompose(
            SphereBundle(q=5, n=6, j_xi_trivial=True), "E6"
        ),
        "thm12_general_m4_c2": lambda: decompose(
            N2Manifold(6, _diag_bits(4, 2), SigmaFCase.GENERAL), "E7"
        ),
        "thm12_cp2_m4_c2": lambda: decompose(
            N2Manifold(6, _diag_bits(4, 2), SigmaFCase.IN_SUSPENDED_CP2), "E7"
        ),
        "thm12_bottom_m4_c2": lambda: decompose(
            N2Manifold(6, _diag_bits(4, 2), SigmaFCase.IN_BOTTOM_SPHERES), "E7"
        ),
        "thm12_null_m4_c2": lambda: decompose(
            N2Manifold(6, _diag_bits(4, 2), SigmaFCase.NULL_HOMOTOPIC), "E7"
        ),
        "thm16_general_m8_c5": lambda: decompose(
            N2Manifold(8, _diag_bits(8, 5), SigmaFCase.GENERAL), "E8"
        ),
        "thm16_cp2_m5_c4": lambda: decompose(
            N2Manifold(8, _diag_bits(5, 4), SigmaFCase.IN_SUSPENDED_CP2), "E8"
        ),
        "thm16_bottom_m4_c1": lambda: decompose(
            N2Manifold(8, _diag_bits(4, 1), SigmaFCase.IN_BOTTOM_SPHERES), "E8"
        ),
        "thm16_top_m4_c2": lambda: decompose(
            N2Manifold(8, _diag_bits(4, 2), SigmaFCase.IN_TOP_SPHERE), "E8"
        ),
        "thm16_null_m4_c2": lambda: decompose(
            N2Manifold(8, _diag_bits(4, 2), SigmaFCase.NULL_HOMOTOPIC), "E8"
        ),
        "cor12_away2_m3": lambda: decompose(
            N2Manifold(6, _diag_bits(3, 1), SigmaFCase.GENERAL), "E7", [2]
        ),
        "cor16_away2_m2": lambda: decompose(
            N2Manifold(8, _diag_bits(2, 1), SigmaFCase.GENERAL), "E8", [2]
        ),
    }
    for name, build in cases.items():
        rendered = render_text(build().gauge)
        assert rendered == _golden(name), (name, rendered)
        # rendered output re-parses to the same canonical expression
        assert render_text(parse(rendered)) == rendered
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(5, "theorem reproduction (golden files)", elapsed, 10, f"{len(cases)} decompositions")


def test_criterion_6_invariant_suites():
    start = time.perf_counter()
    rng = random.Random(2718)

    # (a) subgroup invariance under row operations: 1000 random cases
    for _ in range(1000):
        m = rng.randrange(2, 5)
        r = rng.randrange(1, 4)
        chain = []
        d = rng.choice((2, 3, 4, 6))
        for _ in range(r):
            chain.append(d)
            mult = rng.choice((1, 2, 3))
            if d * mult <= 24:
                d *= mult
        B = AttachingMatrix.from_rows(
            [[rng.randrange(chain[j]) for j in range(r)] for _ in range(m)], chain
        )
        kind = rng.choice(("add", "swap", "negate"))
        a = rng.randrange(1, m + 1)
        b = 1 + (a % m)
        op = RowOp.negate(a) if kind == "negate" else RowOp(kind, a, b)
        after_op = replay_oplog(AttachingMatrix(chain, B.entries, (op,)))
        for j in range(1, r + 1):
            before = subgroup_closure([row[j - 1] for row in B.entries], chain[j - 1])
            after = subgroup_closure([row[j - 1] for row in after_op], chain[j - 1])
            assert before == after

    # (b) localize idempotence; empty set is the identity
    for _ in range(300):
        e = random_expr(rng, depth=3)
        for primes in (set(), {2}, {3}, {2, 3}, {2, 3, 5}):
            once = localize(e, primes)
            assert localize(once, primes) == once
        assert localize(e, set()) == normalize(e)

    # (c) normalization confluence under random rewrite orders
    for _ in range(400):
        canonical = normalize(random_expr(rng, depth=3))
        for _ in range(3):
            assert normalize(denormalize(rng, canonical)) == canonical

    # (d) Wall-case factor bookkeeping: n <= 24, m <= 4, chi swept
    synthetic = Tables.from_lines(["Gv, -, 1..60, 0, -, -, synthetic vanishing group"])
    swept = 0
    for n in range(3, 25):
        d = WallManifold.of(n, [0]).modulus
        for m in range(1, 5):
            if d**m <= 20000:
                tuples = itertools.product(range(d), repeat=m)
            else:
                pool = sorted({0, 1, 2, d // 2, d - 1, gcd(d, 6)})
                structured = itertools.product(pool, repeat=m)
                rand = ([rng.randrange(d) for _ in range(m)] for _ in range(120))
                tuples = itertools.chain(structured, rand)
            for chi in tuples:
                M = WallManifold.of(n, list(chi))
                dec = decompose(M, "Gv", (), synthetic)
                factors = dec.gauge_factors()
                lead = factors[0]
                assert isinstance(lead, Gauge)
                loops = [f for f in factors[1:] if isinstance(f, Loop)]
                assert len(loops) == len(factors) - 1
                assert all(f.power == n for f in loops)
                bottom = 1 if isinstance(lead.base, TwoCell) else 0
                assert len(loops) + bottom == m
                swept += 1

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(6, "invariant suites", elapsed, 120, f"{swept} wall inputs swept")
