import importlib
import random

import pytest

from gaugekit.decompose import (
    CaseInapplicableError,
    Decomposition,
    DecompositionError,
    NoSplittingError,
    UnsupportedManifoldError,
    decompose,
    index_e,
    skeleton_split_n2,
    suspension_split_wall,
)
from gaugekit.exact import CyclicElem
from gaugekit.manifolds import (
    GeneralComplex,
    N2Manifold,
    SigmaFCase,
    SphereBundle,
    WallManifold,
)
from gaugekit.modmatrix import AttachingMatrix, F2Matrix, replay_oplog
from gaugekit.render import render_text
from gaugekit.spaces import (
    Gauge,
    LieGroup,
    Loop,
    MappingSpace,
    Sphere,
    SuspCP2,
    TwoCell,
    attached,
    gauge,
    localize,
    loop,
    product,
    suspension,
    two_cell,
    wedge,
)
from gaugekit.tables import HypothesisNotMetError, NotTabulatedError, Tables

from support import least_positive_generator


def gauge_factors(d: Decomposition):
    return d.gauge_factors()


def loop_factors(d: Decomposition):
    return [f for f in gauge_factors(d) if isinstance(f, Loop)]


# --- index of the attaching image --------------------------------------------

def test_index_e_against_subgroup_oracle():
    M = WallManifold.of(8, [120, 80])
    e = index_e(M)
    assert e == CyclicElem(40, 240)
    assert e.value == least_positive_generator([120, 80], 240)


def test_index_e_zero_and_trivial_modulus():
    assert index_e(WallManifold.of(8, [0, 0, 0])).is_zero()
    assert index_e(WallManifold.of(6, [0, 0])).is_zero()  # modulus 1
    # rank one: the subgroup generator, not the residue itself
    assert index_e(WallManifold.of(8, [9])) == CyclicElem(3, 240)
    assert least_positive_generator([9], 240) == 3


# --- suspension splittings ----------------------------------------------------

def test_suspension_split_trivial_case():
    M = WallManifold.of(5, [0, 0, 0])
    assert suspension_split_wall(M) == wedge(Sphere(11), Sphere(6), Sphere(6), Sphere(6))


def test_suspension_split_zero_residues_merge():
    M = WallManifold.of(8, [0, 0])
    assert suspension_split_wall(M) == wedge(Sphere(17), Sphere(9), Sphere(9))


def test_suspension_split_nontrivial_residue():
    M = WallManifold.of(8, [120, 80])
    expected = wedge(suspension(1, two_cell(8, CyclicElem(40, 240))), Sphere(9))
    assert suspension_split_wall(M) == expected


def test_suspension_split_rejects_n2():
    with pytest.raises(UnsupportedManifoldError):
        suspension_split_wall(WallManifold.of(2, [0]))


# --- gauge decompositions over (n-1)-connected 2n-manifolds --------------------

def test_wall_e6_n5():
    d = decompose(WallManifold.of(5, [0, 0, 0]), "E6")
    assert render_text(d.gauge) == "G_k(S^10) x Omega^5 E6 x Omega^5 E6 x Omega^5 E6"


def test_wall_e8_null_attaching():
    d = decompose(WallManifold.of(8, [0, 0, 0]), "E8")
    assert d.gauge == product(gauge(Sphere(16), "k"), *(loop(8, LieGroup("E8")) for _ in range(3)))


def test_wall_e8_nonnull_attaching():
    d = decompose(WallManifold.of(8, [120, 80]), "E8")
    base = two_cell(8, CyclicElem(40, 240))
    assert d.gauge == product(gauge(base, "k"), loop(8, LieGroup("E8")))
    assert d.suspension == wedge(suspension(1, base), Sphere(9))


def test_wall_almost_parallelizable_away_15():
    M = WallManifold.of(8, [120, 80], almost_parallelizable=True)
    d = decompose(M, "E8", [3, 5])
    assert d.gauge == product(gauge(Sphere(16), "k"), loop(8, LieGroup("E8")), loop(8, LieGroup("E8")))
    assert d.localized_away == frozenset({3, 5})
    # without the flag the two-cell survives localization away from 15
    d2 = decompose(WallManifold.of(8, [120, 80]), "E8", [3, 5])
    assert isinstance(gauge_factors(d2)[0].base, TwoCell)


def test_wall_mod2_away_from_2():
    # n = 10 is 2 mod 8; Sp(5) has pi_9 = pi_10 = 0 in the stable range
    M = WallManifold.of(10, [1, 1])
    d_int = decompose(M, "Sp(5)")
    assert d_int.gauge == product(
        gauge(two_cell(10, CyclicElem(1, 2)), "k"), loop(10, LieGroup("Sp(5)"))
    )
    d_away = decompose(M, "Sp(5)", [2])
    assert d_away.gauge == product(
        gauge(Sphere(20), "k"), loop(10, LieGroup("Sp(5)")), loop(10, LieGroup("Sp(5)"))
    )


def test_wall_spin_needs_localization():
    # pi_9(Spin(21)) = Z/2 integrally, so the integral hypothesis fails
    M = WallManifold.of(10, [1, 1])
    with pytest.raises(HypothesisNotMetError) as err:
        decompose(M, "Spin(21)")
    assert err.value.degree == 9
    d = decompose(M, "Spin(21)", [2])
    assert d.gauge == product(
        gauge(Sphere(20), "k"), loop(10, LieGroup("Spin(21)")), loop(10, LieGroup("Spin(21)"))
    )


def test_wall_hypothesis_and_table_failures():
    # pi_9(E6) = Z breaks the n = 10 hypothesis outright
    with pytest.raises(HypothesisNotMetError):
        decompose(WallManifold.of(10, [0, 0]), "E6")
    # pi_11(E6) is not tabulated (12-manifold case)
    with pytest.raises(NotTabulatedError):
        decompose(WallManifold.of(6, [0, 0]), "E6")


def test_wall_n2_unsupported():
    with pytest.raises(UnsupportedManifoldError):
        decompose(WallManifold.of(2, [0]), "E6")


def test_wall_case_consistency_away_from_2():
    # the away-from-2 output refines the integral output by exactly the
    # two-cell split: the bottom cell becomes one more loop factor
    for n in (9, 10, 17, 18):
        M = WallManifold.of(n, [1, 0, 1])
        synthetic = Tables.from_lines(["Gv, -, 1..60, 0, -, -, synthetic vanishing group"])
        d_int = decompose(M, "Gv", (), synthetic)
        d_away = decompose(M, "Gv", [2], synthetic)
        base = gauge_factors(d_int)[0].base
        assert isinstance(base, TwoCell)
        assert localize(base, {2}) == wedge(Sphere(n), Sphere(2 * n))
        assert d_away.gauge == product(
            gauge(Sphere(2 * n), "alpha"),
            *loop_factors(d_int),
            loop(n, LieGroup("Gv")),
        )


def test_wall_factor_bookkeeping_small():
    synthetic = Tables.from_lines(["Gv, -, 1..60, 0, -, -, synthetic vanishing group"])
    rng = random.Random(21)
    for n in range(3, 13):
        d = WallManifold.of(n, [0]).modulus
        for m in range(1, 5):
            for _ in range(20):
                chi = [rng.randrange(d) for _ in range(m)]
                M = WallManifold.of(n, chi)
                dec = decompose(M, "Gv", (), synthetic)
                loops = loop_factors(dec)
                assert all(f.power == n for f in loops)
                lead = gauge_factors(dec)[0]
                assert isinstance(lead, Gauge)
                bottom = 1 if isinstance(lead.base, TwoCell) else 0
                assert len(loops) + bottom == m
                assert dec.suspension == suspension_split_wall(M)


_WALL = "gauge splitting over (n-1)-connected 2n-manifolds: "
_AQ = "stable J-image orders after Adams (1966) and Quillen (1971)"


@pytest.mark.parametrize(
    "n, chi, ap, group, away, splits, theorem",
    [
        (5, [0, 0], False, "Gv", (), True, f"trivial J-image case (n = 5 is 3,5,6,7 mod 8; {_AQ})"),
        (8, [0, 0], False, "Gv", (), True, "null attaching residue: the top cell splits off"),
        (
            9, [1, 0], False, "Gv", (2,), True,
            "mod-2 case localized away from 2: the two-cell complex splits",
        ),
        (
            8, [120, 80], True, "E8", (3, 5), True,
            "almost-parallelizable 16-manifold localized away from {3,5}: the degree-8 "
            "Steenrod square vanishes, so the 2-primary attaching residue dies (Wu formula)",
        ),
        (9, [1, 0], False, "Gv", (), False, f"mod-2 case (n = 9 is 1,2 mod 8; {_AQ})"),
        (
            8, [120, 80], False, "Gv", (), False,
            f"n = 4s case, attaching residue modulo the denominator of B_s/4s ({_AQ})",
        ),
    ],
)
def test_wall_theorem_text_of_every_branch(n, chi, ap, group, away, splits, theorem):
    tables = Tables.from_lines(["Gv, -, 1..60, 0, -, -, synthetic vanishing group"])
    M = WallManifold.of(n, chi, ap)
    dec = decompose(M, group, away, None if group == "E8" else tables)
    assert dec.theorem_used == _WALL + theorem
    assert isinstance(gauge_factors(dec)[0].base, Sphere) == splits
    assert len(loop_factors(dec)) == (2 if splits else 1)


# --- general complexes ----------------------------------------------------------

def test_complex_zero_matrix_every_sphere_splits():
    B = AttachingMatrix.from_rows([[0], [0], [0]], 24)
    d = decompose(GeneralComplex(6, B), "E7")
    assert d.gauge == product(gauge(Sphere(12), "alpha"), *(loop(6, LieGroup("E7")) for _ in range(3)))


def test_complex_single_nonzero_column_counts():
    B = AttachingMatrix.from_rows([[2], [3], [0]], 24)
    d = decompose(GeneralComplex(6, B), "E7")
    loops = loop_factors(d)
    assert len(loops) == 2  # m - t = 3 - 1
    assert gauge_factors(d)[0].base == attached(Sphere(6), 12)


def test_complex_no_splitting_when_all_columns_survive():
    B = AttachingMatrix.from_rows([[1, 0], [0, 1]], (24, 24))
    with pytest.raises(NoSplittingError):
        decompose(GeneralComplex(6, B), "E7")


def test_complex_counts_use_reduced_matrix():
    # rows combine ([[2,2],[2,2]] reduces to a single nonzero row) but the
    # columns' subgroups are row-op invariants, so both columns stay nonzero
    # and the splitting hypothesis t < m still fails at m = 2
    B = AttachingMatrix.from_rows([[2, 2], [2, 2]], (8, 8))
    with pytest.raises(NoSplittingError):
        decompose(GeneralComplex(4, B), "E8")
    d = decompose(
        GeneralComplex(8, AttachingMatrix.from_rows([[0, 0], [0, 0], [2, 6]], (8, 8))), "E8"
    )
    assert len(loop_factors(d)) == 1  # m - t = 3 - 2


def test_complex_result_keeps_its_reduction_through_localization():
    B = AttachingMatrix.from_rows([[32], [112], [0]], 120)
    d = decompose(GeneralComplex(6, B), "E7", [2])
    assert d.localized_away == frozenset({2})
    reduced, notes = d.reduction
    assert (reduced.initial, reduced.moduli) == (B.entries, B.moduli)
    assert reduced.oplog and replay_oplog(reduced) == reduced.entries == ((8,), (0,), (0,))
    assert reduced.diagonal == (8,) and notes == ()


def test_localize_away_is_checked_before_any_theorem(monkeypatch):
    def no_reduction(B):
        raise AssertionError("a reduction ran on a rejected call")

    # the package's `decompose` attribute is the function, not the module
    monkeypatch.setattr(importlib.import_module("gaugekit.decompose"), "reduce_with_report", no_reduction)
    # the complex has no splitting, and its reduction would say so first
    no_split = GeneralComplex(6, AttachingMatrix.from_rows([[1, 0], [0, 1]], (24, 24)))
    for spec in (no_split, WallManifold.of(10, [0, 0])):
        with pytest.raises(ValueError) as info:
            decompose(spec, "E6", [4])
        assert str(info.value) == "localize_away must contain primes, got 4"
        # a sphere is not a structure group, though the tables know it
        with pytest.raises(ValueError) as info:
            decompose(spec, "S^5")
        assert str(info.value) == "group must be a Lie group name NAME or NAME(INT), got 'S^5'"


def test_primes_are_checked_once(monkeypatch):
    module = importlib.import_module("gaugekit.decompose")
    is_prime, calls = module.is_prime, []
    monkeypatch.setattr(module, "is_prime", lambda p: calls.append(p) or is_prime(p))
    decompose(WallManifold.of(5, [0, 0, 0]), "E6", [2, 3])
    assert sorted(calls) == [2, 3]


# --- sphere bundles --------------------------------------------------------------

def test_sphere_bundle_with_section():
    E = SphereBundle(q=5, n=6, has_section=True)
    d = decompose(E, "E6")
    assert d.gauge == product(
        gauge(attached(Sphere(5), 11, "J(xi)"), "alpha"), loop(6, LieGroup("E6"))
    )
    assert d.base_space is None


def test_sphere_bundle_reducible_splits_three_ways():
    E = SphereBundle(q=5, n=6, j_xi_trivial=True)
    d = decompose(E, "E6")
    assert d.gauge == product(
        gauge(Sphere(11), "alpha"), loop(5, LieGroup("E6")), loop(6, LieGroup("E6"))
    )
    assert d.base_space == product(Sphere(5), Sphere(6))
    assert d.suspension == wedge(Sphere(6), Sphere(7), Sphere(12))


def test_sphere_bundle_reducible_out_of_range_unsupported():
    E = SphereBundle(q=2, n=6, j_xi_trivial=True)
    with pytest.raises(UnsupportedManifoldError):
        decompose(E, "E6")


def test_sphere_bundle_reducible_with_section_but_no_pi_q():
    # section given, attach trivial, but pi_{q-1}(G) unknown: the base keeps
    # the split wedge and only the n-loop factor appears
    E = SphereBundle(q=11, n=5, has_section=True, j_xi_trivial=True)
    d = decompose(E, "E6")  # pi_10(E6) untabulated
    assert d.gauge == product(
        gauge(wedge(Sphere(11), Sphere(16)), "alpha"), loop(5, LieGroup("E6"))
    )


def test_sphere_bundle_hypothesis_failure():
    E = SphereBundle(q=5, n=10, has_section=True)
    with pytest.raises(HypothesisNotMetError):
        decompose(E, "E6")  # pi_9(E6) = Z


# --- (n-2)-connected manifolds ----------------------------------------------------

def test_skeleton_split_examples():
    zero = N2Manifold(6, F2Matrix([[0, 0], [0, 0]]))
    assert skeleton_split_n2(zero) == wedge(Sphere(5), Sphere(5), Sphere(7), Sphere(7))

    ident = N2Manifold(6, F2Matrix.identity(2))
    assert skeleton_split_n2(ident) == wedge(SuspCP2(3), SuspCP2(3))

    rank1 = N2Manifold(8, F2Matrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 0]]))
    assert skeleton_split_n2(rank1) == wedge(
        SuspCP2(5), Sphere(7), Sphere(7), Sphere(9), Sphere(9)
    )


def test_skeleton_cell_count_invariant():
    rng = random.Random(4)
    for _ in range(200):
        m = rng.randrange(1, 5)
        n = rng.choice((6, 8))
        C = F2Matrix.from_rows([[rng.randrange(2) for _ in range(m)] for _ in range(m)])
        M = N2Manifold(n, C)
        split = skeleton_split_n2(M)
        parts = split.parts if hasattr(split, "parts") else (split,)
        cells = sum(2 if isinstance(p, SuspCP2) else 1 for p in parts)
        assert cells == 2 * m


E7_MAP = loop(3, MappingSpace(SuspCP2(0), LieGroup("E7")))
E8_MAP = loop(5, MappingSpace(SuspCP2(0), LieGroup("E8")))


def test_n2_e7_null_case():
    M = N2Manifold(6, F2Matrix.identity(2), SigmaFCase.NULL_HOMOTOPIC)
    d = decompose(M, "E7")
    assert d.gauge == product(gauge(Sphere(12), "k"), E7_MAP, E7_MAP)


def test_n2_e7_bottom_spheres_case():
    C = F2Matrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    M = N2Manifold(6, C, SigmaFCase.IN_BOTTOM_SPHERES)
    d = decompose(M, "E7")
    assert d.gauge == product(
        gauge(attached(Sphere(5), 12), "k"),
        E7_MAP,
        E7_MAP,
        loop(5, LieGroup("E7")),
        loop(7, LieGroup("E7")),
        loop(7, LieGroup("E7")),
    )


def test_n2_e8_away_from_2():
    M = N2Manifold(8, F2Matrix.identity(2), SigmaFCase.GENERAL)
    d = decompose(M, "E8", [2])
    assert d.gauge == product(
        gauge(Sphere(16), "k"),
        loop(7, LieGroup("E8")),
        loop(7, LieGroup("E8")),
        loop(9, LieGroup("E8")),
        loop(9, LieGroup("E8")),
    )
    assert d.suspension == wedge(
        Sphere(17), Sphere(8), Sphere(8), Sphere(10), Sphere(10)
    )


def test_n2_e8_top_sphere_suspension_summands():
    # the remaining top-sphere summands suspend into dimension 10
    M = N2Manifold(8, F2Matrix.from_rows([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
                   SigmaFCase.IN_TOP_SPHERE)  # m = 4, c = 1
    d = decompose(M, "E8")
    assert d.suspension == wedge(
        suspension(1, attached(Sphere(9), 16)),
        SuspCP2(6),
        Sphere(8), Sphere(8), Sphere(8),
        Sphere(10), Sphere(10),
    )
    assert len([f for f in loop_factors(d) if f.power == 9]) == 2  # m - c - 1


def test_skeleton_split_depends_only_on_rank():
    a = F2Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    b = F2Matrix.from_rows([[1, 1, 1], [0, 1, 1], [1, 0, 0]])  # also rank 2
    from gaugekit.modmatrix import rank_f2

    assert rank_f2(a) == rank_f2(b) == 2
    assert skeleton_split_n2(N2Manifold(6, a)) == skeleton_split_n2(N2Manifold(6, b))


def test_n2_case_inapplicable_counts():
    # general case at n = 8 needs c >= 4 and m - c >= 3
    M = N2Manifold(8, F2Matrix.identity(4), SigmaFCase.GENERAL)
    with pytest.raises(CaseInapplicableError):
        decompose(M, "E8")
    M2 = N2Manifold(6, F2Matrix([[0, 0], [0, 0]]), SigmaFCase.IN_SUSPENDED_CP2)  # c = 0
    with pytest.raises(CaseInapplicableError):
        decompose(M2, "E7")


def _diagonal(m: int, c: int) -> F2Matrix:
    """An m x m bit matrix of mod-2 rank c."""
    return F2Matrix.from_rows([[int(i == j < c) for j in range(m)] for i in range(m)])


_N2_TEXTS = {
    (6, SigmaFCase.GENERAL): "Sigma^1 ((SCP2^3 v S^5) u[f] e^12) v SCP2^4 v S^6 v S^8 v S^8",
    (6, SigmaFCase.IN_SUSPENDED_CP2): "Sigma^1 (SCP2^3 u e^12) v SCP2^4 v S^6 v S^6 v S^8 v S^8",
    (6, SigmaFCase.IN_BOTTOM_SPHERES): (
        "Sigma^1 (S^5 u e^12) v SCP2^4 v SCP2^4 v S^6 v S^8 v S^8"
    ),
    (6, SigmaFCase.NULL_HOMOTOPIC): "SCP2^4 v SCP2^4 v S^6 v S^6 v S^8 v S^8 v S^13",
    (8, SigmaFCase.GENERAL): (
        "Sigma^1 ((SCP2^5 v SCP2^5 v SCP2^5 v SCP2^5 v S^7 v S^7 v S^7 v S^9) u[f] e^16) "
        "v SCP2^6 v S^10 v S^10"
    ),
    (8, SigmaFCase.IN_SUSPENDED_CP2): (
        "Sigma^1 ((SCP2^5 v SCP2^5 v SCP2^5 v SCP2^5) u e^16) v SCP2^6 v S^8 v S^8 v S^8 "
        "v S^10 v S^10 v S^10"
    ),
    (8, SigmaFCase.IN_BOTTOM_SPHERES): (
        "Sigma^1 ((S^7 v S^7 v S^7) u e^16) v SCP2^6 v SCP2^6 v SCP2^6 v SCP2^6 v SCP2^6 "
        "v S^10 v S^10 v S^10"
    ),
    (8, SigmaFCase.IN_TOP_SPHERE): (
        "Sigma^1 (S^9 u e^16) v SCP2^6 v SCP2^6 v SCP2^6 v SCP2^6 v SCP2^6 v S^8 v S^8 v S^8 "
        "v S^10 v S^10"
    ),
    (8, SigmaFCase.NULL_HOMOTOPIC): (
        "SCP2^6 v SCP2^6 v SCP2^6 v SCP2^6 v SCP2^6 v S^8 v S^8 v S^8 v S^10 v S^10 v S^10 "
        "v S^17"
    ),
}
_N2_AWAY_FROM_2 = {
    6: "S^6 v S^6 v S^6 v S^6 v S^8 v S^8 v S^8 v S^8 v S^13",
    8: "S^8 v S^8 v S^8 v S^8 v S^8 v S^8 v S^8 v S^8 v S^10 v S^10 v S^10 v S^10 v S^10 "
    "v S^10 v S^10 v S^10 v S^17",
}


@pytest.mark.parametrize("n, case", list(_N2_TEXTS))
def test_n2_case_texts_are_pinned(n, case):
    group, m, c = {6: ("E7", 4, 2), 8: ("E8", 8, 5)}[n]
    setting = f"{group}-gauge decomposition over {n - 2}-connected {2 * n}-manifolds"
    M = N2Manifold(n, _diagonal(m, c), case)
    d = decompose(M, group)
    assert render_text(d.suspension) == _N2_TEXTS[n, case]
    assert d.theorem_used == f"{setting} (case: {case.value})"
    d = decompose(M, group, [2])
    assert render_text(d.suspension) == _N2_AWAY_FROM_2[n]
    assert d.theorem_used == (
        f"{setting}, localized away from 2 (suspended projective planes split)"
    )


@pytest.mark.parametrize(
    "n, m, c, case, count",
    [
        (6, 2, 0, SigmaFCase.GENERAL, "c-1"),
        (6, 2, 2, SigmaFCase.GENERAL, "m-c-1"),
        (8, 8, 3, SigmaFCase.GENERAL, "c-4"),
        (8, 8, 6, SigmaFCase.GENERAL, "m-c-3"),
        (8, 2, 2, SigmaFCase.IN_TOP_SPHERE, "m-c-1"),
    ],
)
def test_n2_negative_count_message_is_pinned(n, m, c, case, count):
    M = N2Manifold(n, _diagonal(m, c), case)
    with pytest.raises(CaseInapplicableError) as err:
        decompose(M, {6: "E7", 8: "E8"}[n])
    assert str(err.value) == (
        f"factor count {count} = -1 is negative for rank m={m}, mod-2 rank c={c} in case "
        f"{case.value}; the theorem presupposes nonnegative counts"
    )


def test_n2_wrong_group_unsupported():
    M = N2Manifold(6, F2Matrix.identity(2))
    with pytest.raises(UnsupportedManifoldError):
        decompose(M, "E8")
    with pytest.raises(ValueError):
        N2Manifold(7, F2Matrix.identity(2))
    with pytest.raises(ValueError):
        N2Manifold(6, F2Matrix.identity(2), SigmaFCase.IN_TOP_SPHERE)


def test_n2_suspension_matches_gauge_counts():
    C = F2Matrix.from_rows(
        [[1, 1, 0, 0, 0], [0, 1, 0, 0, 0], [1, 0, 1, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]]
    )
    M = N2Manifold(6, C, SigmaFCase.GENERAL)  # c = 3, m = 5
    d = decompose(M, "E7")
    maps = [f for f in loop_factors(d) if isinstance(f.space, MappingSpace)]
    low = [f for f in loop_factors(d) if f.power == 5 and isinstance(f.space, LieGroup)]
    high = [f for f in loop_factors(d) if f.power == 7]
    assert (len(maps), len(low), len(high)) == (2, 1, 2)
    parts = d.suspension.parts
    assert sum(1 for p in parts if p == SuspCP2(4)) == 2
    assert sum(1 for p in parts if p == Sphere(6)) == 1
    assert sum(1 for p in parts if p == Sphere(8)) == 2


# --- dispatcher --------------------------------------------------------------------

def test_dispatch_totality():
    rng = random.Random(31)
    synthetic = Tables.from_lines(["Gv, -, 1..60, 0, -, -, synthetic vanishing group"])
    specs = []
    for _ in range(120):
        kind = rng.randrange(4)
        if kind == 0:
            n = rng.randrange(2, 15)
            d = WallManifold.of(n, [0]).modulus if n != 2 else 2
            specs.append(WallManifold.of(n, [rng.randrange(d) for _ in range(rng.randrange(1, 4))]))
        elif kind == 1:
            specs.append(
                SphereBundle(
                    q=rng.randrange(1, 9),
                    n=rng.randrange(1, 9),
                    has_section=rng.random() < 0.5,
                    j_xi_trivial=rng.random() < 0.5,
                )
            )
        elif kind == 2:
            m = rng.randrange(1, 4)
            n = rng.choice((6, 8))
            C = F2Matrix.from_rows([[rng.randrange(2) for _ in range(m)] for _ in range(m)])
            cases = [c for c in SigmaFCase if n == 8 or c is not SigmaFCase.IN_TOP_SPHERE]
            specs.append(N2Manifold(n, C, rng.choice(cases)))
        else:
            m = rng.randrange(1, 4)
            B = AttachingMatrix.from_rows(
                [[rng.randrange(8)] for _ in range(m)], 8
            )
            specs.append(GeneralComplex(rng.randrange(2, 9), B))
    succeeded = set()
    for spec in specs:
        group = rng.choice(("E6", "E7", "E8", "Gv"))
        tables = synthetic if group == "Gv" else None
        try:
            result = decompose(spec, group, rng.choice(((), (2,), (2, 3))), tables)
        except (DecompositionError, NotTabulatedError, HypothesisNotMetError):
            continue
        assert isinstance(result, Decomposition)
        assert result.theorem_used
        # only a complex job is read off a row reduction
        assert (result.reduction is None) is not isinstance(spec, GeneralComplex)
        succeeded.add(type(spec))
    assert len(succeeded) == 4


def test_n2_constructor_rejects_bad_top_sphere_case():
    with pytest.raises(ValueError):
        N2Manifold(6, F2Matrix.identity(3), SigmaFCase.IN_TOP_SPHERE)
