import itertools
import random
import sys
import tracemalloc
from math import isqrt
from pathlib import Path

import pytest

from gaugekit.exact import CyclicElem, gcd_mod
from gaugekit.modmatrix import (
    AttachingMatrix,
    F2Matrix,
    RowOp,
    nonzero_column_count,
    rank_f2,
    reduce_with_report,
    replay_oplog,
    rowop_orbit,
)

from support import (
    least_positive_generator,
    listcopy_rowop_orbit,
    orbit_of,
    rank_f2_bruteforce,
    seconds_in_fresh_interpreter,
    subgroup_closure,
    triple_update_reduce_with_report,
    unary_reduce_with_report,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import jobs  # noqa: E402
import run  # noqa: E402


def rows(B):
    return [list(r) for r in B.entries]


def replayed(B, *ops):
    """The rows that `replay_oplog` takes B to under the log `ops`."""
    return [list(r) for r in replay_oplog(AttachingMatrix(B.moduli, B.entries, ops))]


def test_apply_rowop_examples():
    # each a one-entry log
    B = AttachingMatrix.from_rows([[1], [0]], 24)
    assert replayed(B, RowOp.add(2, 1)) == [[1], [1]]

    B = AttachingMatrix.from_rows([[5], [3]], 8)
    assert replayed(B, RowOp.negate(1)) == [[3], [3]]

    B = AttachingMatrix(moduli=(4, 8), entries=((2, 1), (0, 3)))
    assert replayed(B, RowOp.swap(1, 2)) == [[0, 3], [2, 1]]


def test_apply_rowop_appends_to_log_and_replays():
    B = AttachingMatrix.from_rows([[1, 2], [3, 4]], 8)
    ops = (RowOp.add(1, 2), RowOp.negate(2))
    assert replayed(B, ops[0]) == [[4, 6], [3, 4]]
    assert replayed(B, *ops) == [[4, 6], [5, 4]]
    B2 = AttachingMatrix(B.moduli, [[4, 6], [5, 4]], ops, B.entries)
    assert replay_oplog(B2) == B2.entries
    assert B2.initial == B.entries


@pytest.mark.parametrize(
    "B, message",
    [
        (
            AttachingMatrix((24,), [(1,), (0,)], (RowOp.negate(2), RowOp.add(3, 1), RowOp.swap(1, 4))),
            "log entry 2 (add 3 1) names a row outside the 2-row matrix",
        ),
        (
            AttachingMatrix((24,), [(1,), (0,)], (RowOp.swap(1, 2), RowOp.add(1, 3, 5))),
            "log entry 2 (add 1 3 5) names a row outside the 2-row matrix",
        ),
        (
            AttachingMatrix((24,), [(1,)], (RowOp.negate(2),)),
            "log entry 1 (negate 2) names a row outside the 1-row matrix",
        ),
        (AttachingMatrix((4,), [(1,)], (), ((1,), (2,))), "initial matrix must be 1 x 1, like the entries"),
        (AttachingMatrix((4, 8), [(1, 2)], (), ((1,),)), "initial matrix must be 1 x 2, like the entries"),
        (AttachingMatrix((4,), [(1,), (3,)], (), ((1,), ())), "initial matrix must be 2 x 1, like the entries"),
    ],
    ids=["add to a missing row", "add from a missing row", "negate", "extra row", "short row", "empty row"],
)
def test_replay_rejects_a_bad_row_or_initial_shape(B, message):
    with pytest.raises(ValueError) as info:
        replay_oplog(B)
    assert str(info.value) == message


def test_rowop_validation_and_parse():
    with pytest.raises(ValueError):
        RowOp.add(2, 2)
    with pytest.raises(ValueError):
        RowOp("scale", 1)
    assert [
        str(op)
        for op in (
            RowOp.add(2, 1), RowOp.swap(1, 3), RowOp.negate(2), RowOp.add(1, 3, 2), RowOp.add(3, 1, 2**81 + 1)
        )
    ] == ["add 2 1", "swap 1 3", "negate 2", "add 1 3 2", f"add 3 1 {2**81 + 1}"]


def test_rowop_multiplicity():
    for bad in (0, -1):
        with pytest.raises(ValueError):
            RowOp.add(1, 2, bad)
    with pytest.raises(ValueError):
        RowOp("swap", 1, 2, 2)
    with pytest.raises(ValueError):
        RowOp("negate", 1, 0, 3)
    assert RowOp.add(2, 1) == RowOp("add", 2, 1, 1)
    assert str(RowOp.add(2, 1)) == "add 2 1"
    assert str(RowOp.add(2, 1, 5)) == "add 2 1 5"
    B = AttachingMatrix(moduli=(8, 16), entries=((3, 5), (1, 7)))
    assert replayed(B, RowOp.add(1, 2, 5)) == [[0, 8], [1, 7]]
    assert replayed(B, *[RowOp.add(1, 2)] * 5) == [[0, 8], [1, 7]]


@pytest.mark.parametrize(
    "args, message",
    [
        (("scale", 1), "unknown row operation 'scale'"),
        (("add", 0, 1), "row indices are 1-based"),
        (("negate", 0), "row indices are 1-based"),
        (("add", 1, 0), "row indices are 1-based"),
        (("swap", 2, -1), "row indices are 1-based"),
        (("add", 2, 2), "add requires two distinct rows"),
        (("swap", 3, 3), "swap requires two distinct rows"),
        (("negate", 1, 2), "negate takes a single row index"),
        (("add", 1, 2, 0), "an add multiplicity must be >= 1"),
        (("add", 1, 2, -3), "an add multiplicity must be >= 1"),
        (("swap", 1, 2, 2), "swap takes no multiplicity"),
        (("negate", 1, 0, 3), "negate takes no multiplicity"),
        # two faults: the kind, then a, then b (bounds, distinctness or
        # absence), then k >= 1, then whether the kind takes a k
        (("scale", 0), "unknown row operation 'scale'"),
        (("negate", 0, 2), "row indices are 1-based"),
        (("add", 0, 1, 0), "row indices are 1-based"),
        (("swap", 1, 0, 5), "row indices are 1-based"),
        (("add", 2, 2, 0), "add requires two distinct rows"),
        (("swap", 1, 1, 2), "swap requires two distinct rows"),
        (("negate", 1, 2, 3), "negate takes a single row index"),
        (("swap", 1, 2, 0), "an add multiplicity must be >= 1"),
        (("negate", 1, 0, -1), "an add multiplicity must be >= 1"),
    ],
)
def test_rowop_names_the_first_fault(args, message):
    with pytest.raises(ValueError) as info:
        RowOp(*args)
    assert str(info.value) == message


def test_matrix_validation():
    with pytest.raises(ValueError):
        AttachingMatrix(moduli=(8, 4), entries=((1, 1),))  # chain broken
    with pytest.raises(ValueError):
        AttachingMatrix(moduli=(4,), entries=())
    # rows given as a one-shot iterator are checked like a tuple of rows
    with pytest.raises(ValueError, match="at least one row"):
        AttachingMatrix((2,), iter([]))
    with pytest.raises(ValueError, match="row length"):
        AttachingMatrix((2,), (row for row in [(1, 1)]))
    assert AttachingMatrix([4], iter([[5]])) == AttachingMatrix((4,), ((1,),))
    # entries normalize into canonical residues
    B = AttachingMatrix.from_rows([[9], [-1]], 8)
    assert rows(B) == [[1], [7]]


def test_reduce_example_2_3_mod_240():
    B = AttachingMatrix.from_rows([[2], [3]], 240)
    R, _ = reduce_with_report(B)
    assert rows(R) == [[1], [0]]
    assert replay_oplog(R) == R.entries
    # reachability confirmed by breadth-first search over the operation orbit
    orbit = orbit_of((2, 3), 240)
    assert (1, 0) in orbit


def test_reduce_zero_matrix_is_fixed():
    B = AttachingMatrix.from_rows([[0, 0], [0, 0], [0, 0]], 12)
    R, notes = reduce_with_report(B)
    assert rows(R) == rows(B)
    assert R.diagonal == (0, 0)
    assert notes == ()


def test_reduce_example_4_6_mod_8():
    B = AttachingMatrix.from_rows([[4], [6]], 8)
    R, _ = reduce_with_report(B)
    assert rows(R) == [[2], [0]]
    assert R.diagonal == (2,)
    assert R.diagonal[0] == gcd_mod([CyclicElem(4, 8), CyclicElem(6, 8)])
    assert (2, 0) in orbit_of((4, 6), 8)


def test_reduce_attains_subgroup_generator_with_two_rows():
    # integer gcd of the entries exceeds the subgroup generator
    B = AttachingMatrix.from_rows([[4], [4]], 6)
    R, _ = reduce_with_report(B)
    assert R.diagonal == (2,)
    assert rows(R) == [[2], [0]]
    assert least_positive_generator([4, 4], 6) == 2


def test_reduce_single_row_negates_to_orbit_minimum_and_logs():
    B = AttachingMatrix.from_rows([[10]], 24)
    R, notes = reduce_with_report(B)
    assert rows(R) == [[10]]  # orbit is {10, 14}; generator 2 unreachable
    assert any("unreachable" in note for note in notes)

    B2 = AttachingMatrix.from_rows([[9]], 12)
    R2, notes2 = reduce_with_report(B2)
    assert rows(R2) == [[3]]  # negate reaches the generator here
    assert not any("unreachable" in note for note in notes2)


def test_reduce_multicolumn_triangular_shape():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randrange(1, 5)
        r = rng.randrange(1, 4)
        moduli = []
        d = rng.choice((2, 3, 4))
        for _ in range(r):
            moduli.append(d)
            d *= rng.choice((1, 2, 3))
        B = AttachingMatrix.from_rows(
            [[rng.randrange(moduli[j]) for j in range(r)] for _ in range(m)], moduli
        )
        R, _ = reduce_with_report(B)
        assert replay_oplog(R) == R.entries
        assert len(R.diagonal) == min(m, r)
        for j in range(min(m, r)):
            for i in range(j + 1, m):
                assert R.entries[i][j] == 0, (B.entries, R.entries)
            assert R.entries[j][j] == R.diagonal[j]


def test_rowops_preserve_column_subgroups():
    rng = random.Random(13)
    for _ in range(300):
        m = rng.randrange(2, 5)
        r = rng.randrange(1, 4)
        base = rng.choice((2, 3, 4, 6))
        moduli = [base] * r
        for j in range(1, r):
            moduli[j] = moduli[j - 1] * rng.choice((1, 2))
        B = AttachingMatrix.from_rows(
            [[rng.randrange(moduli[j]) for j in range(r)] for _ in range(m)], moduli
        )
        kind = rng.choice(("add", "swap", "negate"))
        a = rng.randrange(1, m + 1)
        b = rng.randrange(1, m + 1)
        while b == a:
            b = rng.randrange(1, m + 1)
        op = RowOp.negate(a) if kind == "negate" else RowOp(kind, a, b)
        B2 = replayed(B, op)
        for j in range(1, r + 1):
            before = subgroup_closure([row[j - 1] for row in B.entries], moduli[j - 1])
            after = subgroup_closure([row[j - 1] for row in B2], moduli[j - 1])
            assert before == after


def test_nonzero_column_count_examples():
    assert nonzero_column_count(AttachingMatrix.from_rows([[0, 3], [0, 0]], 8)) == 1
    assert nonzero_column_count(AttachingMatrix.from_rows([[0, 0], [0, 0]], 8)) == 0
    assert nonzero_column_count(AttachingMatrix.from_rows([[1, 1], [1, 1]], 8)) == 2


def _unit_lines(oplog):
    """The log with every `add a b k` written out as k lines `add a b`."""
    out = []
    for op in oplog:
        out.extend([f"add {op.a} {op.b}"] * op.k if op.kind == "add" else [str(op)])
    return out


def _divisors(n):
    small = [x for x in range(1, isqrt(n) + 1) if n % x == 0]
    return sorted({*small, *(n // x for x in small)})


def test_compact_log_matches_unary_reference():
    rng = random.Random(65520)
    divisors_65520 = _divisors(65520)
    for trial in range(200):
        m = rng.randrange(1, 6)
        r = rng.randrange(1, 4)
        moduli = [rng.choice(divisors_65520) if trial % 2 else rng.randrange(2, 65521)]
        while len(moduli) < r:
            moduli.insert(0, rng.choice(_divisors(moduli[0])))
        entries = [
            [rng.choice((0, 1, d - 1, rng.randrange(d), rng.randrange(d))) for d in moduli]
            for _ in range(m)
        ]
        B = AttachingMatrix.from_rows(entries, moduli)
        R, notes = reduce_with_report(B)
        want_entries, want_log, want_pivots, want_notes = unary_reduce_with_report(entries, moduli)
        assert _unit_lines(R.oplog) == want_log, (entries, moduli)
        assert R.entries == want_entries
        assert R.diagonal == want_pivots
        assert notes == want_notes
        assert replay_oplog(R) == R.entries
        assert len(R.oplog) <= 8 * m * r * (moduli[-1].bit_length() + 2)


def _random_chain(rng: random.Random, r: int) -> list[int]:
    """A divisibility chain of r moduli whose top is at most 2^64."""
    bits = 64 // r
    chain = [rng.randint(1, 2 ** rng.randint(1, bits))]
    while len(chain) < r:
        chain.append(chain[-1] * rng.randint(1, 2 ** rng.randint(0, bits)))
    return chain


def _pool_matrices() -> list[AttachingMatrix]:
    """Every attaching matrix of the seed-1 reduce_bigmod and batch_mixed
    benchmark pools that the matrix constructor accepts."""
    specs = jobs.reduce_bigmod(random.Random(1)) + jobs.batch_mixed(random.Random(1), run.BATCH_JOBS)
    matrices = []
    for spec in specs:
        if spec["kind"] == "complex":
            try:
                matrices.append(AttachingMatrix.from_rows(spec["B"], spec["moduli"]))
            except ValueError:
                pass
    return matrices


def test_one_update_reduction_matches_the_triple_update_oracle():
    rng = random.Random(20261020)
    matrices = _pool_matrices()
    assert len(matrices) > 168 + 400
    for trial in range(2400):
        moduli = _random_chain(rng, rng.randint(1, 3))
        m = rng.randint(1, 6)
        entries = [
            [rng.choice((0, 1, -1, rng.randint(-9, 9), rng.randrange(d), rng.randrange(d))) for d in moduli]
            for _ in range(m)
        ]
        B = AttachingMatrix.from_rows(entries, moduli)
        if trial % 5 == 0 and m > 1:
            # a matrix that already carries a log keeps its initial matrix
            ops = (RowOp.swap(1, m),)
            B = AttachingMatrix(moduli, replay_oplog(AttachingMatrix(moduli, B.entries, ops)), ops, B.entries)
        matrices.append(B)
    for B in matrices:
        R, notes = reduce_with_report(B)
        want, want_notes = triple_update_reduce_with_report(B)
        assert R.oplog == want.oplog, B
        assert R.entries == want.entries
        assert R.initial == want.initial == B.initial
        assert R.diagonal == want.diagonal
        assert notes == want_notes
        assert replay_oplog(R) == R.entries


def test_reduce_cost_follows_the_bits_of_the_modulus():
    # each input would need more unit adds than fit in the time bound
    cases = [
        ([[1], [2**64 - 1], [0]], [2**64]),
        ([[3], [0]], [2**81]),
        ([[832040 * 2**60], [1346269 * 2**60], [7]], [2**81]),
        ([[3, 5], [2**40 - 1, 2**81 - 7], [5, 1]], [2**40, 2**81]),
    ]
    statement = (
        "from gaugekit.modmatrix import AttachingMatrix, reduce_with_report, replay_oplog\n"
        f"for entries, moduli in {cases!r}:\n"
        "    R, notes = reduce_with_report(AttachingMatrix.from_rows(entries, moduli))\n"
        "    assert replay_oplog(R) == R.entries\n"
        "    bound = 8 * len(entries) * len(moduli) * (max(moduli).bit_length() + 2)\n"
        "    assert len(R.oplog) <= bound, (entries, len(R.oplog), bound)\n"
        "    assert R.diagonal[0] == 1, (R, notes)\n"
    )
    assert seconds_in_fresh_interpreter(statement) < 1.0


def test_rowop_orbit_engine_matches_oracle():
    engine = rowop_orbit(((4,), (6,)), (8,))
    oracle = {tuple(r[0] for r in state) for state in engine}
    assert oracle == set(orbit_of((4, 6), 8))


def test_rowop_orbit_matches_list_copy_search_and_cap_rule():
    # small multi-column matrices and chains; each orbit is also searched
    # with the cap at its exact size (found) and one below it (None).  The
    # packed search's radix spans the rows and the moduli, so four-row and
    # three-modulus inputs with orbits under the cap are added by hand
    rng = random.Random(7)
    chains = [(5,), (8,), (12,), (24,), (2, 4), (3, 6), (2, 2), (4, 8), (2, 4, 8), (2, 6, 12)]
    cases = [
        (tuple(tuple(rng.randrange(d) for d in moduli) for _ in range(rng.randint(1, 4))), moduli)
        for moduli in (rng.choice(chains) for _ in range(80))
    ] + [
        (((1, 0, 0), (0, 3, 0), (0, 0, 0), (0, 0, 0)), (2, 6, 12)),  # 210 states
        (((0, 2, 4), (0, 0, 0), (0, 4, 8), (0, 0, 0)), (2, 6, 12)),  # 80
        (((1, 5, 11), (0, 0, 0)), (2, 6, 12)),  # 96
        (((1,), (2,), (0,), (3,)), (4,)),  # 240
    ]
    capped = exact = 0
    for entries, moduli in cases:
        full = listcopy_rowop_orbit(entries, moduli, 3000)
        assert rowop_orbit(entries, moduli, 3000) == full, (entries, moduli)
        if full is None:
            capped += 1
            continue
        n = len(full)
        assert rowop_orbit(entries, moduli, n) == full
        if n > 1:
            exact += 1
            assert rowop_orbit(entries, moduli, n - 1) is None
            assert listcopy_rowop_orbit(entries, moduli, n - 1) is None
    assert capped >= 5 and exact >= 20, (capped, exact)


def test_capped_orbit_search_keeps_one_integer_a_state():
    # the CLI's largest --trace search: it gives up at 50,000 states
    tracemalloc.start()
    try:
        assert rowop_orbit(((7,), (53,), (91,)), (120,)) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000, peak


@pytest.mark.parametrize(
    "entries, moduli",
    [(((8,),), (8,)), (((-1,),), (8,)), (((0,), (1, 3)), (2, 4)), (((1, 2),), (4,))],
)
def test_rowop_orbit_rejects_entries_outside_their_moduli(entries, moduli):
    # an entry must be a reduced residue of its column, never reduced here
    with pytest.raises(ValueError, match="does not have reduced entries mod"):
        rowop_orbit(entries, moduli)


def test_rank_f2_examples():
    assert rank_f2(F2Matrix.identity(3)) == 3
    assert rank_f2(F2Matrix([[0, 0], [0, 0]])) == 0
    assert rank_f2(F2Matrix.from_rows([[1, 1], [1, 1]])) == 1


def test_rank_f2_all_3x3_against_row_space_count():
    for bits in itertools.product((0, 1), repeat=9):
        rows3 = [bits[0:3], bits[3:6], bits[6:9]]
        assert rank_f2(F2Matrix.from_rows(rows3)) == rank_f2_bruteforce(rows3)


def test_f2matrix_validation():
    with pytest.raises(ValueError):
        F2Matrix.from_rows([[1, 0], [1]])
    with pytest.raises(ValueError):
        F2Matrix.from_rows([[2, 0], [0, 0]])


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[0, 1, 3, 2], [0] * 4, [0] * 4, [0] * 4], "entries must be bits, got 3"),
        ([[1, 0], [1, -1]], "entries must be bits, got -1"),
        # rows are checked in order, each for its length before its bits
        ([[0, 2], [1]], "entries must be bits, got 2"),
        ([[0, 1], [1], [5, 5]], "matrix must be square"),
    ],
)
def test_f2matrix_names_the_first_fault(rows, message):
    with pytest.raises(ValueError) as info:
        F2Matrix.from_rows(rows)
    assert str(info.value) == message


def test_f2matrix_rows_are_tuples_of_ints():
    assert F2Matrix.from_rows([(True, 0), "01"]).rows == ((1, 0), (0, 1))
    assert type(F2Matrix.from_rows([[True]]).rows[0][0]) is int
