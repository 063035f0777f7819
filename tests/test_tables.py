import ast
import itertools
import random
from pathlib import Path

import pytest

from gaugekit.decompose import decompose
from gaugekit.groups import FGAbelianGroup
from gaugekit.manifolds import GeneralComplex, N2Manifold, SigmaFCase, WallManifold
from gaugekit.modmatrix import AttachingMatrix, F2Matrix
from gaugekit.render import render_text
from gaugekit.spaces import LieGroup
from gaugekit.tables import (
    _MEMO_CAP,
    GroupQueryResult,
    HypothesisNotMetError,
    NotTabulatedError,
    TableEntry,
    Tables,
    default_tables,
    parse_space,
)

from support import NAME_PIECES, reference_matches, seconds_in_fresh_interpreter

Zof = FGAbelianGroup.of
T = default_tables()


def test_quoted_values_are_asserted_verbatim():
    assert T.pi("E6", 9).group == Zof(1)
    assert T.pi("E7", 11).group == Zof(1)
    assert T.pi("E8", 15).group == Zof(1)
    assert T.pi("S^5", 9).group == Zof(0, [2])
    assert T.pi("S^6", 11).group == Zof(1)
    assert T.pi("S^8", 15).group == Zof(1, [120])
    assert T.pi("S", 7).group == Zof(0, [240])
    assert T.pi("S^8", 12).group == Zof(0)
    assert T.pi("S^10", 16).group == Zof(0, [2])
    assert T.pi("S^7", 15).group == Zof(0, [2, 2, 2])
    for k in (9, 10, 13, 23):
        assert T.pi(f"S^{k}", k + 7).group == Zof(0, [240])
    assert T.pi("S^6", 12).group == Zof(0, [2])
    assert T.pi("S^8", 16).group == Zof(0, [2, 2, 2, 2])


def test_every_entry_has_provenance():
    assert "Kachi" in T.pi("E6", 9).source
    assert "Toda" in T.pi("S^6", 12).source
    assert "Bott" in T.pi("Sp(3)", 3).source


def test_pi_examples():
    assert T.pi("E7", 11).group == Zof(1)
    # q = 3 mod 8 within the symplectic stable range
    assert T.pi("Sp(3)", 11).group == Zof(1)
    assert T.pi("S^6", 12).group == Zof(0, [2])
    with pytest.raises(NotTabulatedError):
        T.pi("E6", 2)


def test_bott_validity_windows():
    # inside: q - 1 <= 4r
    assert T.pi("Sp(2)", 9).group.is_trivial()
    # outside the stable range the same residue row must not answer
    with pytest.raises(NotTabulatedError):
        T.pi("Sp(2)", 10)
    assert T.pi("Spin(11)", 9).group == Zof(0, [2])
    with pytest.raises(NotTabulatedError):
        T.pi("Spin(10)", 9)  # needs r >= q + 2
    with pytest.raises(NotTabulatedError):
        T.pi("Spin(11)", 1)  # needs q >= 2


def test_sphere_connectivity_rows():
    assert T.pi("S^6", 3).group.is_trivial()
    assert T.pi("S^6", 6).group == Zof(1)
    with pytest.raises(NotTabulatedError):
        T.pi("S^6", 13)


def test_vanishing_range_examples():
    assert T.first_nonvanishing("E8", 4, 14) is None
    assert T.first_nonvanishing("E6", 4, 8) is None
    assert T.first_nonvanishing("E7", 4, 11) == (11, Zof(1))
    assert T.first_nonvanishing("E7", 4, 10) is None
    with pytest.raises(NotTabulatedError):
        T.first_nonvanishing("E6", 10, 10)  # pi_10(E6) untabulated
    # empty range is vacuously vanishing
    assert T.first_nonvanishing("E6", 9, 8) is None


def test_first_nonvanishing_short_circuits_at_first_nonzero():
    # degree 9 is a proven failure, so the untabulated degree 10 is never consulted
    assert T.first_nonvanishing("E6", 4, 12) == (9, Zof(1))


def test_classify_bundles_examples():
    assert T.classify_bundles(10, 4, "E6").group == Zof(1)
    assert T.classify_bundles(12, 4, "E7").group == Zof(1)
    assert T.classify_bundles(16, 4, "E8").group == Zof(1)
    # hypotheses hold for (12, E6) but pi_11(E6) is not tabulated
    with pytest.raises(NotTabulatedError):
        T.classify_bundles(12, 4, "E6")
    # and a genuine hypothesis failure carries the offending degree
    with pytest.raises(HypothesisNotMetError) as err:
        T.classify_bundles(16, 4, "E6")
    assert err.value.degree == 9
    assert err.value.group == Zof(1)


def test_candidate_set_for_suspended_projective_plane():
    cands = T.pi_candidates("SCP2^6", 16)
    groups = {c.group for c in cands}
    assert groups == {
        Zof(0, [2, 4]),
        Zof(0, [2, 2, 2]),
        Zof(0, [2, 2, 4]),
        Zof(0, [2, 2, 2, 2]),
    }
    with pytest.raises(NotTabulatedError):
        T.pi("SCP2^6", 16)  # never served as a single group
    # unambiguous degrees pass through the candidate API unchanged
    assert T.pi_candidates("SCP2^6", 15)[0].group == Zof(1, [120])
    assert T.pi("SCP2^4", 12).group == Zof(0, [2])
    assert T.pi("SCP2^9", 12).group.is_trivial()


def test_parse_space():
    assert parse_space("S^7") == ("S^n", {"n": 7})
    assert parse_space("S") == ("S", {})
    assert parse_space("Sp(4)") == ("Sp", {"r": 4})
    assert parse_space("SCP2^6") == ("SCP2^k", {"k": 6})
    assert parse_space("CP^2") == ("SCP2^k", {"k": 0})
    assert parse_space("E7") == ("E7", {})


def test_every_ranked_group_name_resolves_to_its_family_and_rank():
    rng = random.Random(27)
    names = {"".join(rng.choices(NAME_PIECES, k=rng.randint(1, 4))) for _ in range(3000)}
    resolved = 0
    for name in sorted(names):
        for rank in ("0", "3", "12", "\u0663"):
            try:
                LieGroup(f"{name}({rank})")
            except ValueError:
                continue
            assert parse_space(f"{name}({rank})") == (name, {"r": int(rank)})
            resolved += 1
    assert resolved > 300


def test_families_with_digits_or_underscores_answer_ranked_names():
    t = Tables.from_lines([
        "Sp2, r, 4..5, 0, -, r >= 2, a family named with a digit",
        "Sp2, r, 9, 1, -, r >= 2, a family named with a digit",
        "Spin_x, r, 3..5, 0, 2, -, a family named with an underscore",
    ])
    assert t.pi("Sp2(3)", 9) == GroupQueryResult(Zof(1), "a family named with a digit")
    assert t.pi("Spin_x(7)", 5).group == Zof(0, [2])
    with pytest.raises(NotTabulatedError):
        t.pi("Sp2(1)", 9)
    d = decompose(WallManifold.of(5, [0, 0]), "Sp2(3)", tables=t)
    assert render_text(d.gauge) == "G_k(S^10) x Omega^5 Sp2(3) x Omega^5 Sp2(3)"


@pytest.mark.parametrize("space, degree", [("E6(3)", 9), ("S(3)", 3), ("Sp", 3), ("E6(3)", 4)])
def test_a_record_answers_only_names_that_bind_exactly_its_params(space, degree):
    # a rank on an unranked family is not ignored, nor a missing rank guessed
    family = space.split("(")[0]
    assert T._families[family]
    with pytest.raises(NotTabulatedError):
        T.pi(space, degree)


def test_extension_tables_via_env(tmp_path, monkeypatch):
    src = default_tables()
    # copy the packaged tables and add one extension record
    import shutil
    from pathlib import Path

    data_dir = Path(__file__).resolve().parents[1] / "src" / "gaugekit" / "data"
    for f in data_dir.glob("*.tbl"):
        shutil.copy(f, tmp_path / f.name)
    (tmp_path / "zz_extension.tbl").write_text(
        "E6, -, 11, 0, 12 360, -, example extension entry\n", encoding="utf-8"
    )
    monkeypatch.setenv("GAUGEKIT_TABLES", str(tmp_path))
    ext = default_tables()
    assert ext.pi("E6", 11).group == Zof(0, [12, 360])
    assert ext.pi("E6", 9).group == Zof(1)
    # the packaged default is untouched
    monkeypatch.delenv("GAUGEKIT_TABLES")
    with pytest.raises(NotTabulatedError):
        default_tables().pi("E6", 11)
    assert src.pi("E6", 9).group == Zof(1)


def test_inline_tables():
    t = Tables.from_lines(
        [
            "# synthetic",
            "Gtest, -, 1..60, 0, -, -, synthetic vanishing group",
        ]
    )
    assert t.first_nonvanishing("Gtest", 4, 40) is None
    with pytest.raises(NotTabulatedError):
        t.pi("Gtest", 61)
    # malformed records are rejected when they are loaded, naming the line
    for record in (
        "Gtest, n, 1, 0, -, m >= 1, unknown variable",
        "Gtest, n, n ** 2, 0, -, -, power",
        "Gtest, n, 1, 0, -, not n, negation",
        "Gtest, n, 1, 0, -, n.real, attribute",
        'Gtest, n, 1, 0, -, "x", string constant',
        'Gtest, n, 1, 0, -, __import__("os"), call',
        "Gtest, n, " + "+".join(["n"] * 20000) + ", 0, -, -, deep sum",
        "Gtest, n, " + "-" * 20000 + "n, 0, -, -, deep negation",
    ):
        with pytest.raises(ValueError, match="<inline>:1"):
            Tables.from_lines([record])
    # how deep a sum compiles depends on the interpreter: CPython 3.13
    # compiles 1,500 chained terms that 3.10 to 3.12 reject
    deep = "+".join(["n"] * 1500) + " > 0"
    record = f"S^n, n, 1, 0, -, {deep}, deep to compile"
    try:
        compile(ast.parse(deep, mode="eval"), "<probe>", "eval")
    except (RecursionError, MemoryError):
        with pytest.raises(ValueError) as err:
            Tables.from_lines([record])
        assert str(err.value) == "<inline>:1: table expression nested too deeply"
    else:
        assert Tables.from_lines([record]).pi("S^4", 1).group.is_trivial()
    # a record that divides by zero for some params is untabulated there
    t = Tables.from_lines(["S^n, n, 3, 0, -, q // (n - 5) >= 0, divisor record"])
    assert t.pi("S^6", 3).group.is_trivial()
    with pytest.raises(NotTabulatedError, match="divisor record"):
        t.pi("S^5", 3)


DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "gaugekit" / "data"


def test_compiled_conditions_agree_with_reference_evaluator():
    records = [
        line
        for path in DATA_DIR.glob("*.tbl")
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]
    tables = Tables.from_dir(DATA_DIR)
    entries = [entry for family in tables._families.values() for entry in family]
    assert len(entries) == len(records)
    for entry in entries:
        for values in itertools.product(range(25), repeat=len(entry.params)):
            params = dict(zip(entry.params, values))
            for q in range(65):
                want = reference_matches(entry.degree_spec, entry.validity, params, q)
                assert entry.matches(params, q) == want, (entry, params, q)


def test_require_vanishing_reports_the_tabulated_group():
    t = Tables.from_lines(
        [
            "Gt, -, 5, 0, 6, -, synthetic Z/6",
            "Gt, -, 6, 0, 10, -, synthetic Z/10",
        ]
    )
    t.require_vanishing("Gt", 5, 6, "the test", frozenset({2, 3, 5}))
    with pytest.raises(HypothesisNotMetError) as err:
        t.require_vanishing("Gt", 5, 6, "the test", frozenset({2}))
    assert (err.value.degree, err.value.group) == (5, Zof(0, [6]))
    assert "required for the test" in str(err.value)
    with pytest.raises(HypothesisNotMetError) as err:
        t.require_vanishing("Gt", 5, 6, "the test", frozenset({2, 3}))
    assert (err.value.degree, err.value.group) == (6, Zof(0, [10]))


def test_large_prime_torsion_order_loads_promptly():
    statement = (
        "t = gaugekit.Tables.from_lines(['Gbig, -, 3, 0, 10000000000000000051, -, x']); "
        "assert str(t.pi('Gbig', 3).group) == 'Z/10000000000000000051'"
    )
    assert seconds_in_fresh_interpreter(statement) < 1.0


# a query name for each packaged family and value of its one parameter
_QUERY_NAME = {"S^n": "S^{}", "SCP2^k": "SCP2^{}", "Sp": "Sp({})", "Spin": "Spin({})"}


def _answers(tables: Tables, space: str, q: int):
    """What pi and pi_candidates give: the group and citation, or the error text."""
    out = []
    for query in (tables.pi, tables.pi_candidates):
        try:
            out.append(query(space, q))
        except NotTabulatedError as exc:
            out.append(str(exc))
    return out


def _reference_answer(records: list[TableEntry], space: str, q: int):
    """The first record the reference evaluator matches, or None."""
    _, params = parse_space(space)
    for entry in records:
        if all(p in params for p in entry.params) and reference_matches(
            entry.degree_spec, entry.validity, params, q
        ):
            return entry
    return None


def test_memoized_answers_equal_a_fresh_scan_and_the_reference():
    memo = Tables.from_dir(DATA_DIR)
    entries = [entry for family in memo._families.values() for entry in family]
    hits = 0
    for family, records in memo._families.items():
        pattern = _QUERY_NAME.get(family)
        spaces = [family] if pattern is None else [pattern.format(v) for v in range(25)]
        assert all(len(entry.params) == (pattern is not None) for entry in records)
        for space in spaces:
            for q in range(65):
                first = _answers(memo, space, q)
                assert _answers(memo, space, q) == first == _answers(Tables(entries), space, q)
                entry = _reference_answer(records, space, q)
                if entry is None:
                    assert first == [f"pi_{q}({space}) is not tabulated"] * 2
                    continue
                hits += 1
                assert [r.group for r in first[1]] == list(entry.groups)
                assert {r.source for r in first[1]} == {entry.citation}
                if len(entry.groups) == 1:
                    assert first[0] == first[1][0]
                else:
                    assert "only a candidate set is known" in first[0]
    assert hits > 1000
    assert 0 < len(memo._memo) <= _MEMO_CAP


def test_a_division_by_zero_raises_on_every_repeat():
    t = Tables.from_lines(["S^n, n, 3, 0, -, q // (n - 5) >= 0, divisor record"])
    for _ in range(3):
        with pytest.raises(NotTabulatedError, match=r"divisor record\) divides by zero"):
            t.pi("S^5", 3)
        with pytest.raises(NotTabulatedError, match="divides by zero"):
            t.pi_candidates("S^5", 3)
    assert t.pi("S^6", 3).group.is_trivial()
    assert list(t._memo) == [("S^6", 3)]


def test_instances_do_not_share_answers():
    two = Tables.from_lines(["Gx, -, 3, 0, 2, -, first"])
    three = Tables.from_lines(["Gx, -, 3, 0, 3, -, second"])
    for _ in range(2):
        assert two.pi("Gx", 3) == GroupQueryResult(Zof(0, [2]), "first")
        assert three.pi("Gx", 3) == GroupQueryResult(Zof(0, [3]), "second")


def test_memo_never_exceeds_its_cap():
    t = Tables.from_lines(["Gt, -, 0..100000, 0, 2, -, every degree"])
    for degree in range(2 * _MEMO_CAP + 10):
        assert t.pi("Gt", degree).group == Zof(0, [2])
        assert len(t._memo) <= _MEMO_CAP
    assert t.pi("Gt", 0).source == "every degree"  # answered again after a clear


def test_a_repeated_decomposition_tests_no_record(monkeypatch):
    entries = [entry for family in default_tables()._families.values() for entry in family]
    tested = []
    matches = TableEntry.matches
    monkeypatch.setattr(TableEntry, "matches", lambda self, *a: tested.append(1) or matches(self, *a))
    # every query of these jobs is tabulated (a miss is scanned again)
    jobs = [
        (WallManifold.of(8, [0, 0, 0]), "E8", {2}),
        (N2Manifold(6, F2Matrix.identity(2), SigmaFCase.NULL_HOMOTOPIC), "E7", set()),
        (GeneralComplex(6, AttachingMatrix.from_rows([[2], [3], [0]], [24])), "E7", {5}),
    ]
    for spec, group, away in jobs:
        tables = Tables(entries)
        first = decompose(spec, group, away, tables)
        assert tested
        tested.clear()
        assert decompose(spec, group, away, tables) == first
        assert tested == []
