import random
import re
from pathlib import Path

import pytest

from gaugekit.exact import CyclicElem
from gaugekit.parser import MAX_DEPTH, ParseError, _kind, _tokenize, parse
from gaugekit.render import render, render_latex, render_text
from gaugekit.spaces import (
    AttachedComplex,
    Gauge,
    LieGroup,
    Loop,
    MappingSpace,
    Sphere,
    SuspCP2,
    Wedge,
    attached,
    gauge,
    localize,
    loop,
    normalize,
    product,
    sort_key,
    suspension,
    two_cell,
    wedge,
)

from support import (
    NAME_PIECES,
    expression_fixture_lines,
    mutated_renders,
    parse_error_fixture_lines,
    random_expr,
    regex_tokenize,
    seconds_in_fresh_interpreter,
)

GOLDEN = Path(__file__).parent / "golden"


def test_render_contract_examples():
    p = product(gauge(Sphere(10), "k"), loop(5, LieGroup("E6")))
    assert render(p, "text") == "G_k(S^10) x Omega^5 E6"

    w = wedge(Sphere(6), Sphere(6))
    assert render(w, "latex") == r"S^{6} \vee S^{6}"

    l3 = loop(3, MappingSpace(SuspCP2(0), LieGroup("E7")))
    assert render(l3, "text") == "Omega^3 Map*(CP^2, E7)"


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        render(Sphere(3), "html")


def test_more_latex_forms():
    tc = two_cell(8, CyclicElem(40, 240))
    assert render_latex(suspension(1, tc)) == r"\Sigma (S^{8} \cup_{40} e^{16})"
    assert render_latex(gauge(Sphere(10), "alpha")) == r"\mathcal{G}_{\alpha}(S^{10})"
    assert render_latex(SuspCP2(3)) == r"\Sigma^{3}\mathbb{C}P^{2}"
    assert (
        render_latex(attached(wedge(SuspCP2(3), Sphere(5)), 12, "f"))
        == r"(\Sigma^{3}\mathbb{C}P^{2} \vee S^{5}) \cup_{f} e^{12}"
    )
    assert render_latex(LieGroup("E7")) == "E_7"
    assert render_latex(LieGroup("Sp(3)")) == "Sp(3)"


def test_renders_of_seeded_trees_match_golden():
    expected = (GOLDEN / "expressions.txt").read_text(encoding="utf-8").splitlines()
    assert expression_fixture_lines(8, 60) == expected


def _golden_renders() -> list[str]:
    """The text and LaTeX renders in expressions.txt, without their tags."""
    renders = []
    for line in (GOLDEN / "expressions.txt").read_text(encoding="utf-8").splitlines():
        _, tag, rest = line.split(" ", 2)
        renders.append(rest.split(" ", 1)[1] if tag == "away" else rest)
    return renders


def test_tokenizer_agrees_with_the_named_group_oracle():
    rng = random.Random(5)
    texts = _golden_renders()
    texts += [render_text(normalize(random_expr(rng, depth=3))) for _ in range(400)]
    texts += mutated_renders(2024, 2400)
    failures = 0
    for text in texts:
        try:
            want = regex_tokenize(text)
        except ParseError as exc:
            failures += 1
            with pytest.raises(ParseError) as info:
                _tokenize(text)
            assert str(info.value) == str(exc), text
            continue
        got = _tokenize(text)
        assert got == [token for _, token in want], text
        assert [_kind(token) for token in got] == [kind for kind, _ in want], text
    assert min(failures, len(texts) - failures) > 1000  # both outcomes are well sampled


def test_parse_error_messages_match_golden():
    expected = (GOLDEN / "parse_errors.txt").read_bytes()
    assert ("\n".join(parse_error_fixture_lines(13, 300)) + "\n").encode("ascii") == expected


# Hostile texts, as Python expressions: each is parsed in a fresh interpreter.
HOSTILE = {
    "unclosed labels": '"[" * 200_000',
    "long name then junk": '"a" + "1" * 200_000 + "!"',
    "unclosed label after a cup": '"S^5 u[" + "x" * 200_000',
    "long whitespace then junk": '" " * 200_000 + "!"',
    "long gauge label": '"G_" + "k" * 200_000 + "("',
    "flat wedge": '"S^2 v " * 20_000 + "S^3"',
}


@pytest.mark.parametrize("name", list(HOSTILE))
def test_hostile_text_parses_or_fails_promptly(name):
    statement = (
        "try:\n"
        f"    gaugekit.parse({HOSTILE[name]})\n"
        "except gaugekit.ParseError:\n"
        "    pass"
    )
    assert seconds_in_fresh_interpreter(statement) < 2.0


def test_text_round_trip_on_fixed_corpus():
    corpus = [
        product(gauge(Sphere(10), "k"), *(loop(5, LieGroup("E6")) for _ in range(3))),
        product(gauge(two_cell(8, CyclicElem(40, 240)), "k"), loop(8, LieGroup("E8"))),
        wedge(suspension(1, two_cell(8, CyclicElem(40, 240))), Sphere(9)),
        product(
            gauge(attached(wedge(SuspCP2(3), Sphere(5)), 12, "f"), "k"),
            loop(3, MappingSpace(SuspCP2(0), LieGroup("E7"))),
            loop(5, LieGroup("E7")),
            loop(7, LieGroup("E7")),
        ),
        product(gauge(attached(Sphere(5), 11, "J(xi)"), "alpha"), loop(6, LieGroup("E6"))),
        product(Sphere(5), Sphere(6)),
        gauge(Sphere(12), "k", "E7"),
        wedge(Sphere(6), product(Sphere(3), Sphere(4))),
        loop(1, wedge(Sphere(2), Sphere(3))),
        suspension(2, attached(Sphere(5), 12)),
    ]
    for e in corpus:
        text = render_text(e)
        assert parse(text) == e, text
        assert render_text(parse(text)) == text


def test_text_round_trip_random_sweep():
    rng = random.Random(99)
    for _ in range(400):
        e = normalize(random_expr(rng, depth=3))
        text = render_text(e)
        assert parse(text) == e, text


def test_round_trip_survives_localization():
    rng = random.Random(17)
    for _ in range(100):
        e = localize(random_expr(rng, depth=3), {2})
        assert parse(render_text(e)) == e


def test_round_trip_needs_names_and_labels_in_the_token_grammar():
    # names and labels whose text would not parse back to them
    message = "group must be a Lie group name NAME or NAME(INT), got 'Sp( 3)'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        LieGroup("Sp( 3)")  # would re-parse as Sp(3)
    for name in ("G_k", "mod"):
        with pytest.raises(ValueError, match="^group must be a Lie group name"):
            LieGroup(name)
        with pytest.raises(ValueError, match="^group must be a Lie group name"):
            gauge(Sphere(2), "k", name)
    for label in ("k x", "1"):
        with pytest.raises(ValueError, match="^gauge label must be an ASCII letter"):
            gauge(Sphere(2), label)
    with pytest.raises(ValueError, match="^cell label must not contain"):
        attached(Sphere(5), 12, "a]b")
    # an empty label or group is none, and renders as none
    assert attached(Sphere(5), 12, "") == attached(Sphere(5), 12) == AttachedComplex(Sphere(5), 12)
    assert gauge(Sphere(2), "k", "") == gauge(Sphere(2)) == Gauge(Sphere(2))
    assert render_text(AttachedComplex(Sphere(5), 12, "")) == "S^5 u e^12"
    assert render_text(Gauge(Sphere(2), "k", "")) == "G_k(S^2)"


def _named_expr(rng: random.Random, depth: int):
    """A canonical tree whose group names and labels are random words of
    name pieces; building it raises when one is outside the grammar."""

    def name() -> str:
        return "".join(rng.choices(NAME_PIECES, k=rng.randint(1, 3)))

    kind = rng.randrange(5) if depth else 0
    if kind == 0:
        return LieGroup(name())
    inner = _named_expr(rng, depth - 1)
    if kind == 1:
        return gauge(inner, name(), rng.choice((None, "", name())))
    if kind == 2:
        return attached(inner, rng.randint(8, 20), rng.choice((None, "", name())))
    if kind == 3:
        return rng.choice((loop, suspension))(rng.randint(1, 3), inner)
    return rng.choice((wedge, product))(inner, random_expr(rng, depth=1))


def test_every_tree_of_random_names_raises_or_round_trips():
    rng = random.Random(2022)
    built = 0
    for _ in range(3000):
        try:
            e = _named_expr(rng, rng.randint(0, 3))
        except ValueError:
            continue
        built += 1
        assert parse(render_text(e)) == e, render_text(e)
    assert 300 < built < 2700


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("S^5 x S^6 v S^7")  # mixed operators need parentheses
    with pytest.raises(ParseError):
        parse("S^5 x")
    with pytest.raises(ParseError):
        parse("TC(5,11;1 mod 2)")  # top cell must double the bottom
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("S^5 ⊕ S^6")
    for text in ("Sigma^0 S^3", "Sigma^0 E8", "Omega^0 E8", "TC(3,6;1 mod 0)"):
        with pytest.raises(ParseError):
            parse(text)
    for text in ("Omega^1 " * 3000 + "S^3", "(" * 3000 + "S^3" + ")" * 3000):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse(text)


def test_parse_accepts_optional_gauge_group_annotation():
    assert parse("G_k(S^10; E6)") == gauge(Sphere(10), "k", "E6")
    assert parse("G_k(S^10)") == gauge(Sphere(10), "k")
    assert parse("G_alpha(S^5 u[J(xi)] e^11; Sp(3))") == gauge(
        attached(Sphere(5), 11, "J(xi)"), "alpha", "Sp(3)"
    )


def test_empty_attaching_label_round_trips_as_unlabelled():
    e = parse("S^5 u[] e^12")
    assert e == attached(Sphere(5), 12)
    assert parse(render_text(e)) == e
    labelled = AttachedComplex(Sphere(5), 12, "")
    assert normalize(labelled) == e
    assert normalize(Wedge((e, labelled))) == normalize(Wedge((labelled, e)))
    assert parse("S^5 u[] e^12 v S^5 u e^12") == parse("S^5 u e^12 v S^5 u[] e^12")
    assert normalize(Gauge(Sphere(10), "k", "")) == gauge(Sphere(10), "k")


# One level of each form of nesting, wrapped around `inner` at step i.
_NESTINGS = {
    "prefixes": lambda inner, i: f"{'Omega' if i % 2 else 'Sigma'}^1 {inner}",
    "parentheses": lambda inner, i: f"S^{i + 1} {'xv'[i % 2]} ({inner})",
    "mapping spaces": lambda inner, i: f"Map*({inner}, E8)",
    "gauge atoms": lambda inner, i: f"G_k({inner}; E7)",
    "attached skeletons": lambda inner, i: f"({inner}) u[f] e^{i + 20}",
}


def _nested_text(form: str, depth: int) -> str:
    text = "E8"
    for i in range(depth):
        text = _NESTINGS[form](text, i)
    return text


@pytest.mark.parametrize("form", list(_NESTINGS))
def test_traversals_handle_every_tree_parse_accepts(form):
    e = parse(_nested_text(form, MAX_DEPTH))
    assert sort_key(e) == sort_key(parse(_nested_text(form, MAX_DEPTH)))
    assert normalize(e) == e
    assert localize(e, {2, 3}) == e
    assert render_text(e) and render_latex(e)
    assert parse(render_text(e)) == e
    with pytest.raises(ParseError, match="nested too deeply"):
        parse(_nested_text(form, MAX_DEPTH + 1))
    # a tree half as deep round-trips too
    half = parse(_nested_text(form, MAX_DEPTH // 2))
    assert parse(render_text(half)) == half


def test_every_entry_point_rejects_a_node_that_is_not_a_space():
    entry_points = [
        sort_key,
        normalize,
        lambda e: localize(e, {2}),
        render_text,
        render_latex,
        lambda e: wedge(Sphere(2), e),
        lambda e: product(Sphere(2), e),
    ]
    for bad in (42, Loop(1, Wedge((Sphere(2), 42)))):
        for call in entry_points:
            with pytest.raises(TypeError, match="not a space expression: 42"):
                call(bad)
    # the smart constructors check the operand they are given, not below it
    constructors = [
        wedge,
        product,
        lambda e: loop(1, e),
        lambda e: suspension(1, e),
        lambda e: attached(e, 4),
        gauge,
    ]
    for call in constructors:
        with pytest.raises(TypeError, match="not a space expression: 42"):
            call(42)
