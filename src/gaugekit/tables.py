"""Curated, provenance-tagged homotopy-group tables and the bundle
classification check for highly connected manifolds.

Tables are data files, not code: line-oriented records

    space, params, degree, free_rank, torsion, validity, citation

with `#` comments.  The space field names a family (E6, S^n, Sp, ...),
params declares its parameter variables, degree is an exact integer, a
range ``lo..hi``, an arithmetic expression in the parameters, or a residue
pattern ``q mod M = R``, and validity is a side condition on the query
degree ``q``.  Each record is checked against the expression grammar and
compiled into one condition when it is loaded, so a malformed record fails
the load with its file and line, never a query.  Torsion is a
space-separated invariant-factor list, ``-`` for none; alternatives
separated by ``|`` form a candidate set, which is served only through the
candidate API.  Every lookup either returns a tabulated group with its
citation or raises a typed error -- never a guess.

A line ``groups: NAME ...`` declares the families that are structure
groups; `decompose` takes no group of any other family, so the stable
stems ``S`` never stand in for a Lie group.

The directory of table files can be overridden with the GAUGEKIT_TABLES
environment variable; extension files simply add records and group
families, and a directory without any ``*.tbl`` file is an error.
"""

from __future__ import annotations

import ast
import os
import re
from pathlib import Path
from types import CodeType
from typing import Iterable

from .groups import FGAbelianGroup
from .spaces import NAME
from .value import Value, set_field

__all__ = [
    "NotTabulatedError",
    "HypothesisNotMetError",
    "GroupQueryResult",
    "TableEntry",
    "Tables",
    "default_tables",
]


class NotTabulatedError(LookupError):
    """A homotopy-group query outside the stored tables, or (degree None)
    a structure group of a family the tables do not declare."""

    def __init__(self, space: str, degree: int | None, detail: str = ""):
        self.space = space
        self.degree = degree
        if degree is None:
            msg = f"{space} is not in a structure-group family of the tables"
        else:
            msg = f"pi_{degree}({space}) is not tabulated"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class HypothesisNotMetError(ValueError):
    """A vanishing hypothesis failed; carries the first offending degree."""

    def __init__(self, space: str, degree: int, group: FGAbelianGroup, requirement: str):
        self.space = space
        self.degree = degree
        self.group = group
        self.requirement = requirement
        super().__init__(
            f"pi_{degree}({space}) = {group} does not vanish; required for {requirement}"
        )


# --- record model ----------------------------------------------------------

_MOD_PATTERN = re.compile(r"^q\s+mod\s+(0*[1-9]\d*)\s*=\s*(\d+)$")

# the expression grammar: int constants, names, unary minus, + - * // %,
# comparisons and and/or (ast.walk also yields the operator and context nodes)
_GRAMMAR = frozenset({
    ast.Constant, ast.Name, ast.Load, ast.UnaryOp, ast.USub,
    ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.Mod,
    ast.Compare, ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq,
    ast.BoolOp, ast.And, ast.Or,
})
# source position of the nodes that join a record's parsed fields
_AT = {"lineno": 1, "col_offset": 0, "end_lineno": 1, "end_col_offset": 0}


def _expression(text: str, names: frozenset[str]) -> ast.expr:
    """Parse one degree or validity expression and check it against the
    grammar; the only names allowed are the declared params and q."""
    try:
        tree = ast.parse(text.strip(), mode="eval").body
    except SyntaxError:
        raise ValueError(f"cannot parse table expression {text!r}") from None
    for node in ast.walk(tree):
        if type(node) not in _GRAMMAR:
            raise ValueError(f"unsupported {type(node).__name__} in table expression {text!r}")
        if isinstance(node, ast.Constant) and not isinstance(node.value, int):
            raise ValueError(f"non-integer constant {node.value!r} in table expression")
        if isinstance(node, ast.Name) and node.id not in names:
            raise ValueError(f"unknown variable {node.id!r} in table expression")
    return tree


def _condition(degree_spec: str, validity: str | None, names: frozenset[str], source: str):
    """Compile a record's degree spec and validity into one condition on q:
    ``q mod M = R`` is ``q % M == R``, ``lo..hi`` is ``(lo) <= q <= (hi)``,
    any other spec e is ``q == (e)``, and the validity is joined with and."""
    q = ast.Name("q", ast.Load(), **_AT)
    m = _MOD_PATTERN.match(degree_spec)
    if m:
        test = _expression(f"q % {int(m[1])} == {int(m[2])}", names)
    elif ".." in degree_spec:
        lo, hi = degree_spec.split("..", 1)
        test = ast.Compare(
            _expression(lo, names), [ast.LtE(), ast.LtE()], [q, _expression(hi, names)], **_AT
        )
    else:
        test = ast.Compare(q, [ast.Eq()], [_expression(degree_spec, names)], **_AT)
    if validity is not None:
        test = ast.BoolOp(ast.And(), [test, _expression(validity, names)], **_AT)
    return compile(ast.Expression(test), source, "eval")


class TableEntry(Value):
    """One compiled record; the condition, compiled from the degree and
    validity fields, is left out of equality, hashing and the repr."""

    __slots__ = ("family", "params", "degree_spec", "groups", "validity", "citation", "condition")
    _fields = __slots__[:-1]
    family: str
    params: tuple[str, ...]
    degree_spec: str
    groups: tuple[FGAbelianGroup, ...]    # more than one for a candidate set
    validity: str | None
    citation: str
    condition: CodeType

    def __init__(
        self,
        family: str,
        params: tuple[str, ...],
        degree_spec: str,
        groups: tuple[FGAbelianGroup, ...],
        validity: str | None,
        citation: str,
        condition: CodeType,
    ) -> None:
        set_field(self, "family", family)
        set_field(self, "params", params)
        set_field(self, "degree_spec", degree_spec)
        set_field(self, "groups", groups)
        set_field(self, "validity", validity)
        set_field(self, "citation", citation)
        set_field(self, "condition", condition)

    def matches(self, params: dict[str, int], degree: int) -> bool:
        return bool(eval(self.condition, {"__builtins__": {}}, {**params, "q": degree}))


def _parse_record(line: str, source: str) -> TableEntry:
    """One record, checked and compiled; any malformed field raises a
    ValueError that names the source line."""
    try:
        fields = [f.strip() for f in line.split(",", 6)]
        if len(fields) != 7:
            raise ValueError(f"expected 7 comma-separated fields, got {len(fields)}: {line!r}")
        family, params_f, degree_spec, rank_f, torsion_f, validity_f, citation = fields
        params = () if params_f == "-" else tuple(params_f.split())
        validity = None if validity_f == "-" else validity_f
        try:
            condition = _condition(degree_spec, validity, frozenset(params) | {"q"}, source)
        except (RecursionError, MemoryError):  # from ast.parse or compile
            raise ValueError("table expression nested too deeply") from None
        free_rank = int(rank_f)
        groups = tuple(
            FGAbelianGroup.of(free_rank, [] if alt.strip() == "-" else map(int, alt.split()))
            for alt in torsion_f.split("|")
        )
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None
    return TableEntry(family, params, degree_spec, groups, validity, citation, condition)


_GROUPS = "groups:"


def _records(lines: list[str], source: str) -> tuple[list[TableEntry], set[str]]:
    """The records of one table text and the group families it declares."""
    entries: list[TableEntry] = []
    groups: set[str] = set()
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith(_GROUPS):
            names = line[len(_GROUPS):].split()
            if not names:
                raise ValueError(f"{source}:{lineno}: a groups line names no family")
            for name in names:
                if not NAME.fullmatch(name):
                    raise ValueError(f"{source}:{lineno}: {name!r} is not a group family name")
            groups.update(names)
        else:
            entries.append(_parse_record(line, f"{source}:{lineno}"))
    return entries, groups


# --- space-name parsing ----------------------------------------------------

_SPHERE = re.compile(r"S\^(\d+)")
_SCP2 = re.compile(r"SCP2\^(\d+)")
# NAME(INT) in the group-name grammar of `spaces`, which LieGroup checks
_RANKED = re.compile(rf"({NAME.pattern})\((\d+)\)")


def parse_space(space: str) -> tuple[str, dict[str, int]]:
    """Resolve a space name to its table family and parameter bindings."""
    space = space.strip()
    m = _SPHERE.fullmatch(space)
    if m:
        return "S^n", {"n": int(m.group(1))}
    if space == "CP^2":
        return "SCP2^k", {"k": 0}
    m = _SCP2.fullmatch(space)
    if m:
        return "SCP2^k", {"k": int(m.group(1))}
    m = _RANKED.fullmatch(space)
    if m:
        return m.group(1), {"r": int(m.group(2))}
    return space, {}


class GroupQueryResult(Value):
    __slots__ = ("group", "source")
    group: FGAbelianGroup
    source: str

    def __init__(self, group: FGAbelianGroup, source: str) -> None:
        set_field(self, "group", group)
        set_field(self, "source", source)


# Most answers one Tables may keep; a full memo is cleared, so a long run
# or a library sweep holds at most this many.
_MEMO_CAP = 4096


class Tables:
    """An immutable set of homotopy-group records, loaded once and indexed
    by family; within a family the first matching record whose params are
    exactly the name's bindings answers, so `E6(3)` reads no `E6` record.

    Each instance answers a (space, degree) query once: the record that
    answered is kept in a per-instance memo of at most _MEMO_CAP answers,
    so a repeated `pi` or `pi_candidates` is a dict lookup.  A query no
    record answers is scanned and raises again every time.  `groups` are
    the families declared to be structure groups."""

    def __init__(self, entries: list[TableEntry], groups: Iterable[str] = ()):
        self._families: dict[str, list[TableEntry]] = {}
        for entry in entries:
            self._families.setdefault(entry.family, []).append(entry)
        self.groups = frozenset(groups)
        self._memo: dict[tuple[str, int], TableEntry] = {}

    @classmethod
    def from_dir(cls, directory: Path | str) -> "Tables":
        paths = sorted(Path(directory).glob("*.tbl"))
        if not paths:
            raise FileNotFoundError(f"no *.tbl table files in {directory}")
        entries: list[TableEntry] = []
        groups: set[str] = set()
        for path in paths:
            try:
                text = path.read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
            records, declared = _records(text.splitlines(), str(path))
            entries.extend(records)
            groups |= declared
        return cls(entries, groups)

    @classmethod
    def from_lines(cls, lines: list[str]) -> "Tables":
        return cls(*_records(lines, "<inline>"))

    def require_group(self, group: str) -> None:
        """Raise NotTabulatedError unless the family of `group` (`Sp` for
        `Sp(3)`) is declared a structure group."""
        if parse_space(group)[0] not in self.groups:
            raise NotTabulatedError(
                group, None, f"they declare {', '.join(sorted(self.groups)) or 'none'}"
            )

    def _find(self, space: str, degree: int) -> TableEntry:
        key = (space, degree)
        entry = self._memo.get(key)
        if entry is not None:
            return entry
        family, params = parse_space(space)
        for entry in self._families.get(family, ()):
            try:
                if params.keys() == set(entry.params) and entry.matches(params, degree):
                    if len(self._memo) >= _MEMO_CAP:
                        self._memo.clear()
                    self._memo[key] = entry
                    return entry
            except ZeroDivisionError:
                raise NotTabulatedError(
                    space, degree, f"the record ({entry.citation}) divides by zero for this query"
                ) from None
        raise NotTabulatedError(space, degree)

    def pi(self, space: str, degree: int) -> GroupQueryResult:
        """Homotopy group of a named space, with its provenance.  Raises
        NotTabulatedError outside the tables (never guesses)."""
        entry = self._find(space, degree)
        if len(entry.groups) > 1:
            raise NotTabulatedError(
                space,
                degree,
                "only a candidate set is known; use pi_candidates",
            )
        return GroupQueryResult(entry.groups[0], entry.citation)

    def pi_candidates(self, space: str, degree: int) -> tuple[GroupQueryResult, ...]:
        """Candidate set for a degree that is only pinned down to finitely
        many possible groups."""
        entry = self._find(space, degree)
        return tuple(GroupQueryResult(g, entry.citation) for g in entry.groups)

    def first_nonvanishing(
        self,
        space: str,
        lo: int,
        hi: int,
        localize_away: frozenset[int] = frozenset(),
    ) -> tuple[int, FGAbelianGroup] | None:
        """First degree in [lo, hi] whose group does not vanish after killing
        torsion supported on the localize_away primes, with its tabulated
        (unlocalized) group; None if all vanish."""
        for i in range(lo, hi + 1):
            group = self.pi(space, i).group
            if not group.localized_away(localize_away).is_trivial():
                return i, group
        return None

    def require_vanishing(
        self,
        space: str,
        lo: int,
        hi: int,
        requirement: str,
        localize_away: frozenset[int] = frozenset(),
    ) -> None:
        """Raise HypothesisNotMetError, naming the requirement, at the first
        degree in [lo, hi] that does not vanish after localization."""
        offender = self.first_nonvanishing(space, lo, hi, localize_away)
        if offender is not None:
            raise HypothesisNotMetError(space, *offender, requirement)

    def classify_bundles(self, dimension: int, connectivity: int, group: str) -> GroupQueryResult:
        """Isomorphism class of the set of principal bundles over a closed
        oriented k-connected m-manifold: pi_{m-1}(G), valid when pi_i(G)
        vanishes for k <= i <= m-k-1."""
        self.require_vanishing(
            group,
            connectivity,
            dimension - connectivity - 1,
            f"classifying bundles over a {connectivity}-connected "
            f"{dimension}-manifold (middle-range vanishing)",
        )
        return self.pi(group, dimension - 1)


_PACKAGED = str(Path(__file__).parent / "data")
_CACHE: dict[str, Tables] = {}


def default_tables() -> Tables:
    """Packaged tables, or the directory named by GAUGEKIT_TABLES."""
    directory = os.environ.get("GAUGEKIT_TABLES") or _PACKAGED
    if directory not in _CACHE:
        _CACHE[directory] = Tables.from_dir(directory)
    return _CACHE[directory]
