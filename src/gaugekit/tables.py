"""Curated, provenance-tagged homotopy-group tables and the bundle
classification check for highly connected manifolds.

Tables are data files, not code: line-oriented records

    space, params, degree, free_rank, torsion, validity, citation

with `#` comments.  The space field names a family (E6, S^n, Sp, ...),
params declares its parameter variables, degree is an exact integer, a
range ``lo..hi``, an arithmetic expression in the parameters, or a residue
pattern ``q mod M = R``, and validity is a side condition evaluated per
query (the query degree is bound to ``q``).  Torsion is a space-separated
invariant-factor list, ``-`` for none; alternatives separated by ``|``
form a candidate set, which is served only through the candidate API.
Every lookup either returns a tabulated group with its citation or raises
a typed error -- never a guess.

The directory of table files can be overridden with the GAUGEKIT_TABLES
environment variable; extension files simply add records.
"""

from __future__ import annotations

import ast
import operator
import os
import re
from dataclasses import dataclass
from pathlib import Path

from .groups import FGAbelianGroup

__all__ = [
    "NotTabulatedError",
    "HypothesisNotMetError",
    "GroupQueryResult",
    "TableEntry",
    "Tables",
    "default_tables",
]


class NotTabulatedError(LookupError):
    """A homotopy-group query outside the stored tables."""

    def __init__(self, space: str, degree: int, detail: str = ""):
        self.space = space
        self.degree = degree
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


# --- tiny safe evaluator for the degree/validity expression language ------

_BIN_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod,
}
_CMP_OPS = {
    ast.Lt: operator.lt,
    ast.LtE: operator.le,
    ast.Gt: operator.gt,
    ast.GtE: operator.ge,
    ast.Eq: operator.eq,
    ast.NotEq: operator.ne,
}


def _eval_node(node: ast.AST, env: dict[str, int]):
    if isinstance(node, ast.Expression):
        return _eval_node(node.body, env)
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if isinstance(node, ast.Name):
        if node.id not in env:
            raise ValueError(f"unknown variable {node.id!r} in table expression")
        return env[node.id]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_eval_node(node.operand, env)
    if isinstance(node, ast.BinOp) and type(node.op) in _BIN_OPS:
        return _BIN_OPS[type(node.op)](_eval_node(node.left, env), _eval_node(node.right, env))
    if isinstance(node, ast.Compare):
        left = _eval_node(node.left, env)
        for op, comp in zip(node.ops, node.comparators):
            if type(op) not in _CMP_OPS:
                raise ValueError("unsupported comparison in table expression")
            right = _eval_node(comp, env)
            if not _CMP_OPS[type(op)](left, right):
                return False
            left = right
        return True
    if isinstance(node, ast.BoolOp):
        vals = (_eval_node(v, env) for v in node.values)
        return all(vals) if isinstance(node.op, ast.And) else any(vals)
    raise ValueError(f"unsupported construct in table expression: {ast.dump(node)}")


def _evaluate(expr: str, env: dict[str, int]):
    return _eval_node(ast.parse(expr, mode="eval"), env)


# --- record model ----------------------------------------------------------

_MOD_PATTERN = re.compile(r"^q\s+mod\s+(\d+)\s*=\s*(\d+)$")


@dataclass(frozen=True)
class TableEntry:
    family: str
    params: tuple[str, ...]
    degree_spec: str
    group: FGAbelianGroup | None          # None for candidate sets
    candidates: tuple[FGAbelianGroup, ...] | None
    validity: str | None
    citation: str

    def matches(self, params: dict[str, int], degree: int) -> bool:
        env = dict(params)
        env["q"] = degree
        m = _MOD_PATTERN.match(self.degree_spec)
        if m:
            if degree % int(m.group(1)) != int(m.group(2)):
                return False
        elif ".." in self.degree_spec:
            lo_s, hi_s = self.degree_spec.split("..", 1)
            if not _evaluate(lo_s, env) <= degree <= _evaluate(hi_s, env):
                return False
        else:
            if _evaluate(self.degree_spec, env) != degree:
                return False
        if self.validity is not None and not _evaluate(self.validity, env):
            return False
        return True


def _parse_group(free_rank: int, torsion_field: str) -> FGAbelianGroup:
    torsion = [] if torsion_field == "-" else [int(t) for t in torsion_field.split()]
    return FGAbelianGroup.of(free_rank, torsion)


def _parse_record(line: str, source: str) -> TableEntry:
    fields = [f.strip() for f in line.split(",", 6)]
    if len(fields) != 7:
        raise ValueError(f"{source}: expected 7 comma-separated fields, got {len(fields)}: {line!r}")
    family, params_f, degree_spec, rank_f, torsion_f, validity_f, citation = fields
    params = () if params_f == "-" else tuple(p.strip() for p in params_f.split())
    free_rank = int(rank_f)
    validity = None if validity_f == "-" else validity_f
    if "|" in torsion_f:
        cands = tuple(
            _parse_group(free_rank, alt.strip()) for alt in torsion_f.split("|")
        )
        return TableEntry(family, params, degree_spec, None, cands, validity, citation)
    group = _parse_group(free_rank, torsion_f)
    return TableEntry(family, params, degree_spec, group, None, validity, citation)


# --- space-name parsing ----------------------------------------------------

_SPHERE = re.compile(r"^S\^(\d+)$")
_SCP2 = re.compile(r"^SCP2\^(\d+)$")
_LIE = re.compile(r"^([A-Za-z]+)\((\d+)\)$")


def parse_space(space: str) -> tuple[str, dict[str, int]]:
    """Resolve a space name to its table family and parameter bindings."""
    space = space.strip()
    if space == "S":
        return "S", {}
    m = _SPHERE.match(space)
    if m:
        return "S^n", {"n": int(m.group(1))}
    if space == "CP^2":
        return "SCP2^k", {"k": 0}
    m = _SCP2.match(space)
    if m:
        return "SCP2^k", {"k": int(m.group(1))}
    m = _LIE.match(space)
    if m:
        return m.group(1), {"r": int(m.group(2))}
    return space, {}


@dataclass(frozen=True)
class GroupQueryResult:
    group: FGAbelianGroup
    source: str


class Tables:
    """An immutable set of homotopy-group records, loaded once."""

    def __init__(self, entries: list[TableEntry]):
        self._entries = tuple(entries)

    @classmethod
    def from_dir(cls, directory: Path | str) -> "Tables":
        directory = Path(directory)
        entries: list[TableEntry] = []
        for path in sorted(directory.glob("*.tbl")):
            for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                entries.append(_parse_record(line, f"{path.name}:{lineno}"))
        return cls(entries)

    @classmethod
    def from_lines(cls, lines: list[str]) -> "Tables":
        entries = [
            _parse_record(line.strip(), "<inline>")
            for line in lines
            if line.strip() and not line.strip().startswith("#")
        ]
        return cls(entries)

    def _find(self, space: str, degree: int) -> TableEntry:
        family, params = parse_space(space)
        for entry in self._entries:
            if entry.family != family:
                continue
            missing = [p for p in entry.params if p not in params]
            if missing:
                continue
            if entry.matches(params, degree):
                return entry
        raise NotTabulatedError(space, degree)

    def pi(self, space: str, degree: int) -> GroupQueryResult:
        """Homotopy group of a named space, with its provenance.  Raises
        NotTabulatedError outside the tables (never guesses)."""
        entry = self._find(space, degree)
        if entry.group is None:
            raise NotTabulatedError(
                space,
                degree,
                "only a candidate set is known; use pi_candidates",
            )
        return GroupQueryResult(entry.group, entry.citation)

    def pi_candidates(self, space: str, degree: int) -> tuple[GroupQueryResult, ...]:
        """Candidate set for a degree that is only pinned down to finitely
        many possible groups."""
        entry = self._find(space, degree)
        if entry.candidates is not None:
            return tuple(GroupQueryResult(g, entry.citation) for g in entry.candidates)
        assert entry.group is not None
        return (GroupQueryResult(entry.group, entry.citation),)

    def first_nonvanishing(
        self,
        space: str,
        lo: int,
        hi: int,
        localize_away: frozenset[int] = frozenset(),
    ) -> tuple[int, FGAbelianGroup] | None:
        """First degree in [lo, hi] with a nonvanishing group, after killing
        torsion supported on the localize_away primes; None if all vanish."""
        for i in range(lo, hi + 1):
            group = self.pi(space, i).group.localized_away(localize_away)
            if not group.is_trivial():
                return i, group
        return None

    def classify_bundles(self, dimension: int, connectivity: int, group: str) -> GroupQueryResult:
        """Isomorphism class of the set of principal bundles over a closed
        oriented k-connected m-manifold: pi_{m-1}(G), valid when pi_i(G)
        vanishes for k <= i <= m-k-1."""
        offender = self.first_nonvanishing(group, connectivity, dimension - connectivity - 1)
        if offender is not None:
            degree, found = offender
            raise HypothesisNotMetError(
                group,
                degree,
                found,
                f"classifying bundles over a {connectivity}-connected "
                f"{dimension}-manifold (middle-range vanishing)",
            )
        return self.pi(group, dimension - 1)


_CACHE: dict[str, Tables] = {}


def default_tables() -> Tables:
    """Packaged tables, or the directory named by GAUGEKIT_TABLES."""
    directory = os.environ.get("GAUGEKIT_TABLES") or str(Path(__file__).parent / "data")
    if directory not in _CACHE:
        _CACHE[directory] = Tables.from_dir(directory)
    return _CACHE[directory]
