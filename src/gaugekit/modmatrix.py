"""Attaching-map matrices over chains of cyclic groups.

A suspended attaching map of a two-cone complex is a matrix whose j-th
column takes values in Z/d_j, with d_1 | d_2 | ... | d_r.  Homotopy
equivalences of the complex act on it through a restricted group of row
operations only: row additions, row swaps, and negation of a single row.
This module reduces such matrices to a triangular form under exactly those
operations, keeping a certified operation log, and also provides the full
mod-2 rank used for skeletal splittings (where column operations are
permitted as well).
"""

from __future__ import annotations

from collections import deque
from math import gcd
from typing import Iterable, Sequence

from .exact import subgroup_generator
from .value import Value, set_field

__all__ = [
    "RowOp",
    "AttachingMatrix",
    "F2Matrix",
    "replay_oplog",
    "reduce_with_report",
    "nonzero_column_count",
    "rank_f2",
    "rowop_orbit",
]

_KINDS = ("add", "swap", "negate")


class RowOp(Value):
    """One restricted elementary row operation, with 1-based row indices.

    add(a, b, k): row a += k * row b  (a != b, k >= 1)
    swap(a, b):   exchange rows a, b  (a != b)
    negate(a):    row a *= -1

    The multiplicity k of an add is shorthand for k unit adds in a row, so
    every operation is still an element of the restricted group; swap and
    negate always have k = 1.  The text form is ``add a b`` for k = 1 and
    ``add a b k`` otherwise.
    """

    __slots__ = ("kind", "a", "b", "k")
    kind: str
    a: int
    b: int
    k: int

    def __init__(self, kind: str, a: int, b: int = 0, k: int = 1) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown row operation {kind!r}")
        if a < 1:
            raise ValueError("row indices are 1-based")
        if kind in ("add", "swap"):
            if b < 1:
                raise ValueError("row indices are 1-based")
            if a == b:
                raise ValueError(f"{kind} requires two distinct rows")
        elif b != 0:
            raise ValueError("negate takes a single row index")
        if k < 1:
            raise ValueError("an add multiplicity must be >= 1")
        if k != 1 and kind != "add":
            raise ValueError(f"{kind} takes no multiplicity")
        set_field(self, "kind", kind)
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "k", k)

    @classmethod
    def add(cls, a: int, b: int, k: int = 1) -> "RowOp":
        return cls("add", a, b, k)

    @classmethod
    def swap(cls, a: int, b: int) -> "RowOp":
        return cls("swap", a, b)

    @classmethod
    def negate(cls, a: int) -> "RowOp":
        return cls("negate", a)

    def __str__(self) -> str:
        if self.kind == "negate":
            return f"negate {self.a}"
        if self.k != 1:
            return f"add {self.a} {self.b} {self.k}"
        return f"{self.kind} {self.a} {self.b}"


class AttachingMatrix(Value):
    """An m x r matrix whose column j is valued in Z/moduli[j], together with
    the log of row operations that produced it from the recorded initial
    matrix.  Immutable; operations return new matrices.  Two matrices are
    equal when their moduli and entries are: the log and the initial matrix
    are left out of equality, hashing and the repr, but copies keep them."""

    __slots__ = ("moduli", "entries", "oplog", "initial")
    _fields = ("moduli", "entries")
    moduli: tuple[int, ...]
    entries: tuple[tuple[int, ...], ...]
    oplog: tuple[RowOp, ...]
    initial: tuple[tuple[int, ...], ...]

    def __init__(
        self,
        moduli: Sequence[int],
        entries: Iterable[Sequence[int]],
        oplog: tuple[RowOp, ...] = (),
        initial: tuple[tuple[int, ...], ...] | None = None,
    ) -> None:
        entries = tuple(entries)
        if not entries:
            raise ValueError("matrix needs at least one row")
        moduli = tuple(moduli)
        r = len(moduli)
        for d in moduli:
            if d <= 0:
                raise ValueError("column moduli must be positive")
        for lo, hi in zip(moduli, moduli[1:]):
            if hi % lo != 0:
                raise ValueError(f"moduli must form a divisibility chain, got {list(moduli)}")
        norm = tuple(
            tuple(v % d for v, d in zip(row, moduli))
            for row in entries
        )
        for row in entries:
            if len(row) != r:
                raise ValueError("row length must match the number of moduli")
        set_field(self, "moduli", moduli)
        set_field(self, "entries", norm)
        set_field(self, "oplog", oplog)
        set_field(self, "initial", norm if initial is None else initial)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], moduli: int | Sequence[int]) -> "AttachingMatrix":
        rows = tuple(tuple(row) for row in rows)
        if not rows:
            raise ValueError("matrix needs at least one row")
        if isinstance(moduli, int):
            moduli = (moduli,) * len(rows[0])
        return cls(moduli, rows)

    @property
    def m(self) -> int:
        return len(self.entries)

    @property
    def r(self) -> int:
        return len(self.moduli)

    @property
    def diagonal(self) -> tuple[int, ...]:
        """The entries (j, j) for j < min(m, r); after a reduction, the
        attained pivots."""
        return tuple(row[j] for j, row in zip(range(self.r), self.entries))


def replay_oplog(B: AttachingMatrix) -> tuple[tuple[int, ...], ...]:
    """Re-run the operation log from the recorded initial matrix.  The result
    must reproduce the entries bit-exactly (certification).  This is the
    one place a log is applied: it raises ValueError when the initial
    matrix is not m x r, or at the first entry naming a row outside it."""
    m, r, moduli = B.m, B.r, B.moduli
    rows = [list(row) for row in B.initial]
    if len(rows) != m or any(len(row) != r for row in rows):
        raise ValueError(f"initial matrix must be {m} x {r}, like the entries")
    for i, op in enumerate(B.oplog, 1):
        if op.a > m or op.b > m:  # b is 0 for a negate
            raise ValueError(f"log entry {i} ({op}) names a row outside the {m}-row matrix")
        a = op.a - 1
        if op.kind == "swap":
            b = op.b - 1
            rows[a], rows[b] = rows[b], rows[a]
        elif op.kind == "add":
            k = op.k
            rows[a] = [(x + k * y) % d for x, y, d in zip(rows[a], rows[op.b - 1], moduli)]
        else:
            rows[a] = [(-x) % d for x, d in zip(rows[a], moduli)]
    return tuple(tuple(row) for row in rows)


def reduce_with_report(B: AttachingMatrix) -> tuple[AttachingMatrix, tuple[str, ...]]:
    """Reduce to the triangular shape reachable by row operations alone, and
    return the reduced matrix with a tuple of notes.

    Columns are processed left to right; for column j only rows j..m are
    free (settled pivots are never revisited).  Euclidean row combinations
    collect a generator of the subgroup of Z/d_j spanned by the free
    entries at the diagonal.  With at least two free rows the least
    positive generator is always attained; with a single free row only
    negation is available, the attained pivot is min(v, d - v), and any
    shortfall against the subgroup generator is noted.  The attained pivots
    are the reduced matrix's `diagonal` (0 for a column with no nonzero
    free entry); where one differs from the full-column gcd of the input,
    that is noted too, never corrected.

    Each Euclidean step ``row i -= q * row p`` changes the rows once and is
    logged as ``negate p``, ``add i p q``, ``negate p``; `replay_oplog`
    re-applies all three.  Staging a pivot's inverse k is one
    ``add spare p k``, so the log has O(m * r * log d) entries and the
    reduction takes time polynomial in the bits of the moduli.  Expanding
    every ``add a b k`` into k unit adds gives the unit-operation log.
    """
    m, r = B.m, B.r
    moduli = B.moduli
    rows = [list(row) for row in B.entries]
    negate = [RowOp.negate(i) for i in range(1, m + 1)]
    ops: list[RowOp] = []
    notes: list[str] = []

    def add(i: int, p: int, k: int) -> None:
        # row i += k * row p, for any integer k
        rows[i] = [(x + k * y) % d for x, y, d in zip(rows[i], rows[p], moduli)]

    def subtract(i: int, p: int, q: int) -> None:
        # row i -= q * row p (q >= 1), logged as negate/add/negate
        add(i, p, -q)
        ops.extend((negate[p], RowOp.add(i + 1, p + 1, q), negate[p]))

    for j in range(min(m, r)):
        d = moduli[j]
        free = range(j, m)

        # Euclidean phase: reduce the free entries of column j against each
        # other until at most one is nonzero.
        while True:
            nz = [(rows[i][j], i) for i in free if rows[i][j] != 0]
            if len(nz) <= 1:
                break
            vp, p = min(nz)
            for vi, i in nz:
                if i == p:
                    continue
                subtract(i, p, vi // vp)

        nz = [(rows[i][j], i) for i in free if rows[i][j] != 0]
        if not nz:
            continue

        v, p = nz[0]
        g = gcd(v, d)
        if v != g:
            spare = next((i for i in free if i != p), None)
            if spare is not None:
                # stage k*v = g (mod d) in the spare row, then clear row p
                k = pow(v // g, -1, d // g)
                add(spare, p, k)
                ops.append(RowOp.add(spare + 1, p + 1, k))
                subtract(p, spare, v // g)
                p = spare
            else:
                if d - v < v:
                    rows[p] = [-x % n for x, n in zip(rows[p], moduli)]
                    ops.append(negate[p])
                attained = rows[p][j]
                if attained != g:
                    notes.append(
                        f"column {j + 1}: attained pivot {attained}, but the least "
                        f"positive generator of the entry subgroup is {g} "
                        f"(unreachable with a single free row; orbit is "
                        f"{{{min(v, d - v)}, {max(v, d - v)}}})"
                    )
        if p != j:
            rows[j], rows[p] = rows[p], rows[j]
            ops.append(RowOp.swap(j + 1, p + 1))

    reduced = AttachingMatrix(
        moduli,
        tuple(tuple(row) for row in rows),
        B.oplog + tuple(ops),
        B.initial,
    )
    columns = zip(reduced.diagonal, moduli, zip(*B.entries))
    for j, (got, d, column) in enumerate(columns, start=1):
        # a single entry is its own gcd: its representatives only grow
        want = column[0] if m == 1 else subgroup_generator(column, d)
        if got != want:
            notes.append(
                f"column {j}: attained diagonal {got} differs from the full-column "
                f"gcd {want} (earlier pivots consume rows under restricted operations)"
            )
    return reduced, tuple(notes)


def nonzero_column_count(B: AttachingMatrix) -> int:
    return sum(
        1
        for j in range(B.r)
        if any(row[j] != 0 for row in B.entries)
    )


def rowop_orbit(
    entries: tuple[tuple[int, ...], ...],
    moduli: Sequence[int],
    max_states: int = 50_000,
) -> frozenset[tuple[tuple[int, ...], ...]] | None:
    """Full orbit of a matrix under {add, swap, negate}, by breadth-first
    search.  Returns None if the orbit exceeds max_states.

    The unit operations act on the state tuples directly: each successor
    shares every unchanged row with its parent."""
    m = len(entries)
    swaps = [(a, b) for a in range(m) for b in range(a + 1, m)]
    seen = {entries}
    queue = deque([entries])
    while queue:
        state = queue.popleft()
        successors = []
        for a, row in enumerate(state):
            head, tail = state[:a], state[a + 1 :]
            successors.append(head + (tuple(-x % d for x, d in zip(row, moduli)),) + tail)
            for b, other in enumerate(state):
                if b != a:
                    added = tuple((x + y) % d for x, y, d in zip(row, other, moduli))
                    successors.append(head + (added,) + tail)
        for a, b in swaps:
            swapped = list(state)
            swapped[a], swapped[b] = state[b], state[a]
            successors.append(tuple(swapped))
        for nxt in successors:
            if nxt not in seen:
                if len(seen) >= max_states:
                    return None
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(seen)


_BITS = frozenset((0, 1))


class F2Matrix(Value):
    """A square matrix of bits."""

    __slots__ = ("rows",)
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows: Iterable[Iterable[int]]) -> None:
        rows = tuple(map(tuple, rows))
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
            if not _BITS.issuperset(row):
                bad = next(bit for bit in row if bit not in _BITS)
                raise ValueError(f"entries must be bits, got {bad}")
        set_field(self, "rows", rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "F2Matrix":
        return cls([map(int, row) for row in rows])

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def size(self) -> int:
        return len(self.rows)


def rank_f2(C: F2Matrix) -> int:
    """Rank over the field with two elements, by Gaussian elimination."""
    basis: dict[int, int] = {}  # leading-bit position -> reduced row mask
    for row in C.rows:
        mask = 0
        for bit in row:
            mask = (mask << 1) | bit
        while mask:
            top = mask.bit_length() - 1
            if top in basis:
                mask ^= basis[top]
            else:
                basis[top] = mask
                break
    return len(basis)
