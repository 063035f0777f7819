"""Independent oracles for the test suite: Bernoulli numbers by
Akiyama-Tanigawa and by the Fraction series recurrence, the von
Staudt-Clausen denominator and the closed-form J-image order over a
sieve, the exhaustive representative gcd search, brute-force subgroup
closures, row-operation orbit enumeration (also by list-copying search),
the restricted reduction with unit row additions only and with
every logged row operation applied as it is logged,
mod-2 rank by row-space counting, the per-query tree-walking evaluator
for table records, the factoring forms of invariant factors, localization
and primality, the expression tokenizer with one named group per token
kind, and a helper that runs a statement in a fresh interpreter under a
timeout.

Nothing here calls the engine's own code paths for the quantity it checks.
"""

from __future__ import annotations

import ast
import operator
import os
import random
import re
import subprocess
import sys
from collections import deque
from fractions import Fraction
from math import factorial, gcd
from pathlib import Path
from typing import Iterable, Sequence


# Akiyama-Tanigawa, run in its sequential form: step k appends 1/(k+1) to
# the row, folds it back to the front, and the front entry is B_k.  The row
# and the values are extended on demand, so a sweep over s costs one run.
_AT_ROW: list[Fraction] = []
_AT_VALUES: list[Fraction] = []


def bernoulli_at(k: int) -> Fraction:
    """Akiyama-Tanigawa algorithm for the standard signed Bernoulli number
    B_k (with B_1 = +1/2, which does not affect even indices)."""
    while len(_AT_VALUES) <= k:
        m = len(_AT_ROW)
        _AT_ROW.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            _AT_ROW[j - 1] = j * (_AT_ROW[j - 1] - _AT_ROW[j])
        _AT_VALUES.append(_AT_ROW[0])
    return _AT_VALUES[k]


def bernoulli_unsigned(s: int) -> Fraction:
    return abs(bernoulli_at(2 * s))


# Coefficients c_j of z^j in the series z/(e^z - 1), extended on demand.
# Multiplying the series by (e^z - 1) and matching coefficients of z^(m+1)
# gives, for m >= 1,
#     c_m = -sum_{j=0}^{m-1} c_j / (m + 1 - j)!
_SERIES: list[Fraction] = [Fraction(1)]


def series_bernoulli(s: int) -> Fraction:
    """|B_{2s}| from the Fraction series recurrence: the engine's algorithm
    before the tangent-number recurrence, O(s^2) Fraction additions that
    reduce a growing rational at every step."""
    while len(_SERIES) <= 2 * s:
        k = len(_SERIES)
        acc = Fraction(0)
        for j, cj in enumerate(_SERIES):
            acc += cj / factorial(k + 1 - j)
        _SERIES.append(-acc)
    return abs(_SERIES[2 * s] * factorial(2 * s))


def primes_upto(n: int) -> list[int]:
    """The primes p <= n, by the sieve of Eratosthenes."""
    composite = bytearray(n + 1)
    primes = []
    for p in range(2, n + 1):
        if not composite[p]:
            primes.append(p)
            composite[p * p :: p] = b"\x01" * len(range(p * p, n + 1, p))
    return primes


def von_staudt_denominator(s: int) -> int:
    """Denominator of the 2s-th Bernoulli number: the product of primes p
    with (p - 1) dividing 2s."""
    out = 1
    for p in primes_upto(2 * s + 1):
        if (2 * s) % (p - 1) == 0:
            out *= p
    return out


def closed_form_imj_order(s: int) -> int:
    """Order of the stable J-image in the (4s-1)-stem, without Bernoulli
    numbers: the product over primes p with (p - 1) dividing 2s of
    p^(1 + v_p(4s)) (von Staudt-Clausen and Adams, J(X) IV)."""
    out = 1
    for p in primes_upto(2 * s + 1):
        if (2 * s) % (p - 1) == 0:
            power, rest = p, 4 * s
            while rest % p == 0:
                power, rest = power * p, rest // p
            out *= power
    return out


def defgcd_exhaustive(values: Sequence[int], d: int, k_max: int | None = None) -> int:
    """Minimum over nonnegative representative tuples (v_i + k_i * d,
    0 <= k_i <= k_max) of the ordinary gcd."""
    assert values and d > 0
    if all(v % d == 0 for v in values):
        return 0
    k_max = 4 * d if k_max is None else k_max
    reps = [[(v % d) + k * d for k in range(k_max + 1)] for v in values]
    if len(values) == 1:
        return min(reps[0])
    current = set(reps[0])
    for layer in reps[1:]:
        nxt: set[int] = set()
        for a in current:
            for b in layer:
                g = gcd(a, b)
                if g == 1:
                    return 1
                nxt.add(g)
        current = nxt
    return min(current)


def subgroup_closure(values: Iterable[int], d: int) -> frozenset[int]:
    """The subgroup of Z/d generated by the values, as an explicit set."""
    seen = {0}
    frontier = [0]
    gens = [v % d for v in values]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = (x + g) % d
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


def least_positive_generator(values: Iterable[int], d: int) -> int:
    sub = subgroup_closure(values, d)
    positive = [x for x in sub if x > 0]
    return min(positive) if positive else 0


# --- row-operation orbits (independent of the engine) ----------------------

def _column_successors(state: tuple[int, ...], d: int):
    m = len(state)
    for a in range(m):
        neg = list(state)
        neg[a] = (-neg[a]) % d
        yield tuple(neg)
        for b in range(m):
            if a != b:
                add = list(state)
                add[a] = (add[a] + state[b]) % d
                yield tuple(add)
        for b in range(a + 1, m):
            sw = list(state)
            sw[a], sw[b] = sw[b], sw[a]
            yield tuple(sw)


def column_orbit_partition(d: int, m: int) -> dict[tuple[int, ...], int]:
    """Map every length-m column over Z/d to a component id of the orbit
    partition under {add, swap, negate}."""
    import itertools

    component: dict[tuple[int, ...], int] = {}
    next_id = 0
    for start in itertools.product(range(d), repeat=m):
        if start in component:
            continue
        cid = next_id
        next_id += 1
        component[start] = cid
        queue = deque([start])
        while queue:
            state = queue.popleft()
            for nxt in _column_successors(state, d):
                if nxt not in component:
                    component[nxt] = cid
                    queue.append(nxt)
    return component


def orbit_of(state: tuple[int, ...], d: int, cap: int = 300_000) -> frozenset[tuple[int, ...]]:
    seen = {state}
    queue = deque([state])
    while queue:
        cur = queue.popleft()
        for nxt in _column_successors(cur, d):
            if nxt not in seen:
                if len(seen) >= cap:
                    raise RuntimeError("orbit cap exceeded")
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(seen)


def listcopy_rowop_orbit(entries, moduli: Sequence[int], max_states: int = 250_000):
    """Orbit of a matrix under unit {add, swap, negate} by breadth-first
    search that copies the rows into lists for every operation: the
    engine's search before it acted on state tuples directly.  None when
    the orbit exceeds max_states."""
    m = len(entries)
    ops = []
    for a in range(m):
        ops.append(("negate", a, None))
        for b in range(m):
            if a != b:
                ops.append(("add", a, b))
                if a < b:
                    ops.append(("swap", a, b))
    seen = {entries}
    queue = deque([entries])
    while queue:
        state = queue.popleft()
        for kind, a, b in ops:
            work = [list(row) for row in state]
            if kind == "add":
                work[a] = [(x + y) % d for x, y, d in zip(work[a], work[b], moduli)]
            elif kind == "swap":
                work[a], work[b] = work[b], work[a]
            else:
                work[a] = [(-x) % d for x, d in zip(work[a], moduli)]
            nxt = tuple(tuple(row) for row in work)
            if nxt not in seen:
                if len(seen) >= max_states:
                    return None
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(seen)


def unary_reduce_with_report(entries: Sequence[Sequence[int]], moduli: Sequence[int]):
    """The restricted reduction with every add spelled as unit ``add a b``
    lines: the engine's algorithm before adds carried a multiplicity, so
    its cost follows the value of the moduli.  Returns (entries, log lines,
    pivots, notes) with the engine's note texts."""
    m, r = len(entries), len(moduli)
    rows = [[v % d for v, d in zip(row, moduli)] for row in entries]
    full_column_gcd = []
    for j, d in enumerate(moduli):
        column = [row[j] for row in rows]
        g = d
        for v in column:
            g = gcd(g, v)
        full_column_gcd.append(column[0] if m == 1 else g % d)
    log: list[str] = []
    notes: list[str] = []
    pivots: list[int] = []

    def do(kind: str, a: int, b: int | None = None) -> None:
        if kind == "add":
            rows[a] = [(x + y) % d for x, y, d in zip(rows[a], rows[b], moduli)]
        elif kind == "swap":
            rows[a], rows[b] = rows[b], rows[a]
        else:
            rows[a] = [(-x) % d for x, d in zip(rows[a], moduli)]
        log.append(f"{kind} {a + 1}" if b is None else f"{kind} {a + 1} {b + 1}")

    def subtract(i: int, p: int, q: int) -> None:
        if q <= 0:
            return
        do("negate", p)
        for _ in range(q):
            do("add", i, p)
        do("negate", p)

    for j in range(min(m, r)):
        d = moduli[j]
        free = range(j, m)
        while True:
            nz = [(rows[i][j], i) for i in free if rows[i][j] != 0]
            if len(nz) <= 1:
                break
            vp, p = min(nz)
            for vi, i in nz:
                if i != p:
                    subtract(i, p, vi // vp)
        nz = [(rows[i][j], i) for i in free if rows[i][j] != 0]
        if not nz:
            pivots.append(0)
            continue
        v, p = nz[0]
        g = gcd(v, d)
        if v != g:
            spare = next((i for i in free if i != p), None)
            if spare is not None:
                for _ in range(pow(v // g, -1, d // g)):
                    do("add", spare, p)
                subtract(p, spare, v // g)
                p = spare
            else:
                if d - v < v:
                    do("negate", p)
                attained = rows[p][j]
                if attained != g:
                    notes.append(
                        f"column {j + 1}: attained pivot {attained}, but the least "
                        f"positive generator of the entry subgroup is {g} "
                        f"(unreachable with a single free row; orbit is "
                        f"{{{min(v, d - v)}, {max(v, d - v)}}})"
                    )
        if p != j:
            do("swap", j, p)
        pivots.append(rows[j][j])

    for j, (got, want) in enumerate(zip(pivots, full_column_gcd), start=1):
        if got != want:
            notes.append(
                f"column {j}: attained diagonal {got} differs from the full-column "
                f"gcd {want} (earlier pivots consume rows under restricted operations)"
            )
    return tuple(tuple(row) for row in rows), log, tuple(pivots), tuple(notes)


def triple_update_reduce_with_report(B):
    """The engine's restricted reduction before a Euclidean step became one
    row update: every logged operation, ``negate p``, ``add i p q``,
    ``negate p`` included, is applied to the rows as it is logged, and the
    full-column gcds are taken through `gcd_mod`.  Returns (reduced, notes)
    exactly as `gaugekit.modmatrix.reduce_with_report` does."""
    from gaugekit.exact import CyclicElem, gcd_mod
    from gaugekit.modmatrix import AttachingMatrix, RowOp

    m, r = B.m, B.r
    rows = [list(row) for row in B.entries]
    ops: list[RowOp] = []
    notes: list[str] = []

    def do(op: RowOp) -> None:
        a, b = op.a - 1, op.b - 1
        if op.kind == "swap":
            rows[a], rows[b] = rows[b], rows[a]
        elif op.kind == "add":
            rows[a] = [(x + op.k * y) % d for x, y, d in zip(rows[a], rows[b], B.moduli)]
        else:
            rows[a] = [-x % d for x, d in zip(rows[a], B.moduli)]
        ops.append(op)

    def subtract(i: int, p: int, q: int) -> None:
        # row i -= q * row p, via negate/add/negate
        if q <= 0:
            return
        do(RowOp.negate(p + 1))
        do(RowOp.add(i + 1, p + 1, q))
        do(RowOp.negate(p + 1))

    for j in range(min(m, r)):
        d = B.moduli[j]
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
                do(RowOp.add(spare + 1, p + 1, pow(v // g, -1, d // g)))
                subtract(p, spare, v // g)
                p = spare
            else:
                if d - v < v:
                    do(RowOp.negate(p + 1))
                attained = rows[p][j]
                if attained != g:
                    notes.append(
                        f"column {j + 1}: attained pivot {attained}, but the least "
                        f"positive generator of the entry subgroup is {g} "
                        f"(unreachable with a single free row; orbit is "
                        f"{{{min(v, d - v)}, {max(v, d - v)}}})"
                    )
        if p != j:
            do(RowOp.swap(j + 1, p + 1))

    reduced = AttachingMatrix(
        B.moduli,
        tuple(tuple(row) for row in rows),
        B.oplog + tuple(ops),
        B.initial,
    )
    columns = zip(reduced.diagonal, B.moduli, zip(*B.entries))
    for j, (got, d, column) in enumerate(columns, start=1):
        want = gcd_mod([CyclicElem(v, d) for v in column])
        if got != want:
            notes.append(
                f"column {j}: attained diagonal {got} differs from the full-column "
                f"gcd {want} (earlier pivots consume rows under restricted operations)"
            )
    return reduced, tuple(notes)


def rank_f2_bruteforce(rows: Sequence[Sequence[int]]) -> int:
    """log2 of the size of the mod-2 row space, by enumerating all sums."""
    import itertools

    n = len(rows)
    span = set()
    for picks in itertools.product((0, 1), repeat=n):
        vec = [0] * n
        for take, row in zip(picks, rows):
            if take:
                vec = [(a + b) % 2 for a, b in zip(vec, row)]
        span.add(tuple(vec))
    size = len(span)
    rank = size.bit_length() - 1
    assert 1 << rank == size
    return rank


# --- random expressions for normalization/round-trip sweeps -----------------

# pieces of random names and labels: the words the token grammar reserves or
# claims, Unicode word characters and digits, and punctuation
NAME_PIECES = [
    "x", "v", "u", "mod", "TC", "G_", "Map", "S", "CP", "SCP2", "e", "Sp", "E", "k",
    "_", "8", "3", "\u0663", "\u00e9", "\u00b2", "(", ")", "^", "*", "[", "]", ",", ";", " ",
]

_GROUP_POOL = ("E6", "E7", "E8", "Sp(3)", "Spin(11)", "G2")


def random_expr(rng: random.Random, depth: int = 3):
    """A random canonical space expression."""
    from gaugekit.exact import CyclicElem
    from gaugekit.spaces import (
        LieGroup,
        MappingSpace,
        SuspCP2,
        Sphere,
        attached,
        gauge,
        loop,
        product,
        suspension,
        two_cell,
        wedge,
    )

    def atom():
        kind = rng.randrange(6)
        if kind == 0:
            return Sphere(rng.randrange(1, 20))
        if kind == 1:
            return SuspCP2(rng.randrange(0, 8))
        if kind == 2:
            d = rng.choice((2, 8, 24, 240))
            return two_cell(rng.randrange(3, 11), CyclicElem(rng.randrange(d), d))
        if kind == 3:
            return LieGroup(rng.choice(_GROUP_POOL))
        if kind == 4:
            return MappingSpace(SuspCP2(0), LieGroup(rng.choice(_GROUP_POOL)))
        bottom = Sphere(rng.randrange(3, 9))
        return attached(bottom, rng.randrange(10, 18), rng.choice((None, "f", "J(xi)")))

    def build(budget: int):
        if budget <= 0:
            return atom()
        kind = rng.randrange(7)
        if kind == 0:
            return wedge(*(build(budget - 1) for _ in range(rng.randrange(1, 4))))
        if kind == 1:
            return product(*(build(budget - 1) for _ in range(rng.randrange(1, 4))))
        if kind == 2:
            return loop(rng.randrange(1, 6), build(budget - 1))
        if kind == 3:
            return suspension(rng.randrange(1, 4), build(budget - 1))
        if kind == 4:
            return gauge(build(budget - 1), rng.choice(("k", "alpha")),
                         rng.choice((None, None, "E7")))
        return atom()

    return build(depth)


def denormalize(rng: random.Random, expr):
    """A random structurally different presentation of the same expression:
    re-nested and shuffled wedges/products, split loop/suspension powers,
    spheres and suspended projective planes wrapped in explicit
    suspensions.  normalize() must send every variant back to expr."""
    from gaugekit.spaces import (
        Loop,
        Product,
        SuspCP2,
        Sphere,
        Suspension,
        Wedge,
        AttachedComplex,
        Gauge,
        MappingSpace,
        TwoCell,
    )

    def vary(e):
        if isinstance(e, Sphere) and e.n >= 2 and rng.random() < 0.4:
            j = rng.randrange(1, e.n + 1)
            return Suspension(j, Sphere(e.n - j)) if e.n - j >= 0 else e
        if isinstance(e, SuspCP2) and e.k >= 1 and rng.random() < 0.4:
            j = rng.randrange(1, e.k + 1)
            return Suspension(j, SuspCP2(e.k - j))
        if isinstance(e, (Wedge, Product)):
            cls = type(e)
            parts = [vary(p) for p in e.parts]
            rng.shuffle(parts)
            # randomly fold a sublist into a nested node of the same type
            while len(parts) > 2 and rng.random() < 0.5:
                i = rng.randrange(len(parts) - 1)
                nested = cls((parts[i], parts[i + 1]))
                parts[i : i + 2] = [nested]
            return cls(tuple(parts))
        if isinstance(e, Loop):
            inner = vary(e.space)
            if e.power >= 2 and rng.random() < 0.5:
                a = rng.randrange(1, e.power)
                return Loop(a, Loop(e.power - a, inner))
            return Loop(e.power, inner)
        if isinstance(e, Suspension):
            inner = vary(e.space)
            if e.power >= 2 and rng.random() < 0.5:
                a = rng.randrange(1, e.power)
                return Suspension(a, Suspension(e.power - a, inner))
            return Suspension(e.power, inner)
        if isinstance(e, AttachedComplex):
            return AttachedComplex(vary(e.skeleton), e.top, e.label)
        if isinstance(e, Gauge):
            return Gauge(vary(e.base), e.label, e.group)
        if isinstance(e, MappingSpace):
            return MappingSpace(vary(e.domain), vary(e.codomain))
        if isinstance(e, TwoCell) and rng.random() < 0.3:
            return TwoCell(e.bottom, e.attach)
        return e

    return vary(expr)


# --- the expression tokenizer: the named-group regex it replaced -------------

_TOKEN = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<SPHERE>S\^\d+)
  | (?P<SCP2>SCP2\^\d+)
  | (?P<CP2>CP\^2)
  | (?P<OMEGA>Omega\^\d+)
  | (?P<SIGMA>Sigma\^\d+)
  | (?P<ECELL>e\^\d+)
  | (?P<GAUGE>G_[A-Za-z]\w*)
  | (?P<MAPSTAR>Map\*)
  | (?P<TC>TC(?!\w))
  | (?P<MOD>mod(?!\w))
  | (?P<X>x(?!\w))
  | (?P<V>v(?!\w))
  | (?P<U>u(?!\w))
  | (?P<LABEL>\[[^\]]*\])
  | (?P<NAME>[A-Za-z]\w*)
  | (?P<INT>\d+)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<SEMI>;)
  | (?P<COMMA>,)
    """,
    re.VERBOSE,
)


def regex_tokenize(text: str) -> list[tuple[str, str]]:
    """(kind, text) of each token, one named group per kind and one match
    per token or whitespace run; raises ParseError at the first character
    that starts no token."""
    from gaugekit.parser import ParseError

    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        pos = m.end()
        kind = m.lastgroup
        if kind != "WS":
            tokens.append((kind, m.group()))
    return tokens


# Characters and words a mutation inserts: whitespace the renderer never
# writes (tab, newline, no-break space), non-ASCII letters, digits and
# symbols, and words that come close to a token without being one.
_MUTATION_CHARS = "\t\n \u00a0\u00e9\u2295\u0663\u00b2([]);,*^_xvuSeG07"
_MUTATION_WORDS = ("G_1", "TC1", "xy", "S^5a", "mod", "Map", "e^3", "u[f]", "Omega^0")


def mutate(rng: random.Random, text: str) -> str:
    """`text` with one seeded corruption: a character deleted, inserted or
    duplicated, spaces turned into tabs or newlines, a `[` left unclosed,
    or a near-token word inserted."""
    i = rng.randrange(len(text) + 1)
    j = min(i, len(text) - 1)
    pick = rng.randrange(6)
    if pick == 0 and text:
        return text[:j] + text[j + 1 :]
    if pick == 1:
        return text[:i] + rng.choice(_MUTATION_CHARS) + text[i:]
    if pick == 2 and text:
        return text[: j + 1] + text[j:]
    if pick == 3:
        return text.replace(" ", rng.choice(("\t", "\n", " \n\t")), rng.randint(1, 3))
    if pick == 4:
        return text[:i] + "[" + text[i:].replace("]", "")
    return text[:i] + rng.choice((" ", "")) + rng.choice(_MUTATION_WORDS) + text[i:]


def mutated_renders(seed: int, count: int) -> list[str]:
    """`count` seeded texts, each the render of a random canonical
    expression with one or two mutations."""
    from gaugekit.render import render_text
    from gaugekit.spaces import normalize

    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        text = render_text(normalize(random_expr(rng, depth=rng.randint(0, 3))))
        for _ in range(rng.randint(1, 2)):
            text = mutate(rng, text)
        texts.append(text)
    return texts


# Texts whose parse fails, one or more for each ParseError message form and
# for each token kind a message can name.
PARSE_ERROR_TEXTS = (
    "S^5 x S^6 v S^7",
    "S^5 x",
    "TC(5,11;1 mod 2)",
    "",
    "S^5 ⊕ S^6",
    "Sigma^0 S^3",
    "Sigma^0 E8",
    "Omega^0 E8",
    "TC(3,6;1 mod 0)",
    "Omega^1 " * 3000 + "S^3",
    "(" * 3000 + "S^3" + ")" * 3000,
    "TC(S^2",
    "S^5 u e^3 u",
    "S^5 u[f] S^3",
    "G_k(S^3; G_k)",
    "G_k(S^3; E7(x))",
    "Map*(S^3; E7)",
    "TC(3,6,1 mod 2)",
    "TC(3,6;1 md 2)",
    ")",
    "x",
    "mod",
    "e^4",
    "[f]",
    "12",
    "S^3 SCP2^1",
    "S^3 CP^2",
    "S^3 Omega^2 E6",
    "S^3 Sigma^2 E6",
    "S^3 TC",
    "S^3 Map*",
    "S^3 G_k",
    "S^3 E7",
    "S^3 (",
    "S^3 ;",
    "S^3 ,",
    "S^3 v",
    "S^3\t\n ",
    "S^3  !",
    "G_1",
    "TC1 x xy",
    "S^5a",
    "S^5 u[f e^12",
)


def parse_error_fixture_lines(seed: int, count: int) -> list[str]:
    """The lines of tests/golden/parse_errors.txt: for each of
    PARSE_ERROR_TEXTS and then `count` seeded mutated renders, the text
    render of what `parse` returns or `ParseError: <message>`, with
    backslashes, control characters and non-ASCII characters escaped, so
    that the file is ASCII with one line per input."""
    from gaugekit.parser import ParseError, parse
    from gaugekit.render import render_text

    lines = []
    for text in PARSE_ERROR_TEXTS + tuple(mutated_renders(seed, count)):
        try:
            outcome = render_text(parse(text))
        except ParseError as exc:
            outcome = f"ParseError: {exc}"
        lines.append(outcome.encode("unicode_escape").decode("ascii"))
    return lines


_FIXTURE_PRIMES = ((2,), (3,), (2, 3), (2, 3, 5))


def expression_fixture_lines(seed: int, count: int) -> list[str]:
    """The lines of tests/golden/expressions.txt: for each of `count` seeded
    denormalized trees, the text and LaTeX renders of its normal form and
    the text render of its localization away from a seeded set of primes."""
    from gaugekit.render import render_latex, render_text
    from gaugekit.spaces import localize, normalize

    rng = random.Random(seed)
    lines = []
    for i in range(count):
        raw = denormalize(rng, random_expr(rng, depth=rng.randint(4, 6)))
        primes = rng.choice(_FIXTURE_PRIMES)
        e = normalize(raw)
        lines.append(f"{i} text {render_text(e)}")
        lines.append(f"{i} latex {render_latex(e)}")
        away = ",".join(map(str, primes))
        lines.append(f"{i} away {away} {render_text(localize(raw, primes))}")
    return lines


# --- table records: the per-query evaluator ----------------------------------
# The loader compiles each record once; this is the algorithm it replaced,
# which re-parses the degree spec and validity on every query and walks the
# tree.  It stays as the reference the compiled conditions must agree with.

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
_MOD_PATTERN = re.compile(r"^q\s+mod\s+(\d+)\s*=\s*(\d+)$")


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


def reference_matches(
    degree_spec: str, validity: str | None, params: dict[str, int], degree: int
) -> bool:
    """Whether a table record with this degree spec and validity answers the
    query (params, degree)."""
    env = dict(params)
    env["q"] = degree
    m = _MOD_PATTERN.match(degree_spec)
    if m:
        if degree % int(m.group(1)) != int(m.group(2)):
            return False
    elif ".." in degree_spec:
        lo_s, hi_s = degree_spec.split("..", 1)
        if not _evaluate(lo_s, env) <= degree <= _evaluate(hi_s, env):
            return False
    else:
        if _evaluate(degree_spec, env) != degree:
            return False
    if validity is not None and not _evaluate(validity, env):
        return False
    return True


# --- factoring references for the gcd-based exact arithmetic ----------------

def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1 if p == 2 else 2
    return True


def factor(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division, as {p: exponent}."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def factored_of(free_rank: int, torsion: Iterable[int]):
    """Invariant factors from the prime-power decomposition: the k-th largest
    factor is the product over p of p to the k-th largest exponent."""
    from gaugekit.groups import FGAbelianGroup

    exponents: dict[int, list[int]] = {}
    for t in torsion:
        for p, e in factor(t).items():
            exponents.setdefault(p, []).append(e)
    depth = max((len(v) for v in exponents.values()), default=0)
    factors = []
    for k in range(depth):
        f = 1
        for p, es in exponents.items():
            es_sorted = sorted(es, reverse=True)
            if k < len(es_sorted):
                f *= p ** es_sorted[k]
        factors.append(f)
    return FGAbelianGroup(free_rank, tuple(reversed(factors)))


def factored_localized_away(group, primes: Iterable[int]):
    """Drop the prime powers of the given primes from every torsion factor."""
    away = set(primes)
    kept = []
    for t in group.torsion:
        reduced = 1
        for p, e in factor(t).items():
            if p not in away:
                reduced *= p**e
        kept.append(reduced)
    return factored_of(group.free_rank, kept)


def two_cell_splits(order: int, primes: Iterable[int]) -> bool:
    """A two-cell complex splits away from the primes when every prime factor
    of its attaching class's order is among them."""
    return set(factor(order)) <= set(primes)


def split_two_cells(e, primes: Iterable[int]):
    """The tree with every two-cell complex that `two_cell_splits` away from
    the primes replaced by the (raw) wedge of its cells; other nodes are
    rebuilt from their fields, which `Value._fields` lists in constructor
    order."""
    from gaugekit.spaces import Sphere, SpaceExpr, TwoCell, Wedge

    primes = set(primes)
    if isinstance(e, TwoCell):
        order = e.attach.modulus // gcd(e.attach.modulus, e.attach.value)
        if two_cell_splits(order, primes):
            return Wedge((Sphere(e.bottom), Sphere(e.top)))
        return e
    values = []
    for name in e._fields:
        value = getattr(e, name)
        if isinstance(value, SpaceExpr):
            value = split_two_cells(value, primes)
        elif isinstance(value, tuple):
            value = tuple(split_two_cells(x, primes) for x in value)
        values.append(value)
    return type(e)(*values)


SRC = Path(__file__).resolve().parents[1] / "src"


def seconds_in_fresh_interpreter(statement: str) -> float:
    """Run `import gaugekit` and then `statement` in a fresh interpreter and
    return how long the statement took.  The child is killed after 10 s, so
    a statement that hangs fails the test (TimeoutExpired) instead of
    stalling the suite; a statement that raises fails it too."""
    code = (
        "import time, gaugekit\n"
        "start = time.perf_counter()\n"
        f"{statement}\n"
        "print(time.perf_counter() - start)\n"
    )
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=10, env=env
    )
    assert done.returncode == 0, done.stderr
    return float(done.stdout.split()[-1])
