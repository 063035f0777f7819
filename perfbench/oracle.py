"""Independent oracle for the benchmark's job files.

Nothing here imports gaugekit.  Expected verdicts are worked out from the
theorem statements, the homotopy groups the packaged tables cover (written
out below from Bott periodicity and the Bott-Samelson/Kachi ranges), the
J-image orders in closed form, and a mod-2 rank of our own.  A verdict is
the exit code plus, for a success, the factor multiplicities that show in
the rendered output: the number of top-level wedge summands of the
suspension and the number of ``Omega^`` factors of the gauge product.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

EXIT_OK, EXIT_HYPOTHESIS, EXIT_NOT_TABULATED, EXIT_SCHEMA = 0, 2, 3, 4
# the CLI's orbit search under --trace gives up beyond this many states
ORBIT_SEARCH_CAP = 50_000

KINDS = ("wall", "sphere_bundle", "n2", "complex")
N2_CASES = ("general", "in_suspended_cp2", "in_bottom_spheres", "in_top_sphere", "null")

# pi_q of the exceptional groups: zero for lo <= q <= hi, Z at q = top,
# untabulated elsewhere.
_E_GROUPS = {"E6": (4, 8, 9), "E7": (4, 10, 11), "E8": (4, 14, 15)}
# Bott periodicity by q mod 8: 0 trivial, "Z" infinite cyclic, 2 for Z/2.
_SP = {0: 0, 1: 0, 2: 0, 3: "Z", 4: 2, 5: 2, 6: 0, 7: "Z"}
_SPIN = {0: 2, 1: 2, 2: 0, 3: "Z", 4: 0, 5: 0, 6: 0, 7: "Z"}
_CLASSICAL = re.compile(r"(Sp|Spin)\((\d+)\)")


class Verdict(NamedTuple):
    exit: int
    summands: int = 0
    omegas: int = 0


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))


def pi(group: str, q: int):
    """pi_q(group) as the tables state it: 0, "Z" or 2 (for Z/2), or None
    when the tables do not cover the degree."""
    if group in _E_GROUPS:
        lo, hi, top = _E_GROUPS[group]
        if lo <= q <= hi:
            return 0
        return "Z" if q == top else None
    m = _CLASSICAL.fullmatch(group)
    if not m:
        return None
    r = int(m[2])
    if m[1] == "Sp":
        return _SP[q % 8] if q - 1 <= 4 * r else None
    return _SPIN[q % 8] if r >= q + 2 and q >= 2 else None


def jimage(n: int) -> int:
    """Order of the stable J-image in the (n-1)-stem (n >= 3), with the
    n = 4s orders from the von Staudt-Clausen/Adams closed form
    prod over primes p with (p-1) | 2s of p^(1 + v_p(4s))."""
    r = n % 8
    if r in (3, 5, 6, 7):
        return 1
    if r in (1, 2):
        return 2
    s = n // 4
    order = 1
    for k in range(1, 2 * s + 1):
        if (2 * s) % k == 0 and is_prime(k + 1):
            p, v, x = k + 1, 0, 4 * s
            while x % p == 0:
                x //= p
                v += 1
            order *= p ** (1 + v)
    return order


def chi_modulus(n: int) -> int:
    return 2 if n == 2 else jimage(n)


def rank_f2(rows: list[list[int]]) -> int:
    rows = [list(r) for r in rows]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def nonzero_columns(B: list[list[int]]) -> int:
    return sum(1 for j in range(len(B[0])) if any(row[j] for row in B))


def n2_counts(n: int, m: int, c: int, case: str) -> tuple[int, int, int]:
    """(Omega^{n-3} Map*, Omega^{n-1}, Omega^{n+1}) factor counts."""
    if n == 6:
        return {
            "general": (c - 1, m - c - 1, m - c),
            "in_suspended_cp2": (c - 1, m - c, m - c),
            "in_bottom_spheres": (c, m - c - 1, m - c),
            "null": (c, m - c, m - c),
        }[case]
    return {
        "general": (c - 4, m - c - 3, m - c - 1),
        "in_suspended_cp2": (c - 4, m - c, m - c),
        "in_bottom_spheres": (c, m - c - 3, m - c),
        "in_top_sphere": (c, m - c, m - c - 1),
        "null": (c, m - c, m - c),
    }[case]


def _vanishing(group: str, degrees, away) -> int:
    """Exit code of a vanishing hypothesis, checked degree by degree."""
    for q in degrees:
        g = pi(group, q)
        if g is None:
            return EXIT_NOT_TABULATED
        if g != 0 and not (g == 2 and 2 in away):
            return EXIT_HYPOTHESIS
    return EXIT_OK


def _wall(spec) -> Verdict:
    n, chi, away, group = spec["n"], spec["chi"], spec["away"], spec["group"]
    m = len(chi)
    if n < 2 or m < 1:
        return Verdict(EXIT_SCHEMA)
    d = chi_modulus(n)
    if any(not 0 <= v < d for v in chi):
        return Verdict(EXIT_SCHEMA)
    if n < 3:
        return Verdict(EXIT_HYPOTHESIS)
    code = _vanishing(group, (n - 1, n), away)
    if code:
        return Verdict(code)
    if pi(group, 2 * n - 1) is None:
        return Verdict(EXIT_NOT_TABULATED)
    splits = (
        n % 8 in (3, 5, 6, 7)
        or not any(chi)
        or (n % 8 in (1, 2) and 2 in away)
        or (spec["ap"] and n == 8 and group == "E8" and {3, 5} <= set(away))
    )
    return Verdict(EXIT_OK, m + 1, m) if splits else Verdict(EXIT_OK, m, m - 1)


def _bundle(spec) -> Verdict:
    q, n, group = spec["q"], spec["n"], spec["group"]
    if q < 1 or n < 1:
        return Verdict(EXIT_SCHEMA)
    stable = n <= 2 * q - 1
    if not spec["section"] and not (spec["reducible"] and stable):
        return Verdict(EXIT_HYPOTHESIS)
    code = _vanishing(group, (n - 1,), ())
    if code:
        return Verdict(code)
    if spec["reducible"] and stable and pi(group, q - 1) == 0:
        return Verdict(EXIT_OK, 3, 2)
    return Verdict(EXIT_OK, 3 if spec["reducible"] else 2, 1)


def _n2(spec) -> Verdict:
    n, C, case, group = spec["n"], spec["C"], spec["case"], spec["group"]
    m = len(C)
    if (
        n not in (6, 8)
        or m < 1
        or any(len(row) != m or any(b not in (0, 1) for b in row) for row in C)
        or case not in N2_CASES
        or (n == 6 and case == "in_top_sphere")
    ):
        return Verdict(EXIT_SCHEMA)
    if (n, group) not in ((6, "E7"), (8, "E8")):
        return Verdict(EXIT_HYPOTHESIS)
    if 2 in spec["away"]:
        return Verdict(EXIT_OK, 2 * m + 1, 2 * m)
    counts = n2_counts(n, m, rank_f2(C), case)
    if min(counts) < 0:
        return Verdict(EXIT_HYPOTHESIS)
    return Verdict(EXIT_OK, 1 + sum(counts), sum(counts))


def _complex(spec) -> Verdict:
    n, moduli, B, group = spec["n"], spec["moduli"], spec["B"], spec["group"]
    m = len(B)
    if (
        n < 2
        or m < 1
        or not moduli
        or any(d < 1 for d in moduli)
        or any(hi % lo for lo, hi in zip(moduli, moduli[1:]))
        or any(len(row) != len(moduli) for row in B)
        or any(not 0 <= v < d for row in B for v, d in zip(row, moduli))
    ):
        return Verdict(EXIT_SCHEMA)
    # row operations are invertible on each column, so the reduced matrix
    # has exactly as many nonzero columns as the input
    t = nonzero_columns(B)
    if t >= m:
        return Verdict(EXIT_HYPOTHESIS)
    code = _vanishing(group, (n - 1, n), ())
    if code:
        return Verdict(code)
    return Verdict(EXIT_OK, 1 + m - t, m - t)


def expected(spec) -> Verdict:
    """The verdict the CLI must reach on the job file written from spec."""
    if (
        spec["kind"] not in KINDS
        or not all(is_prime(p) for p in spec["away"])
        or spec["fmt"] not in ("text", "latex")
    ):
        return Verdict(EXIT_SCHEMA)
    return {"wall": _wall, "sphere_bundle": _bundle, "n2": _n2, "complex": _complex}[
        spec["kind"]
    ](spec)


# --- checking rendered output ---------------------------------------------


def top_level_summands(text: str) -> int:
    """Number of wedge summands at bracket depth 0, in text or LaTeX."""
    sep = " \\vee " if "\\" in text else " v "
    depth, count, i = 0, 1, 0
    while i < len(text):
        ch = text[i]
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        elif depth == 0 and text.startswith(sep, i):
            count += 1
            i += len(sep)
            continue
        i += 1
    return count


def check(want: Verdict, code: int, suspension: str | None, gauge: str | None) -> bool:
    if code != want.exit:
        return False
    if code != EXIT_OK:
        return True
    return (
        suspension is not None
        and gauge is not None
        and top_level_summands(suspension) == want.summands
        and gauge.count("Omega^") == want.omegas
    )


# --- replaying a --trace row-operation log --------------------------------


def replay(B: list[list[int]], moduli: list[int], ops: list[str]) -> list[list[int]]:
    """Apply logged ``add a b`` (row a += row b), ``swap a b`` and
    ``negate a`` lines, 1-based, entrywise modulo each column's modulus."""
    rows = [list(r) for r in B]
    for line in ops:
        kind, *idx = line.split()
        a = int(idx[0]) - 1
        if kind == "add":
            b = int(idx[1]) - 1
            rows[a] = [(x + y) % d for x, y, d in zip(rows[a], rows[b], moduli)]
        elif kind == "swap":
            b = int(idx[1]) - 1
            rows[a], rows[b] = rows[b], rows[a]
        elif kind == "negate" and len(idx) == 1:
            rows[a] = [(-x) % d for x, d in zip(rows[a], moduli)]
        else:
            raise ValueError(f"unknown row operation {line!r}")
    return rows


def check_trace(spec, stdout_lines: list[str]) -> bool:
    """The --trace log must replay, from the input matrix, to a matrix whose
    diagonal is the printed one and whose nonzero columns are those of the
    input, and the orbit search must confirm the reduced form unless the
    matrix space is larger than the search cap."""
    head = [i for i, line in enumerate(stdout_lines) if line.startswith("trace: ")]
    if not head:
        return False
    first = head[0]
    m = re.fullmatch(r"trace: (\d+) row operations", stdout_lines[first])
    if not m:
        return False
    k = int(m[1])
    ops = [line.strip() for line in stdout_lines[first + 1 : first + 1 + k]]
    rest = stdout_lines[first + 1 + k :]
    diag = next((line for line in rest if line.startswith("trace: diagonal ")), None)
    verdict = next((line for line in rest if line.startswith("trace: oracle: ")), "")
    if diag is None or len(ops) != k:
        return False
    try:
        rows = replay(spec["B"], spec["moduli"], ops)
    except (ValueError, IndexError):
        return False
    width = min(len(rows), len(spec["moduli"]))
    printed = [int(v) for v in re.findall(r"\d+", diag[len("trace: diagonal ") :])]
    if printed != [rows[j][j] for j in range(width)]:
        return False
    if nonzero_columns(rows) != nonzero_columns(spec["B"]):
        return False
    if "confirmed reachable" in verdict:
        return True
    return "skipped" in verdict and math.prod(spec["moduli"]) ** len(rows) > ORBIT_SEARCH_CAP
