"""Seeded job-file generators for the job workloads.

A job is a spec dict; `job_text` writes it in the job-file format and
`oracle.expected` gives its verdict.  Generators pick from recipes that
are meant to succeed and, at a fixed share, from recipes meant to end in
exit 2, 3 or 4; the oracle alone decides what each job must produce.
"""

from __future__ import annotations

import random

from oracle import N2_CASES, chi_modulus, n2_counts, rank_f2

# n with pi_{n-1} = pi_n = 0 for each family, unlocalized and away from 2
_SP_N = [9, 10, 17, 18, 25, 26, 33, 34]
_SP_N_AWAY2 = [13, 14, 21, 22, 29, 30, 37, 38]
_SPIN_N = [5, 6, 13, 14, 21, 22, 29, 30, 37, 38]
_SPIN_N_AWAY2 = _SP_N
# n = 4s and n = 3, 7 mod 8, where the classical groups have Z in degree n-1 or n
_SP_N_BAD = [11, 12, 15, 16, 19, 20, 23, 24, 27, 28, 31, 32, 35, 36, 39, 40]


def _sp(n: int, rng: random.Random) -> str:
    # Bott rows for Sp(r) hold while q - 1 <= 4r; cover q = 2n - 1
    return f"Sp({n // 2 + rng.randint(0, 3)})"


def _spin(n: int, rng: random.Random) -> str:
    # Bott rows for Spin(r) hold while r >= q + 2; cover q = 2n - 1
    return f"Spin({2 * n + 1 + rng.randint(0, 3)})"


def _fmt(rng: random.Random) -> str:
    return "latex" if rng.random() < 0.25 else "text"


def _base(kind: str, group: str, away, rng: random.Random) -> dict:
    return {"kind": kind, "group": group, "away": tuple(away), "fmt": _fmt(rng)}


def _chi(n: int, m: int, rng: random.Random) -> list[int]:
    d = chi_modulus(n)
    return [0 if rng.random() < 0.3 else rng.randrange(d) for _ in range(m)]


def wall(rng: random.Random, good: bool) -> dict:
    if good:
        pick = rng.randrange(7)
        if pick == 0:
            group, n, away = "E6", 5, ()
        elif pick == 1:
            group, n, away = "E7", rng.choice([5, 6]), rng.choice([(), (7,)])
        elif pick == 2:
            group, n, away = "E8", rng.choice([5, 6, 7, 8, 8, 8]), rng.choice([(), (3, 5), (7,), (2,)])
        elif pick == 3:
            n = rng.choice(_SP_N)
            group, away = _sp(n, rng), rng.choice([(), (2,), (3,)])
        elif pick == 4:
            n = rng.choice(_SP_N_AWAY2)
            group, away = _sp(n, rng), rng.choice([(2,), (2, 3)])
        elif pick == 5:
            n = rng.choice(_SPIN_N)
            group, away = _spin(n, rng), rng.choice([(), (3,)])
        else:
            n = rng.choice(_SPIN_N_AWAY2)
            group, away = _spin(n, rng), (2,)
    else:
        pick = rng.randrange(7)
        away = ()
        if pick == 0:
            n = rng.choice(_SP_N_BAD)
            group = _sp(n, rng)
        elif pick == 1:
            group, n = "E8", 2
        elif pick == 2:
            group, n = "E8", rng.randint(17, 40)
        elif pick == 3:
            group, n = rng.choice(["E6", "G2"]), rng.randint(6, 8)
        else:
            group, n = "E8", rng.choice([5, 8])
            away = (9,) if pick == 4 else ()
    spec = _base("wall", group, away, rng)
    spec.update(n=n, chi=_chi(n, rng.randint(1, 6), rng), ap=n == 8 and rng.random() < 0.5)
    if not good and pick == 5:
        spec["chi"][0] = chi_modulus(n) + rng.randrange(3)
    if not good and pick == 6:
        spec["kind"] = "torus"
    return spec


def sphere_bundle(rng: random.Random, good: bool) -> dict:
    group = rng.choice(["E6", "E7", "E8"])
    top = {"E6": 9, "E7": 11, "E8": 15}[group]
    q = rng.randint(1, 12)
    section, reducible = rng.random() < 0.5, rng.random() < 0.5
    n = rng.randint(5, top)
    if good:
        if not (section or (reducible and n <= 2 * q - 1)):
            section = True
    else:
        pick = rng.randrange(4)
        if pick == 0:
            section, reducible = False, False
        elif pick == 1:
            n = top + 1  # pi_{n-1}(G) = Z
        elif pick == 2:
            n = top + rng.randint(2, 6)  # untabulated
        else:
            q = 0
    spec = _base("sphere_bundle", group, rng.choice([(), (2,), (3, 5)]), rng)
    spec.update(q=q, n=n, section=section, reducible=reducible)
    return spec


def n2(rng: random.Random, good: bool) -> dict:
    n, group = rng.choice([(6, "E7"), (8, "E8")])
    m = rng.randint(1, 16)
    density = rng.random()
    C = [[int(rng.random() < density) for _ in range(m)] for _ in range(m)]
    away = () if rng.random() < 0.7 else rng.choice([(2,), (3,)])
    cases = [c for c in N2_CASES if not (n == 6 and c == "in_top_sphere")]
    case = rng.choice(cases)
    if good and 2 not in away:
        c = rank_f2(C)
        fitting = [k for k in cases if min(n2_counts(n, m, c, k)) >= 0]
        case = rng.choice(fitting)  # "null" always fits
    if not good:
        pick = rng.randrange(3)
        if pick == 0:
            group = "E8" if n == 6 else "E7"
        elif pick == 1:
            n = 7
        else:
            n, case = 6, "in_top_sphere"
    spec = _base("n2", group, away, rng)
    spec.update(n=n, C=C, case=case)
    return spec


def _vanishing_complex_degree(rng: random.Random) -> tuple[str, int]:
    pick = rng.randrange(5)
    if pick == 0:
        return "E8", rng.randint(5, 14)
    if pick == 1:
        return "E7", rng.randint(5, 10)
    if pick == 2:
        return "E6", rng.randint(5, 8)
    if pick == 3:
        n = rng.choice(_SP_N)
        return _sp(n, rng), n
    n = rng.choice(_SPIN_N)
    return _spin(n, rng), n


def _divisor_chain(top: int, r: int, rng: random.Random) -> list[int]:
    chain = [top]
    while len(chain) < r:
        d = chain[0]
        chain.insert(0, rng.choice([k for k in range(2, d + 1) if d % k == 0]))
    return chain


def complex_job(rng: random.Random, good: bool) -> dict:
    group, n = _vanishing_complex_degree(rng)
    r = rng.randint(1, 3)
    moduli = _divisor_chain(rng.choice([2, 4, 6, 8, 12, 24, 48, 120, 240]), r, rng)
    m = rng.randint(1, 5)
    B = [[rng.randrange(d) for d in moduli] for _ in range(m)]
    for j in range(r):
        if rng.random() < 0.3:
            for row in B:
                row[j] = 0
    if good:
        j = 0
        while sum(1 for k in range(r) if any(row[k] for row in B)) >= m:
            for row in B:
                row[j] = 0
            j += 1
    else:
        pick = rng.randrange(4)
        if pick == 0:
            B = [[rng.randrange(1, d) for d in moduli]]  # t = m = 1
        elif pick == 1:
            n = rng.choice(_SP_N_BAD)
            group = _sp(n, rng)
        elif pick == 2:
            B[0][-1] = moduli[-1]
        else:
            moduli = [8, 12]
            B = [[1, 1] for _ in range(m)]
    spec = _base("complex", group, rng.choice([(), (), (2,), (5,)]), rng)
    spec.update(n=n, moduli=moduli, B=B)
    return spec


_KIND_GENERATORS = (wall, sphere_bundle, n2, complex_job)


def batch_mixed(rng: random.Random, count: int) -> list[dict]:
    """Small jobs of all four kinds in turn; one in five from a recipe
    meant to fail."""
    return [
        _KIND_GENERATORS[i % 4](rng, good=rng.random() >= 0.2)
        for i in range(count)
    ]


# Matrix shapes for reduce_bigmod: rows of signed small multiples ("u" marks
# a uniform residue).  One-column shapes are taken modulo d; two-column
# shapes modulo the chain 24 | d (24 divides every J-image order).  The cost
# of a restricted reduction follows the Euclidean quotients and the staged
# inverse, so the shapes span cheap (positive multiples) to about d unary
# row additions (-1 next to 1).  The shapes are fixed so that every seed
# carries the same magnitude mix; the seed picks the uniform residues, the
# row order and the group.
BIGMOD_SHAPES = (
    ((-1,), (-12,)),
    ((-1,), (1,)),
    ((1,), (12,)),
    ((-3,), (7,)),
    ((-1,), (-6,)),
    ((-5,), (-7,)),
    ((-1,), (-11,)),
    (("u",), ("u",)),
    (("u",), (-1,)),
    ((1, -1), (0, -12), (0, 5)),
    ((2, 1), (3, -1), (0, 7)),
    ((5, "u"), (7, "u"), (1, "u")),
)
# stable J-image orders imj(4s) for s = 1..17, all at most 171864
BIGMOD_ORDERS = sorted({chi_modulus(4 * s) for s in range(1, 18)})


def bigmod_job(rng: random.Random, d: int, shape: tuple) -> dict:
    """A complex job whose modulus chain divides the J-image order d."""
    group, n = _vanishing_complex_degree(rng)
    moduli = [d] if len(shape[0]) == 1 else [24, d]
    B = [[rng.randrange(mod) if k == "u" else k % mod for k, mod in zip(row, moduli)] for row in shape]
    rng.shuffle(B)
    spec = _base("complex", group, (), rng)
    spec.update(n=n, moduli=moduli, B=B)
    return spec


def reduce_bigmod(rng: random.Random) -> list[dict]:
    return [bigmod_job(rng, d, shape) for d in BIGMOD_ORDERS for shape in BIGMOD_SHAPES]


def _orbit_job(rng: random.Random, m: int, d: int) -> dict:
    """A one-column complex run with --trace, so the CLI searches its orbit."""
    group, n = _vanishing_complex_degree(rng)
    spec = _base("complex", group, (), rng)
    spec.update(n=n, moduli=[d], B=[[rng.randrange(1, d)] for _ in range(m)], trace=True)
    return spec


def cold_cli(rng: random.Random, walls: int) -> list[dict]:
    """Wall jobs with n = 4s, s stratified over 8..190, whose J-image order
    is computed cold while the job file is parsed (they end in exit 2 or 3);
    one good job of each kind and one bad wall job; and three traced
    complex jobs, the last with an orbit beyond the CLI's search cap."""
    pool = []
    for i in range(walls):
        s = 8 + int(182 * (i + rng.random()) / walls)
        n = 4 * s
        group = ["E8", _sp(n, rng), _spin(n, rng), f"Spin({rng.randint(8, 40)})"][i % 4]
        spec = _base("wall", group, (), rng)
        spec.update(n=n, chi=_chi(n, rng.randint(1, 3), rng), ap=False)
        pool.append(spec)
    pool += [gen(rng, good=True) for gen in _KIND_GENERATORS] + [wall(rng, good=False)]
    pool += [_orbit_job(rng, 2, 24), _orbit_job(rng, 3, 12), _orbit_job(rng, 3, 120)]
    rng.shuffle(pool)
    return pool


def job_text(spec: dict) -> str:
    lines = [f"kind: {spec['kind']}", f"group: {spec['group']}"]
    if spec["away"]:
        lines.append("localize_away: " + ", ".join(str(p) for p in spec["away"]))
    if spec["fmt"] != "text":
        lines.append(f"format: {spec['fmt']}")
    kind = spec["kind"]
    if kind in ("wall", "torus"):
        chi = spec["chi"]
        lines += [f"n: {spec['n']}", f"m: {len(chi)}", "chi: " + " ".join(map(str, chi))]
        if spec["ap"]:
            lines.append("almost_parallelizable: yes")
    elif kind == "sphere_bundle":
        lines += [
            f"q: {spec['q']}",
            f"n: {spec['n']}",
            f"has_section: {'yes' if spec['section'] else 'no'}",
            f"j_xi_trivial: {'yes' if spec['reducible'] else 'no'}",
        ]
    elif kind == "n2":
        lines += [f"n: {spec['n']}", f"m: {len(spec['C'])}", f"sigma_f_case: {spec['case']}", "C:"]
        lines += [" ".join(map(str, row)) for row in spec["C"]]
    else:
        lines += [f"n: {spec['n']}", f"m: {len(spec['B'])}", "moduli: " + " ".join(map(str, spec["moduli"])), "B:"]
        lines += [" ".join(map(str, row)) for row in spec["B"]]
    return "\n".join(lines) + "\n"
