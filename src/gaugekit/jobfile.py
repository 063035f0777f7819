"""Job files: one decomposition request per file, in a line-oriented
``key: value`` format with `#` comments.

Common keys: ``kind`` (wall | sphere_bundle | n2 | complex), ``group``
(a Lie group name such as E8 or Sp(3), which `spaces.LieGroup` accepts),
``localize_away`` (primes, space- or comma-separated), ``format``
(text | latex).  Kind-specific keys:

  wall           n, m, chi (m residues, already reduced mod the J-image
                 order), almost_parallelizable (yes/no)
  sphere_bundle  q, n, has_section, j_xi_trivial, clutching_note
  n2             n, m, sigma_f_case, then a matrix block  ``C:`` followed
                 by m rows of m bits
  complex        n, m, moduli (divisibility chain d_1 .. d_r), then a
                 matrix block ``B:`` followed by m rows of r entries

Schema problems raise SchemaError.  The builders check only what a job
file alone can know: syntax (integers, yes/no, enum names), counts against
the declared m, and that chi residues and B entries are already reduced
(a chi entry >= its modulus is rejected, not reduced).  Every other rule
is owned by the model type being built (LieGroup for the group name,
WallManifold via chi_modulus, AttachingMatrix, F2Matrix, N2Manifold, ...),
whose ValueError becomes a SchemaError with the same text.  A key other
than ``C`` and ``B`` with an empty value is a SchemaError.  Each builder
pops the keys it reads; any left over is a SchemaError.
"""

from __future__ import annotations

from os import PathLike
from typing import Iterable

from .exact import is_prime
from .manifolds import GeneralComplex, N2Manifold, SigmaFCase, SphereBundle, WallManifold
from .modmatrix import AttachingMatrix, F2Matrix
from .spaces import LieGroup
from .value import Value, set_field

__all__ = ["SchemaError", "Job", "parse_job_file", "parse_job_text", "parse_primes"]


class SchemaError(ValueError):
    pass


class Job(Value):
    __slots__ = ("kind", "spec", "group", "localize_away", "fmt")
    kind: str
    spec: WallManifold | SphereBundle | N2Manifold | GeneralComplex
    group: str
    localize_away: frozenset[int]
    fmt: str

    def __init__(
        self,
        kind: str,
        spec: WallManifold | SphereBundle | N2Manifold | GeneralComplex,
        group: str,
        localize_away: Iterable[int],
        fmt: str,
    ) -> None:
        set_field(self, "kind", kind)
        set_field(self, "spec", spec)
        set_field(self, "group", group)
        set_field(self, "localize_away", frozenset(localize_away))
        set_field(self, "fmt", fmt)


_Fields = dict[str, tuple[str, list[str]]]
_BOOLS = {"yes": True, "true": True, "no": False, "false": False}


def _split_fields(text: str) -> _Fields:
    """Each key's inline value and the bare rows under it (only a key with
    an empty value takes rows); the builder that reads a key decides."""
    fields: _Fields = {}
    rows: list[str] | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if ":" in line:
            key, _, value = line.partition(":")
            key = key.strip()
            value = value.strip()
            if not key:
                raise SchemaError(f"line {lineno}: missing key")
            if key in fields:
                what = "key" if value else "matrix block"
                raise SchemaError(f"line {lineno}: duplicate {what} {key!r}")
            fields[key] = (value, [])
            rows = None if value else fields[key][1]
        else:
            if rows is None:
                raise SchemaError(f"line {lineno}: row outside a matrix block: {line!r}")
            rows.append(line.strip())
    return fields


def _get(fields: _Fields, key: str, default: str | None = None, what: str = "nonempty") -> str:
    """The inline value of `key`, or `default` when it is absent (required
    when there is none); an empty value is a schema error."""
    if key not in fields:
        if default is None:
            raise SchemaError(f"missing required key {key!r}")
        return default
    value = fields.pop(key)[0]
    if not value:
        raise SchemaError(f"{key!r} must be {what}, got ''")
    return value


def _get_int(fields: _Fields, key: str) -> int:
    value = _get(fields, key, what="an integer")
    try:
        return int(value)
    except ValueError:
        raise SchemaError(f"{key!r} must be an integer, got {value!r}") from None


def _get_bool(fields: _Fields, key: str) -> bool:
    value = _get(fields, key, "no", "yes/no")
    flag = _BOOLS.get(value.lower())
    if flag is None:
        raise SchemaError(f"{key!r} must be yes/no, got {value!r}")
    return flag


def parse_primes(field: str) -> frozenset[int]:
    primes = set()
    for p in field.replace(",", " ").split():
        try:
            v = int(p)
        except ValueError:
            raise SchemaError(f"localize_away entries must be integers, got {p!r}") from None
        try:
            prime = is_prime(v)
        except ValueError as exc:
            raise SchemaError(f"localize_away entry {v}: {exc}") from None
        if not prime:
            raise SchemaError(f"localize_away entries must be prime, got {v}")
        primes.add(v)
    return frozenset(primes)


def _matrix(fields: _Fields, key: str, kind: str) -> list[list[int]]:
    value, rows = fields.pop(key, (None, []))
    if value != "":
        raise SchemaError(f"{kind} jobs need a matrix block '{key}:'")
    out = []
    for row in rows:
        try:
            out.append([int(x) for x in row.split()])
        except ValueError:
            raise SchemaError(f"{key}: non-integer matrix entry in row {row!r}") from None
    return out


def parse_job_text(text: str) -> Job:
    fields = _split_fields(text)
    kind = _get(fields, "kind")
    if kind not in _BUILD:
        raise SchemaError(f"kind must be one of {tuple(_BUILD)}, got {kind!r}")
    group = _get(fields, "group")
    try:
        LieGroup(group)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    away = parse_primes(_get(fields, "localize_away", ""))
    fmt = _get(fields, "format", "text")
    if fmt not in ("text", "latex"):
        raise SchemaError(f"format must be text or latex, got {fmt!r}")

    try:
        spec = _BUILD[kind](fields)
    except ValueError as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(str(exc)) from exc
    unread = [f"matrix block {key!r}" if rows else repr(key) for key, (_, rows) in fields.items()]
    if unread:
        raise SchemaError(f"{kind} jobs do not read {', '.join(unread)}")
    return Job(kind, spec, group, away, fmt)


def parse_job_file(path: str | PathLike[str]) -> Job:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_job_text(text)


def _build_wall(fields: _Fields) -> WallManifold:
    n = _get_int(fields, "n")
    m = _get_int(fields, "m")
    if m < 1:
        raise SchemaError(f"rank m must be >= 1, got {m}")
    chi_field = _get(fields, "chi").replace(",", " ").split()
    if len(chi_field) != m:
        raise SchemaError(f"chi must list exactly m={m} residues, got {len(chi_field)}")
    try:
        values = [int(v) for v in chi_field]
    except ValueError:
        raise SchemaError("chi entries must be integers") from None
    wall = WallManifold.of(n, values, _get_bool(fields, "almost_parallelizable"))
    for v in values:
        if not 0 <= v < wall.modulus:
            raise SchemaError(
                f"chi entry {v} is out of range for modulus {wall.modulus} (values must be "
                "given as reduced residues)"
            )
    return wall


def _build_bundle(fields: _Fields) -> SphereBundle:
    return SphereBundle(
        q=_get_int(fields, "q"),
        n=_get_int(fields, "n"),
        has_section=_get_bool(fields, "has_section"),
        j_xi_trivial=_get_bool(fields, "j_xi_trivial"),
        clutching_note=_get(fields, "clutching_note", ""),
    )


def _build_n2(fields: _Fields) -> N2Manifold:
    n = _get_int(fields, "n")
    m = _get_int(fields, "m")
    rows = _matrix(fields, "C", "n2")
    if len(rows) != m or any(len(r) != m for r in rows):
        raise SchemaError(f"C must be an {m}x{m} bit matrix")
    C = F2Matrix.from_rows(rows)
    case_field = _get(fields, "sigma_f_case", "general")
    try:
        case = SigmaFCase(case_field)
    except ValueError:
        valid = ", ".join(c.value for c in SigmaFCase)
        raise SchemaError(f"sigma_f_case must be one of: {valid}; got {case_field!r}") from None
    return N2Manifold(n, C, case)


def _build_complex(fields: _Fields) -> GeneralComplex:
    n = _get_int(fields, "n")
    m = _get_int(fields, "m")
    moduli_field = _get(fields, "moduli").replace(",", " ").split()
    try:
        moduli = [int(d) for d in moduli_field]
    except ValueError:
        raise SchemaError("moduli must be integers") from None
    rows = _matrix(fields, "B", "complex")
    if len(rows) != m or any(len(r) != len(moduli) for r in rows):
        raise SchemaError(f"B must be {m}x{len(moduli)} (one column per modulus)")
    B = AttachingMatrix.from_rows(rows, moduli)
    for row in rows:
        for v, d in zip(row, moduli):
            if not 0 <= v < d:
                raise SchemaError(
                    f"B entry {v} is out of range for its column modulus {d} "
                    "(values must be given as reduced residues)"
                )
    return GeneralComplex(n, B)


_BUILD = {
    "wall": _build_wall,
    "sphere_bundle": _build_bundle,
    "n2": _build_n2,
    "complex": _build_complex,
}
