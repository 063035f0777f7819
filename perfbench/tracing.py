"""Runtime span recording around gaugekit's public functions.

`Tracer.install` wraps each function named in `FUNCTIONS` and `METHODS`
and rebinds every gaugekit module attribute that holds it, because modules
import these functions by name (``from .modmatrix import
reduce_with_report``).  A call into a span name that is already open on
the stack runs unrecorded, so a layer's recursion into itself is recorded
once, at the outermost span.  Spans stay in memory with their parent ids
until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from typing import NamedTuple


def _first_arg(args, kwargs, result):
    return args[0]


def _rowops(args, kwargs, result):
    return len(result[0].oplog) - len(args[0].oplog)


def _chars_out(args, kwargs, result):
    return len(result)


def _chars_in(args, kwargs, result):
    return len(args[0])


_CONSTRUCTORS = ("wedge", "product", "loop", "suspension", "two_cell", "attached", "gauge")

# (module, function, span name, value recorded on return)
FUNCTIONS = [
    ("gaugekit.cli", "main", "cli.main", None),
    ("gaugekit.jobfile", "parse_job_file", "jobfile.parse", None),
    ("gaugekit.jobfile", "parse_job_text", "jobfile.parse", None),
    ("gaugekit.exact", "bernoulli", "exact.bernoulli", _first_arg),
    ("gaugekit.exact", "imj_order", "exact.imj_order", None),
    ("gaugekit.manifolds", "chi_modulus", "exact.imj_order", None),
    ("gaugekit.modmatrix", "reduce_with_report", "modmatrix.reduce", _rowops),
    ("gaugekit.modmatrix", "rowop_orbit", "modmatrix.orbit", None),
    ("gaugekit.modmatrix", "rank_f2", "modmatrix.rank_f2", None),
    ("gaugekit.decompose", "decompose", "decompose", None),
    *(("gaugekit.spaces", f, "spaces.construct", None) for f in _CONSTRUCTORS),
    ("gaugekit.spaces", "normalize", "spaces.normalize", None),
    ("gaugekit.spaces", "localize", "spaces.localize", None),
    ("gaugekit.render", "render_text", "render.text", _chars_out),
    ("gaugekit.render", "render_latex", "render.latex", _chars_out),
    ("gaugekit.parser", "parse", "parser.parse", _chars_in),
]
# (module, class, method, span name)
METHODS = [
    ("gaugekit.tables", "Tables", "pi", "tables.pi"),
    ("gaugekit.tables", "Tables", "classify_bundles", "tables.classify"),
    ("gaugekit.groups", "FGAbelianGroup", "localized_away", "groups.localized_away"),
]


class MissingLayer(Exception):
    """A function the tracer must wrap no longer exists."""


class Span(NamedTuple):
    id: int
    parent: int | None
    job: int
    name: str
    start: float
    end: float
    ok: bool
    value: float | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.entries_tested = 0
        self.job = 0
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._next_id = 0

    def _wrap(self, name: str, fn, value_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in self._open:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            self._open.add(name)
            ok, value = False, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                if value_of is not None:
                    value = value_of(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._open.discard(name)
                self.spans.append(Span(sid, parent, self.job, name, start, end, ok, value))

        return traced

    def install(self) -> None:
        """Wrap every target; a target that no longer exists raises, so a
        rename cannot silently drop a layer."""
        for module, attr, name, value_of in FUNCTIONS:
            original = _lookup(module, attr)
            value_of = _orbit_states(original) if name == "modmatrix.orbit" else value_of
            _rebind(original, self._wrap(name, original, value_of))
        for module, cls_name, attr, name in METHODS:
            cls = _lookup(module, cls_name)
            setattr(cls, attr, self._wrap(name, _lookup(module, f"{cls_name}.{attr}")))
        entry = _lookup("gaugekit.tables", "TableEntry")
        matches = entry.matches

        @functools.wraps(matches)
        def counted(*args, **kwargs):
            self.entries_tested += 1
            return matches(*args, **kwargs)

        entry.matches = counted

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"spans": [list(s) for s in self.spans], "entries_tested": self.entries_tested},
                fh,
            )


def _lookup(module: str, dotted: str):
    obj = importlib.import_module(module)
    try:
        for attr in dotted.split("."):
            obj = getattr(obj, attr)
    except AttributeError:
        raise MissingLayer(f"cannot trace {module}.{dotted}: it no longer exists") from None
    return obj


def _orbit_states(original):
    """Orbit size, or the state cap the search gave up at (value < 0)."""
    signature = inspect.signature(original)

    def value_of(args, kwargs, result):
        if result is not None:
            return len(result)
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return -bound.arguments["max_states"]

    return value_of


def _rebind(original, wrapper) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "gaugekit" or name.startswith("gaugekit.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def load_dump(path, job: int) -> tuple[list[Span], int]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return [Span(*s)._replace(job=job) for s in data["spans"]], data["entries_tested"]


# --- per-layer metrics ---------------------------------------------------


def layer_metrics(spans: list[Span], entries_tested: int) -> tuple[dict[str, float], Counter]:
    """Per-layer metrics and the call count of each span name.  Times are
    inclusive milliseconds over outermost spans, except `decompose.self_ms`,
    which subtracts the time of decompose's child spans."""
    ms: Counter = Counter()
    calls: Counter = Counter()
    child_ms: Counter = Counter()
    values: dict[str, list[float]] = {}
    for s in spans:
        dur = (s.end - s.start) * 1e3
        ms[s.name] += dur
        calls[s.name] += 1
        if s.parent is not None:
            child_ms[(s.job, s.parent)] += dur
        if s.value is not None:
            values.setdefault(s.name, []).append(s.value)
    decompose_self = sum(
        (s.end - s.start) * 1e3 - child_ms[(s.job, s.id)] for s in spans if s.name == "decompose"
    )
    rowops = values.get("modmatrix.reduce", [])
    orbits = values.get("modmatrix.orbit", [])
    pi_hits = sum(1 for s in spans if s.name == "tables.pi" and s.ok)
    return {
        "cli.main_ms": ms["cli.main"],
        "jobfile.parse_ms": ms["jobfile.parse"],
        "jobfile.calls": calls["jobfile.parse"],
        "exact.bernoulli_ms": ms["exact.bernoulli"],
        "exact.bernoulli_calls": calls["exact.bernoulli"],
        "exact.bernoulli_max_s": max(values.get("exact.bernoulli", [0])),
        "exact.imj_order_ms": ms["exact.imj_order"],
        "modmatrix.reduce_ms": ms["modmatrix.reduce"],
        "modmatrix.reduce_calls": calls["modmatrix.reduce"],
        "modmatrix.rowops": sum(rowops),
        "modmatrix.rowops_per_reduce_max": max(rowops, default=0),
        "modmatrix.orbit_ms": ms["modmatrix.orbit"],
        "modmatrix.orbit_states": sum(abs(v) for v in orbits),
        "modmatrix.orbit_capped": sum(1 for v in orbits if v < 0),
        "modmatrix.rank_f2_ms": ms["modmatrix.rank_f2"],
        "tables.pi_ms": ms["tables.pi"],
        "tables.pi_calls": calls["tables.pi"],
        "tables.entries_tested": entries_tested,
        "tables.hit_ratio": pi_hits / entries_tested if entries_tested else 0.0,
        "tables.classify_ms": ms["tables.classify"],
        "groups.localized_away_ms": ms["groups.localized_away"],
        "decompose.self_ms": decompose_self,
        "decompose.calls": calls["decompose"],
        "spaces.construct_ms": ms["spaces.construct"],
        "spaces.normalize_ms": ms["spaces.normalize"],
        "spaces.localize_ms": ms["spaces.localize"],
        "render.text_ms": ms["render.text"],
        "render.latex_ms": ms["render.latex"],
        "render.chars": sum(values.get("render.text", [])) + sum(values.get("render.latex", [])),
        "parser.parse_ms": ms["parser.parse"],
        "parser.chars": sum(values.get("parser.parse", [])),
    }, calls
