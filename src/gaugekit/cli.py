"""One-shot command line front end.

    gaugekit decompose <file> [--localize-away p1,p2] [--format text|latex]
                       [--trace] [--jobs <dir>]

Reads a job file (see jobfile), runs the dispatcher, and prints the
suspension splitting, the gauge decomposition, and the rule used.
`--trace` prints the row reduction a complex job's decomposition was
computed from.  `--localize-away` is checked once, before the first job.
Give a job file or `--jobs DIR`, not both.  Exit codes: 0 success, 2
hypothesis not met (including unsupported inputs and inapplicable cases),
3 homotopy group not tabulated, 4 malformed job file, table directory or
arguments, 141 (128 + SIGPIPE) when the reader of standard output closes
it early.  The table directory can be overridden with
GAUGEKIT_TABLES; it is loaded once, before the first job.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Iterator

from .decompose import DecompositionError, decompose
from .jobfile import SchemaError, parse_job_file, parse_primes
from .modmatrix import RowOp, rowop_orbit
from .render import render
from .tables import HypothesisNotMetError, NotTabulatedError, default_tables

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_NOT_TABULATED = 3
EXIT_SCHEMA = 4
EXIT_BROKEN_PIPE = 141


def _describe(job) -> str:
    spec = job.spec
    params = {
        "wall": lambda s: f"n={s.n}, m={s.m}",
        "sphere_bundle": lambda s: f"q={s.q}, n={s.n}",
        "n2": lambda s: f"n={s.n}, m={s.m}, case={s.sigma_f_case.value}",
        "complex": lambda s: f"n={s.n}, m={s.m}",
    }[job.kind](spec)
    return f"{job.kind} ({params}), group {job.group}"


def _trace_lines(result) -> Iterator[str]:
    if result.reduction is None:
        yield "trace: no row-operation log for this job kind"
        return
    reduced, notes = result.reduction
    # one unit operation a line: `add a b k` is printed as k lines `add a b`
    yield f"trace: {sum(op.k for op in reduced.oplog)} row operations"
    for op in reduced.oplog:
        unit = f"  {RowOp(op.kind, op.a, op.b)}"
        for _ in range(op.k):
            yield unit
    yield f"trace: diagonal {list(reduced.diagonal)}"
    for note in notes:
        yield f"trace: note: {note}"
    orbit = rowop_orbit(reduced.initial, reduced.moduli)
    if orbit is None:
        yield "trace: oracle: orbit search skipped (state space too large)"
    elif reduced.entries in orbit:
        yield f"trace: oracle: reduced form confirmed reachable (orbit of {len(orbit)} states)"
    else:
        yield "trace: oracle: REDUCED FORM NOT IN ORBIT (certification failure)"


def _run_one(path: Path, args, extra_away: frozenset[int]) -> int:
    try:
        job = parse_job_file(path)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except SchemaError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return EXIT_SCHEMA

    fmt = args.format or job.fmt

    try:
        result = decompose(job.spec, job.group, job.localize_away | extra_away)
    except NotTabulatedError as exc:
        print(f"error: not tabulated: {exc}", file=sys.stderr)
        return EXIT_NOT_TABULATED
    except HypothesisNotMetError as exc:
        print(f"error: hypothesis not met: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except DecompositionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS

    print(f"job: {_describe(job)}")
    print(f"suspension: {render(result.suspension, fmt)}")
    print(f"gauge: {render(result.gauge, fmt)}")
    if result.base_space is not None:
        print(f"base: {render(result.base_space, fmt)}")
    print(f"theorem: {result.theorem_used}")
    if result.localized_away:
        print(f"localized away: {', '.join(str(p) for p in sorted(result.localized_away))}")
    if args.trace:
        for line in _trace_lines(result):
            print(line)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # nothing reads the rest: send it to os.devnull, so that the flush at
        # interpreter exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return code


def _main(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(
        prog="gaugekit",
        description="suspension splittings and gauge-group decompositions "
        "over highly connected manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    dec = sub.add_parser("decompose", help="decompose the manifold described by a job file")
    dec.add_argument("file", nargs="?", help="job file (omit when using --jobs)")
    dec.add_argument("--localize-away", metavar="p1,p2", help="extra primes to invert")
    dec.add_argument("--format", choices=("text", "latex"), help="override the job's output format")
    dec.add_argument("--trace", action="store_true", help="dump the row-operation log and oracle verdicts")
    dec.add_argument("--jobs", metavar="DIR", help="process every job file in a directory")
    args = parser.parse_args(argv)
    try:
        extra_away = parse_primes(args.localize_away or "")
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA

    try:
        default_tables()
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA

    if bool(args.file) == bool(args.jobs):
        print("error: give exactly one of a job file and --jobs DIR", file=sys.stderr)
        return EXIT_SCHEMA
    if args.jobs:
        directory = Path(args.jobs)
        if not directory.is_dir():
            print(f"error: not a directory: {directory}", file=sys.stderr)
            return EXIT_SCHEMA
        paths = sorted(p for p in directory.iterdir() if p.is_file())
        if not paths:
            print(f"error: no job files in {directory}", file=sys.stderr)
            return EXIT_SCHEMA
        worst = EXIT_OK
        for i, path in enumerate(paths):
            if i:
                print()
            print(f"== {path.name}")
            worst = max(worst, _run_one(path, args, extra_away))
        return worst
    return _run_one(Path(args.file), args, extra_away)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
