#!/usr/bin/env python3
"""gaugekit benchmark: verdict throughput and latency on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds nothing: it runs the package from ``src/`` of the checkout it sits
in.  Each workload is generated from the seed, run in closed loop (one
client, each job starts when the previous one ends) in whole passes until
S seconds have been measured, and every verdict is checked against the
oracle in `oracle.py`.  With ``--trace 0`` the last stdout line is a JSON
object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of one traced pass (see `tracing.py`).  Working files
go to ``.perfbench_work/`` in the checkout.

Workloads:
  batch_mixed     small jobs of every kind through the library path of the CLI
  reduce_bigmod   complex jobs with moduli up to 171864, in process
  cold_cli        one fresh ``python -m gaugekit.cli`` process per job
  expr_roundtrip  normalize/localize/render/parse of random expression trees
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import jobs
import oracle
from tracing import MissingLayer, Tracer, layer_metrics, load_dump

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

JOB_LIMIT_S = 60.0  # a job slower than this counts as failed
COUNTS_LIMIT_S = 120.0  # the fresh-interpreter traced pass of a traced run
SETUP_REPEATS = 15
SETUP_PROBE = (
    "import time; t0 = time.perf_counter(); import gaugekit; "
    "t1 = time.perf_counter(); gaugekit.default_tables(); "
    "print(t1 - t0, time.perf_counter() - t1)"
)

# Pool sizes: on a 2-vCPU 2.0 GHz Xeon VM one pass takes about a second for
# batch_mixed and expr_roundtrip, four for reduce_bigmod and thirteen for
# cold_cli, so a 20-second run makes whole passes: many in process, two
# for cold_cli.  Latency percentiles are taken over the pool, one value per
# job, so the pool size fixes which percentile the tail is.
BATCH_JOBS = 2400
EXPR_ITEMS = 1500
COLD_WALLS = 22

# Layers each workload must reach in the traced run; zero calls fails it.
REQUIRED = {
    "batch_mixed": [
        "jobfile.parse", "decompose", "tables.pi", "tables.classify",
        "groups.localized_away", "spaces.construct", "spaces.localize",
        "render.text", "render.latex", "modmatrix.reduce", "modmatrix.rank_f2",
        "exact.imj_order",
    ],
    "reduce_bigmod": ["jobfile.parse", "decompose", "modmatrix.reduce", "tables.pi"],
    "cold_cli": [
        "cli.main", "jobfile.parse", "decompose", "exact.imj_order", "exact.bernoulli",
        "modmatrix.reduce", "modmatrix.orbit",
    ],
    "expr_roundtrip": [
        "spaces.normalize", "spaces.localize", "spaces.construct",
        "render.text", "render.latex", "parser.parse",
    ],
}
# Counts two traced passes over the same inputs must reproduce exactly.
DETERMINISTIC = [
    "modmatrix.rowops", "modmatrix.orbit_states", "tables.entries_tested",
    "exact.bernoulli_max_s", "render.chars", "parser.chars",
]
END_TO_END_UNITS = {
    "jobs_per_s": "1/s", "job_p50_ms": "ms", "job_tail_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}


def _unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith(("_ratio", "_frac")):
        return "ratio"
    if metric == "exact.bernoulli_max_s":
        return "index"
    return "count"


class BenchmarkError(Exception):
    """The run cannot produce a trustworthy result."""


def engine_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "GAUGEKIT_TABLES")}
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup() -> tuple[float, float, float]:
    """Median (total s, import ms, table-load ms) of `import gaugekit` plus
    the first `default_tables()` call, each in a fresh interpreter."""

    def probe() -> tuple[float, float]:
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            env=engine_env(), capture_output=True, text=True, timeout=120, check=True,
        )
        imp, tables = out.stdout.split()
        return float(imp), float(tables)

    probe()  # writes the bytecode cache, which installed packages ship with
    samples = [probe() for _ in range(SETUP_REPEATS)]
    return (
        statistics.median(i + t for i, t in samples),
        statistics.median(i for i, _ in samples) * 1e3,
        statistics.median(t for _, t in samples) * 1e3,
    )


# --- the engine, in process ---------------------------------------------


class Library:
    """gaugekit as a library user calls it.  Functions are looked up on
    their modules at call time, so traced runs see the installed wrappers;
    the oracle's own engine calls use the originals captured here."""

    def __init__(self) -> None:
        sys.path.insert(0, str(SRC))
        import gaugekit
        import gaugekit.jobfile

        if Path(gaugekit.__file__).resolve().parent != (SRC / "gaugekit").resolve():
            raise BenchmarkError(f"imported gaugekit from {gaugekit.__file__}, not {SRC}")
        self.gk = gaugekit
        self.jobfile = gaugekit.jobfile
        self._localize = gaugekit.localize
        gaugekit.default_tables()

    def run_job(self, item) -> tuple:
        """parse_job_file -> decompose -> render, with the CLI's exit codes."""
        gk, path = self.gk, item[0]
        try:
            job = self.jobfile.parse_job_file(path)
        except (OSError, self.jobfile.SchemaError):
            return oracle.EXIT_SCHEMA, None, None
        try:
            result = gk.decompose(job.spec, job.group, job.localize_away)
        except gk.NotTabulatedError:
            return oracle.EXIT_NOT_TABULATED, None, None
        except (gk.HypothesisNotMetError, gk.DecompositionError):
            return oracle.EXIT_HYPOTHESIS, None, None
        suspension = gk.render(result.suspension, job.fmt)
        gauge = gk.render(result.gauge, job.fmt)
        if result.base_space is not None:
            gk.render(result.base_space, job.fmt)
        return oracle.EXIT_OK, suspension, gauge

    def roundtrip(self, item) -> tuple:
        gk, (raw, primes) = self.gk, item
        normalized = gk.normalize(raw)
        localized = gk.localize(normalized, primes)
        text = gk.render_text(localized)
        latex = gk.render_latex(localized)
        return localized, gk.parse(text), latex

    def check_roundtrip(self, item, out) -> bool:
        localized, parsed, latex = out
        return bool(latex) and parsed == localized and self._localize(localized, item[1]) == localized


def check_job(item, out) -> bool:
    return oracle.check(item[2], *out)


# --- the engine as fresh CLI processes ----------------------------------


def cli_command(item, spans: Path | None = None) -> list[str]:
    path, spec, _ = item
    args = ["decompose", str(path)] + (["--trace"] if spec.get("trace") else [])
    if spans is None:
        return [sys.executable, "-m", "gaugekit.cli", *args]
    return [sys.executable, str(HERE / "launch.py"), str(spans), *args]


def run_cli(command: list[str]) -> tuple:
    try:
        proc = subprocess.run(
            command, env=engine_env(), capture_output=True, text=True, timeout=JOB_LIMIT_S
        )
    except subprocess.TimeoutExpired:
        return ("timeout",)
    return proc.returncode, proc.stdout


def check_cli(item, out) -> bool:
    _path, spec, want = item
    if out[0] == "timeout":
        return False
    code, stdout = out
    lines = stdout.splitlines()
    fields = dict(line.split(": ", 1) for line in lines if line.startswith(("suspension: ", "gauge: ")))
    if not oracle.check(want, code, fields.get("suspension"), fields.get("gauge")):
        return False
    return not (spec.get("trace") and code == oracle.EXIT_OK) or oracle.check_trace(spec, lines)


# --- measurement --------------------------------------------------------


class Pass(NamedTuple):
    """Latencies, failed job indices and measured seconds of one pass."""

    latencies: list[float]
    failed: list[int]
    elapsed: float


def run_pass(items, run_one, check, before=None) -> Pass:
    """One pass over items.  Each output is checked as it comes, outside
    the measured time."""
    latencies, failed = [], []
    start = time.perf_counter()
    checking = 0.0
    for i, item in enumerate(items):
        if before is not None:
            before(i)
        t0 = time.perf_counter()
        try:
            out = run_one(item)
        except Exception as exc:  # an engine crash is a failed job, not a crashed benchmark
            out = ("exception", repr(exc))
        dt = time.perf_counter() - t0
        c0 = time.perf_counter()
        ok = out[0] not in ("exception", "timeout") and check(item, out)
        checking += time.perf_counter() - c0
        latencies.append(dt)
        if not ok or dt > JOB_LIMIT_S:
            failed.append(i)
    return Pass(latencies, failed, time.perf_counter() - start - checking)


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples above
    it, and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class Workload:
    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.name = name
        self.in_process = name != "cold_cli"
        rng = random.Random(seed)
        self.lib = Library() if self.in_process else None
        if name == "expr_roundtrip":
            import exprs

            self.items = exprs.items(rng, EXPR_ITEMS)
            self.run_one, self.check = self.lib.roundtrip, self.lib.check_roundtrip
            return
        specs = {
            "batch_mixed": lambda: jobs.batch_mixed(rng, BATCH_JOBS),
            "reduce_bigmod": lambda: jobs.reduce_bigmod(rng),
            "cold_cli": lambda: jobs.cold_cli(rng, COLD_WALLS),
        }[name]()
        self.items = []
        for i, spec in enumerate(specs):
            path = workdir / f"job{i:05d}.job"
            path.write_text(jobs.job_text(spec), encoding="utf-8")
            self.items.append((path, spec, oracle.expected(spec)))
        if self.in_process:
            self.run_one, self.check = self.lib.run_job, check_job
        else:
            self.run_one, self.check = (lambda item: run_cli(cli_command(item))), check_cli

    def describe_failures(self, failed: list[int]) -> list[str]:
        """One line per failing input (first 20), so it can be reproduced."""
        lines = []
        for i in sorted(set(failed))[:20]:
            item = self.items[i]
            shown = repr(item)[:400] if self.name == "expr_roundtrip" else json.dumps(item[1])
            lines.append(f"failed: input {i}: {shown}")
        return lines


def end_to_end(workload: Workload, seconds: float) -> tuple[dict, list[Pass], list[str]]:
    """Whole passes until `seconds` are measured.  Each job's latency is its
    median over the passes, and p50 and the tail are taken over those, so
    the tail is the same percentile of the same pool however many passes
    fit, and a stall in one pass does not move it."""
    setup_s, _, _ = measure_setup()
    passes: list[Pass] = []
    while not passes or sum(p.elapsed for p in passes) < seconds:
        passes.append(run_pass(workload.items, workload.run_one, workload.check))
    per_job = [statistics.median(lat) for lat in zip(*(p.latencies for p in passes))]
    job_tail, percentile = tail(per_job)
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    metrics = {
        "jobs_per_s": (attempted - failed) / sum(p.elapsed for p in passes),
        "job_p50_ms": statistics.median(per_job) * 1e3,
        "job_tail_ms": job_tail * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(children=not workload.in_process),
    }
    rates = sorted(len(p.latencies) / p.elapsed for p in passes)
    notes = [
        f"{len(passes)} passes of {len(per_job)} jobs (jobs_per_s {rates[0]:.4g} to "
        f"{rates[-1]:.4g} per pass); job_tail_ms is p{percentile:.3f} of the {len(per_job)} "
        f"per-job median latencies",
        f"failed_frac: {failed / attempted:.6f} ({failed} of {attempted})",
    ]
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, passes, notes


class CliSpans:
    """Runs traced CLI jobs through launch.py and gathers their spans."""

    def __init__(self) -> None:
        self.dump = WORK / f"spans-{os.getpid()}.json"
        self.job = 0
        self.spans, self.entries_tested = [], 0

    def before(self, i: int) -> None:
        self.job = i

    def run_one(self, item) -> tuple:
        out = run_cli(cli_command(item, self.dump))
        if self.dump.exists():
            spans, tested = load_dump(self.dump, self.job)
            self.spans += spans
            self.entries_tested += tested
            self.dump.unlink()
        return out


def traced_pass(workload: Workload) -> tuple[Pass, list, dict, dict]:
    """One pass with span recording: the pass, its spans, the per-layer
    metrics and the call count of each span name."""
    if workload.in_process:
        recorder = Tracer()
        recorder.install()
        run_one = workload.run_one

        def before(i: int) -> None:
            recorder.job = i
    else:
        recorder = CliSpans()
        run_one, before = recorder.run_one, recorder.before
    done = run_pass(workload.items, run_one, workload.check, before)
    return (done, recorder.spans, *layer_metrics(recorder.spans, recorder.entries_tested))


def plain_and_traced(workload: Workload) -> tuple[list[Pass], list, dict, dict]:
    """Untraced passes, the last of which is the baseline of
    `trace.overhead_frac`, then `traced_pass`.  In process a first pass
    fills the module caches, so that both measured passes find them warm."""
    plain = [run_pass(workload.items, workload.run_one, workload.check)]
    if workload.in_process:
        plain.append(run_pass(workload.items, workload.run_one, workload.check))
    done, spans, metrics, calls = traced_pass(workload)
    return plain + [done], spans, metrics, calls


def counts_in_fresh_interpreter(name: str, seed: int) -> dict:
    """The deterministic counts of a traced pass over the same inputs, made
    by a child run.py with its own interpreter, module caches and hash seed."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "0", "--trace", "1", "--counts-only"],
        env=env, capture_output=True, text=True, timeout=COUNTS_LIMIT_S,
    )
    if out.returncode != 0:
        raise BenchmarkError(f"the fresh-interpreter traced pass failed: {out.stderr.strip()}")
    return json.loads(out.stdout.splitlines()[-1])


def traced(workload: Workload, seed: int) -> tuple[dict, list[Pass], list[str]]:
    """`plain_and_traced`, then the same in a fresh interpreter, which must
    agree on the deterministic counts."""
    _, import_ms, tables_ms = measure_setup()
    passes, spans, metrics, calls = plain_and_traced(workload)
    missing = [name for name in REQUIRED[workload.name] if calls[name] == 0]
    if missing:
        raise BenchmarkError(f"layers recorded no calls on {workload.name}: {', '.join(missing)}")
    again = counts_in_fresh_interpreter(workload.name, seed)
    drift = [k for k in DETERMINISTIC if metrics[k] != again[k]]
    if drift:
        raise BenchmarkError(
            "traced counts differ between two interpreters on the same inputs: "
            + ", ".join(f"{k} {metrics[k]} vs {again[k]}" for k in drift)
        )
    metrics["setup.import_ms"] = import_ms
    metrics["setup.tables_load_ms"] = tables_ms
    metrics["trace.overhead_frac"] = 1.0 - passes[-2].elapsed / passes[-1].elapsed
    spans_out = WORK / f"spans-{workload.name}-{seed}.jsonl"
    with open(spans_out, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s._asdict()) + "\n")
    notes = [f"spans of the traced pass: {spans_out.relative_to(ROOT)}"]
    return {k: (v, _unit(k)) for k, v in metrics.items()}, passes, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(REQUIRED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the passes of a traced run, printing only the deterministic counts
    parser.add_argument("--counts-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "gaugekit" / "__init__.py").is_file():
        print(f"error: no gaugekit package under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = Workload(args.workload, args.seed, workdir)
        if args.counts_only:
            _, _, metrics, _ = plain_and_traced(workload)
            print(json.dumps({k: metrics[k] for k in DETERMINISTIC}))
            return 0
        if args.trace:
            metrics, passes, notes = traced(workload, args.seed)
        else:
            metrics, passes, notes = end_to_end(workload, args.seconds)
    except (BenchmarkError, MissingLayer, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [i for p in passes for i in p.failed]
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name}: {value:.6g} {unit}")
    for line in notes + workload.describe_failures(failed):
        print(line)
    print(json.dumps({
        "correct": not failed,
        "attempted": sum(len(p.latencies) for p in passes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
