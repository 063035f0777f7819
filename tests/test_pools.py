"""The seed-1 job pools of the batch_mixed, reduce_bigmod and cold_cli
benchmark workloads, run through the command line in process.  Every
verdict and every --trace log must satisfy the benchmark's oracle
(perfbench/oracle.py), and every job's exit code and output are pinned in
tests/golden/pools.txt, one line per job, so a change names the jobs whose
output moved.  The benchmark is only imported, never changed."""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
from pathlib import Path
from typing import Iterator

from gaugekit.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import jobs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "pools.txt"
SEED = 1


def run_pools(workdir: Path) -> Iterator[tuple[str, dict, int, str, str]]:
    """(name, spec, exit code, stdout, stderr) of each pool job: generated
    as perfbench/run.py does, written to workdir, run through `cli.main`
    (with --trace where the spec asks for it), and the job's path replaced
    by its name in the output."""
    pools = {
        "batch_mixed": jobs.batch_mixed(random.Random(SEED), run.BATCH_JOBS),
        "reduce_bigmod": jobs.reduce_bigmod(random.Random(SEED)),
        "cold_cli": jobs.cold_cli(random.Random(SEED), run.COLD_WALLS),
    }
    for workload, specs in pools.items():
        (workdir / workload).mkdir()
        for i, spec in enumerate(specs):
            name = f"{workload}/job{i:05d}.job"
            path = workdir / name
            path.write_text(jobs.job_text(spec), encoding="utf-8")
            argv = ["decompose", str(path)] + (["--trace"] if spec.get("trace") else [])
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            yield name, spec, code, *(s.getvalue().replace(str(path), name) for s in (out, err))


def golden_line(name: str, code: int, stdout: str, stderr: str) -> str:
    digest = hashlib.sha256((stdout + stderr).encode()).hexdigest()[:16]
    return f"{name} {code} {digest}"


def pool_golden_lines(workdir: Path | str) -> list[str]:
    return [golden_line(name, *result) for name, _spec, *result in run_pools(Path(workdir))]


def meets_oracle(spec: dict, code: int, stdout: str) -> bool:
    lines = stdout.splitlines()
    fields = dict(
        line.split(": ", 1) for line in lines if line.startswith(("suspension: ", "gauge: "))
    )
    if not oracle.check(oracle.expected(spec), code, fields.get("suspension"), fields.get("gauge")):
        return False
    return not (spec.get("trace") and code == oracle.EXIT_OK) or oracle.check_trace(spec, lines)


def test_every_pool_job_meets_the_oracle_and_its_golden_line(tmp_path, monkeypatch):
    monkeypatch.delenv("GAUGEKIT_TABLES", raising=False)
    lines, wrong = [], []
    for name, spec, code, stdout, stderr in run_pools(tmp_path):
        if not meets_oracle(spec, code, stdout):
            wrong.append(f"{name} exit {code}: {stdout}{stderr}")
        lines.append(golden_line(name, code, stdout, stderr))
    assert wrong == []
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    moved = [line for line, want in zip(lines, golden) if line != want]
    assert moved == [] and len(lines) == len(golden) == 2598
