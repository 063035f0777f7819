import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gaugekit.cli import main
from gaugekit.jobfile import SchemaError, parse_job_file, parse_job_text
from gaugekit.manifolds import WallManifold, chi_modulus
from gaugekit.modmatrix import AttachingMatrix, F2Matrix, reduce_with_report
from gaugekit.parser import parse
from gaugekit.spaces import LieGroup

from support import NAME_PIECES, seconds_in_fresh_interpreter

WALL_E6 = """\
kind: wall
n: 5
m: 3
chi: 0 0 0
group: E6
format: text
"""

WALL_E6_12DIM = """\
kind: wall
n: 6
m: 2
chi: 0 0
group: E6
"""

WALL_BAD_CHI = """\
kind: wall
n: 8
m: 2
chi: 240 80
group: E8
"""

N2_JOB = """\
kind: n2
n: 6
m: 4
C:
1 0 0 0
0 1 0 0
0 0 0 0
0 0 0 0
sigma_f_case: null
group: E7
"""

COMPLEX_JOB = """\
kind: complex
n: 6
m: 3
moduli: 24
B:
2
3
0
group: E7
"""

COMPLEX_120_JOB = """\
kind: complex
n: 6
m: 3
moduli: 120
B:
32
112
0
group: E7
"""

# --trace prints one unit row operation a line; perfbench/oracle.py replays
# exactly this text
TRACE_COMPLEX_E7 = """\
job: complex (n=6, m=3), group E7
suspension: Sigma^1 (S^6 u e^12) v S^7 v S^7
gauge: G_alpha(S^6 u e^12) x Omega^6 E7 x Omega^6 E7
theorem: two-cone gauge factorization via restricted row reduction of the suspended attaching matrix
trace: 8 row operations
  negate 1
  add 2 1
  negate 1
  negate 2
  add 1 2
  add 1 2
  negate 2
  swap 1 2
trace: diagonal [1]
trace: oracle: reduced form confirmed reachable (orbit of 11648 states)
"""

TRACE_COMPLEX_120 = """\
job: complex (n=6, m=3), group E7
suspension: Sigma^1 (S^6 u e^12) v S^7 v S^7
gauge: G_alpha(S^6 u e^12) x Omega^6 E7 x Omega^6 E7
theorem: two-cone gauge factorization via restricted row reduction of the suspended attaching matrix
trace: 21 row operations
  negate 1
  add 2 1
  add 2 1
  add 2 1
  negate 1
  negate 2
  add 1 2
  add 1 2
  negate 2
  add 1 2
  add 1 2
  add 1 2
  add 1 2
  add 1 2
  add 1 2
  add 1 2
  add 1 2
  negate 1
  add 2 1
  add 2 1
  negate 1
trace: diagonal [8]
trace: oracle: reduced form confirmed reachable (orbit of 3224 states)
"""

BUNDLE_JOB = """\
kind: sphere_bundle
q: 5
n: 6
j_xi_trivial: yes
group: E6
"""


def write(tmp_path: Path, name: str, text: str) -> str:
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_wall_job_prints_decomposition(tmp_path, capsys):
    path = write(tmp_path, "wall.job", WALL_E6)
    code, out, err = run(capsys, "decompose", path)
    assert code == 0, err
    assert "G_k(S^10) x Omega^5 E6 x Omega^5 E6 x Omega^5 E6" in out
    assert "suspension:" in out and "theorem:" in out


def test_not_tabulated_exits_3(tmp_path, capsys):
    path = write(tmp_path, "wall12.job", WALL_E6_12DIM)
    code, out, err = run(capsys, "decompose", path)
    assert code == 3
    assert "pi_11(E6)" in err


@pytest.mark.parametrize("text", [WALL_E6, BUNDLE_JOB, N2_JOB, COMPLEX_JOB])
def test_a_group_outside_the_declared_families_exits_3(tmp_path, capsys, text):
    # S names the stable stems: the tables hold records for it, but do not
    # declare it a structure-group family (a sphere bundle once exited 0)
    text = text.replace("group: E6", "group: S").replace("group: E7", "group: S")
    code, out, err = run(capsys, "decompose", write(tmp_path, "s.job", text))
    assert (code, out) == (3, "")
    assert err == (
        "error: not tabulated: S is not in a structure-group family of the tables: "
        "they declare E6, E7, E8, Sp, Spin\n"
    )


def test_malformed_chi_exits_4(tmp_path, capsys):
    path = write(tmp_path, "bad.job", WALL_BAD_CHI)
    code, out, err = run(capsys, "decompose", path)
    assert code == 4
    assert "out of range" in err


def test_hypothesis_not_met_exits_2(tmp_path, capsys):
    path = write(tmp_path, "wall10_e6.job", "kind: wall\nn: 10\nm: 2\nchi: 0 0\ngroup: E6\n")
    code, out, err = run(capsys, "decompose", path)
    assert code == 2
    assert "pi_9(E6)" in err


def test_unsupported_bundle_exits_2(tmp_path, capsys):
    path = write(
        tmp_path, "nosec.job", "kind: sphere_bundle\nq: 2\nn: 6\nj_xi_trivial: yes\ngroup: E6\n"
    )
    code, out, err = run(capsys, "decompose", path)
    assert code == 2
    assert "cross section" in err


def test_no_splitting_exits_2(tmp_path, capsys):
    job = "kind: complex\nn: 6\nm: 2\nmoduli: 24 24\nB:\n1 0\n0 1\ngroup: E7\n"
    path = write(tmp_path, "full.job", job)
    code, out, err = run(capsys, "decompose", path)
    assert code == 2
    assert "t < m" in err


def test_bad_prime_exits_4(tmp_path, capsys):
    # 6 is composite; 3.4e24 is past the bound below which is_prime is exact
    for away in ("6", "3400000000000000000000001"):
        path = write(tmp_path, "p.job", WALL_E6 + f"localize_away: {away}\n")
        code, out, err = run(capsys, "decompose", path)
        assert code == 4
        assert "prime" in err


def test_bad_localize_away_flag_is_reported_once_before_any_job(tmp_path, capsys):
    sample_jobs = Path(__file__).resolve().parents[1] / "sample_jobs"
    error = "error: localize_away entries must be prime, got 4\n"
    assert run(capsys, "decompose", "--jobs", str(sample_jobs), "--localize-away", "4") == (4, "", error)
    # the flag is checked before any job file is read
    path = write(tmp_path, "k.job", "kind: torus\ngroup: E6\n")
    assert run(capsys, "decompose", path, "--localize-away", "4") == (4, "", error)


def test_unknown_kind_exits_4(tmp_path, capsys):
    path = write(tmp_path, "k.job", "kind: torus\ngroup: E6\n")
    code, out, err = run(capsys, "decompose", path)
    assert code == 4


def test_missing_file_exits_4(tmp_path, capsys):
    missing = tmp_path / "absent.job"
    assert run(capsys, "decompose", str(missing)) == (
        4, "", f"error: cannot read {missing}: [Errno 2] No such file or directory: '{missing}'\n"
    )
    assert run(capsys, "decompose", str(tmp_path)) == (
        4, "", f"error: cannot read {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'\n"
    )


def test_n2_job_and_latex_format(tmp_path, capsys):
    path = write(tmp_path, "n2.job", N2_JOB)
    code, out, err = run(capsys, "decompose", path)
    assert code == 0
    assert "G_k(S^12) x Omega^3 Map*(CP^2, E7)" in out
    code, out, err = run(capsys, "decompose", path, "--format", "latex")
    assert code == 0
    assert r"\mathcal{G}_{k}(S^{12})" in out
    assert r"{\rm Map}^{\ast}(\mathbb{C}P^{2}, E_7)" in out


def test_localize_away_flag_merges(tmp_path, capsys):
    path = write(tmp_path, "n2.job", N2_JOB)
    code, out, err = run(capsys, "decompose", path, "--localize-away", "2")
    assert code == 0
    assert "localized away: 2" in out
    assert "Omega^5 E7" in out and "Map*" not in out


def test_trace_dumps_oplog_and_oracle(tmp_path, capsys):
    path = write(tmp_path, "cx.job", COMPLEX_JOB)
    code, out, err = run(capsys, "decompose", path, "--trace")
    assert code == 0
    assert "row operations" in out
    assert "swap 1 2" in out or "add" in out
    assert "oracle: reduced form confirmed reachable" in out


def test_trace_text_is_one_unit_operation_a_line(tmp_path, capsys):
    sample = Path(__file__).resolve().parents[1] / "sample_jobs" / "complex_e7.job"
    assert run(capsys, "decompose", str(sample), "--trace") == (0, TRACE_COMPLEX_E7, "")
    path = write(tmp_path, "cx120.job", COMPLEX_120_JOB)
    assert run(capsys, "decompose", path, "--trace") == (0, TRACE_COMPLEX_120, "")


def test_traced_complex_job_reduces_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(B):
        calls.append(B)
        return reduce_with_report(B)

    # every gaugekit module that holds the function by name, so that a call
    # from any of them counts
    for name, module in list(sys.modules.items()):
        if name.startswith("gaugekit") and getattr(module, "reduce_with_report", None) is reduce_with_report:
            monkeypatch.setattr(module, "reduce_with_report", counted)
    path = write(tmp_path, "cx120.job", COMPLEX_120_JOB)
    assert run(capsys, "decompose", path, "--trace") == (0, TRACE_COMPLEX_120, "")
    assert calls == [parse_job_file(path).spec.B]


def test_trace_on_wall_job_notes_absence(tmp_path, capsys):
    path = write(tmp_path, "wall.job", WALL_E6)
    code, out, err = run(capsys, "decompose", path, "--trace")
    assert code == 0
    assert "no row-operation log" in out


def test_output_is_deterministic(tmp_path, capsys):
    path = write(tmp_path, "bundle.job", BUNDLE_JOB)
    code1, out1, err1 = run(capsys, "decompose", path)
    code2, out2, err2 = run(capsys, "decompose", path)
    assert (code1, out1, err1) == (code2, out2, err2)
    assert "base: S^5 x S^6" in out1


def test_jobs_directory_batch(tmp_path, capsys):
    jobs = tmp_path / "jobs"
    jobs.mkdir()
    (jobs / "a_wall.job").write_text(WALL_E6, encoding="utf-8")
    (jobs / "b_bad.job").write_text(WALL_E6_12DIM, encoding="utf-8")
    code, out, err = run(capsys, "decompose", "--jobs", str(jobs))
    assert code == 3  # worst exit among the batch
    assert "== a_wall.job" in out and "== b_bad.job" in out
    assert "G_k(S^10)" in out
    assert "pi_11(E6)" in err


def test_key_the_kind_does_not_read_exits_4(tmp_path, capsys):
    strays = {
        "a.job": (WALL_E6 + "localise_away: 2\n", "wall", "localise_away"),
        "b.job": (BUNDLE_JOB + "B:\n1 0\n", "sphere_bundle", "B"),
        "c.job": (COMPLEX_JOB + "sigma_f_case: null\n", "complex", "sigma_f_case"),
    }
    for name, (text, kind, key) in strays.items():
        code, out, err = run(capsys, "decompose", write(tmp_path, name, text))
        assert (code, out) == (4, "")
        assert f"{kind} jobs" in err and repr(key) in err

    jobs = tmp_path / "jobs"
    jobs.mkdir()
    for name, (text, _, _) in strays.items():
        (jobs / name).write_text(text, encoding="utf-8")
    (jobs / "d.job").write_text(WALL_E6, encoding="utf-8")
    code, out, err = run(capsys, "decompose", "--jobs", str(jobs))
    assert code == 4  # worst exit among the batch
    assert "== d.job" in out and "G_k(S^10)" in out
    assert err.count("error:") == 3


def test_empty_scalar_is_read_as_its_value_exits_4(tmp_path, capsys):
    # only C: and B: take rows; any other key with an empty value is a scalar
    empties = {
        "a.job": (WALL_E6.replace("n: 5", "n:"), "'n' must be an integer, got ''"),
        "b.job": (
            WALL_E6 + "almost_parallelizable:\n",
            "'almost_parallelizable' must be yes/no, got ''",
        ),
    }
    for name, (text, message) in empties.items():
        code, out, err = run(capsys, "decompose", write(tmp_path, name, text))
        assert (code, out) == (4, "")
        assert message in err

    jobs = tmp_path / "jobs"
    jobs.mkdir()
    for name, (text, _) in empties.items():
        (jobs / name).write_text(text, encoding="utf-8")
    (jobs / "c.job").write_text(WALL_E6, encoding="utf-8")
    code, out, err = run(capsys, "decompose", "--jobs", str(jobs))
    assert code == 4  # worst exit among the batch
    assert "== c.job" in out and "G_k(S^10)" in out
    assert err.count("error:") == 2


def test_non_utf8_job_file_exits_4(tmp_path, capsys):
    bad = tmp_path / "bad.job"
    bad.write_bytes(b"kind: wall\nn: 5\ngroup: E\xff6\n")
    code, out, err = run(capsys, "decompose", str(bad))
    assert code == 4
    assert "bad.job" in err and "UTF-8" in err

    jobs = tmp_path / "jobs"
    jobs.mkdir()
    (jobs / "a_bad.job").write_bytes(bad.read_bytes())
    (jobs / "b_wall.job").write_text(WALL_E6, encoding="utf-8")
    code, out, err = run(capsys, "decompose", "--jobs", str(jobs))
    assert code == 4  # worst exit among the batch
    assert "== b_wall.job" in out and "G_k(S^10)" in out


def test_no_file_and_no_jobs_exits_4(capsys):
    code, out, err = run(capsys, "decompose")
    assert code == 4


def test_file_and_jobs_together_exits_4(tmp_path, capsys, monkeypatch):
    samples = Path(__file__).resolve().parents[1] / "sample_jobs"
    both = ("decompose", str(samples / "wall_e6.job"), "--jobs", str(samples))
    error = "error: give exactly one of a job file and --jobs DIR\n"
    assert run(capsys, *both) == (4, "", error)
    assert run(capsys, "decompose") == (4, "", error)
    # the tables load first, so their error still comes before this one
    monkeypatch.setenv("GAUGEKIT_TABLES", str(tmp_path / "missing"))
    code, out, err = run(capsys, *both)
    assert code == 4 and out == ""
    assert err.startswith("error: no *.tbl table files")


def test_tables_env_override(tmp_path, capsys, monkeypatch):
    tables_dir = tmp_path / "tables"
    tables_dir.mkdir()
    (tables_dir / "only.tbl").write_text(
        "groups: Gv\nGv, -, 1..40, 0, -, -, synthetic\n", encoding="utf-8"
    )
    monkeypatch.setenv("GAUGEKIT_TABLES", str(tables_dir))
    path = write(tmp_path, "wall.job", WALL_E6)
    code, out, err = run(capsys, "decompose", path)
    assert code == 3  # E6 is unknown to the override tables
    job2 = write(tmp_path, "wall_gv.job", "kind: wall\nn: 5\nm: 1\nchi: 0\ngroup: Gv\n")
    code, out, err = run(capsys, "decompose", job2)
    assert code == 0
    assert "G_alpha(S^10) x Omega^5 Gv" in out


def test_malformed_table_record_exits_4(tmp_path, capsys, monkeypatch):
    tables_dir = tmp_path / "tables"
    tables_dir.mkdir()
    (tables_dir / "bad.tbl").write_text("# synthetic\nE6, -, 9, 1, -, r >, x\n", encoding="utf-8")
    monkeypatch.setenv("GAUGEKIT_TABLES", str(tables_dir))
    path = write(tmp_path, "wall.job", WALL_E6)
    code, out, err = run(capsys, "decompose", path)
    assert code == 4
    assert err.startswith(f"error: {tables_dir / 'bad.tbl'}:2: ")
    assert out == ""


def test_deeply_nested_table_record_exits_4(tmp_path, capsys, monkeypatch):
    tables_dir = tmp_path / "tables"
    tables_dir.mkdir()
    path = write(tmp_path, "wall.job", WALL_E6)
    monkeypatch.setenv("GAUGEKIT_TABLES", str(tables_dir))
    for degree in ("+".join(["q"] * 20000), "-" * 20000 + "q"):
        (tables_dir / "deep.tbl").write_text(f"E6, -, {degree}, 0, -, -, x\n", encoding="utf-8")
        code, out, err = run(capsys, "decompose", path)
        assert code == 4
        assert err == f"error: {tables_dir / 'deep.tbl'}:1: table expression nested too deeply\n"
        assert out == ""


def test_empty_tables_directory_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GAUGEKIT_TABLES", str(tmp_path / "missing"))
    path = write(tmp_path, "wall.job", WALL_E6)
    code, out, err = run(capsys, "decompose", path)
    assert code == 4
    assert "no *.tbl table files" in err


def test_sample_jobs_all_run(capsys):
    samples = Path(__file__).resolve().parents[1] / "sample_jobs"
    for job in sorted(samples.glob("*.job")):
        code, out, err = run(capsys, "decompose", str(job))
        assert code == 0, (job.name, err)


def test_sample_jobs_output_matches_golden(capsys):
    # tests/golden/README.txt records how the golden file was written
    root = Path(__file__).resolve().parents[1]
    runs = []
    for flags in ((), ("--trace",), ("--format", "latex")):
        code, out, err = run(capsys, "decompose", "--jobs", str(root / "sample_jobs"), *flags)
        assert (code, err) == (0, "")
        runs.append(" ".join(("$ gaugekit decompose --jobs sample_jobs",) + flags) + "\n" + out)
    golden = root / "tests" / "golden" / "sample_jobs.txt"
    assert "".join(runs) == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_exits_141_without_a_traceback(unbuffered):
    # the reader is gone before the first write: a print (unbuffered) or the
    # final flush (buffered) meets the closed pipe
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONUNBUFFERED": unbuffered}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "gaugekit.cli", "decompose", "--jobs", "sample_jobs", "--trace"],
            cwd=root, env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


COMPLEX_2COL_JOB = """\
kind: complex
n: 6
m: 2
moduli: 2 4
B:
1 2
0 3
group: E7
"""

_RESIDUES = "(values must be given as reduced residues)"

# the job file checks syntax, counts and reduced residues; the model types
# check the rest, and their texts reach the user unchanged
MALFORMED = {
    **{
        f"wall n {n}": (WALL_E6.replace("n: 5", f"n: {n}"), f"wall manifolds need n >= 2, got {n}")
        for n in (1, 0, -3)
    },
    **{
        f"wall m {m}": (WALL_E6.replace("m: 3", f"m: {m}"), f"rank m must be >= 1, got {m}")
        for m in (0, -1)
    },
    "wall chi count": (
        WALL_E6.replace("chi: 0 0 0", "chi: 0 0"),
        "chi must list exactly m=3 residues, got 2",
    ),
    "wall chi out of range": (
        WALL_BAD_CHI,
        f"chi entry 240 is out of range for modulus 240 {_RESIDUES}",
    ),
    "wall chi negative": (
        WALL_BAD_CHI.replace("240 80", "-1 80"),
        f"chi entry -1 is out of range for modulus 240 {_RESIDUES}",
    ),
    "wall chi not an integer": (
        WALL_E6.replace("chi: 0 0 0", "chi: 0 x 0"),
        "chi entries must be integers",
    ),
    "complex moduli not a chain": (
        COMPLEX_2COL_JOB.replace("moduli: 2 4", "moduli: 2 3"),
        "moduli must form a divisibility chain, got [2, 3]",
    ),
    "complex moduli zero": (
        COMPLEX_JOB.replace("moduli: 24", "moduli: 0"),
        "column moduli must be positive",
    ),
    "complex moduli negative": (
        COMPLEX_JOB.replace("moduli: 24", "moduli: -2"),
        "column moduli must be positive",
    ),
    "complex moduli empty": (
        "kind: complex\nn: 6\nm: 1\nmoduli: ,\nB:\n1\ngroup: E7\n",
        "B must be 1x0 (one column per modulus)",
    ),
    "complex B shape": (
        COMPLEX_JOB.replace("B:\n2\n3\n0\n", "B:\n2\n3\n"),
        "B must be 3x1 (one column per modulus)",
    ),
    "complex B out of range": (
        COMPLEX_JOB.replace("B:\n2\n3\n", "B:\n2\n24\n"),
        f"B entry 24 is out of range for its column modulus 24 {_RESIDUES}",
    ),
    "complex m 0": (
        COMPLEX_JOB.replace("m: 3", "m: 0"),
        "B must be 0x1 (one column per modulus)",
    ),
    "n2 C not bits": (N2_JOB.replace("1 0 0 0\n", "2 0 0 0\n"), "entries must be bits, got 2"),
    "n2 C shape": (N2_JOB.replace("0 1 0 0\n", "0 1 0\n"), "C must be an 4x4 bit matrix"),
    "n2 n 5": (N2_JOB.replace("n: 6", "n: 5"), "only n = 6 and n = 8 are supported, got n=5"),
    "n2 top sphere at n 6": (
        N2_JOB.replace("sigma_f_case: null", "sigma_f_case: in_top_sphere"),
        "the in_top_sphere case exists only for n = 8 (the 12-dimensional theorem has four cases)",
    ),
    "bundle q 0": (BUNDLE_JOB.replace("q: 5", "q: 0"), "need fibre and base dimensions >= 1"),
    # a sphere is not a structure group
    "bundle group S^5": (
        "kind: sphere_bundle\nq: 7\nn: 5\nhas_section: yes\ngroup: S^5\n",
        "group must be a Lie group name NAME or NAME(INT), got 'S^5'",
    ),
    "wall group S^3": (
        WALL_E6.replace("group: E6", "group: S^3"),
        "group must be a Lie group name NAME or NAME(INT), got 'S^3'",
    ),
}


@pytest.mark.parametrize("text, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_job_exits_4_with_its_message(tmp_path, capsys, text, message):
    path = write(tmp_path, "bad.job", text)
    assert run(capsys, "decompose", path) == (4, "", f"error: {path}: {message}\n")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: chi_modulus(1), "wall manifolds need n >= 2, got 1"),
        (lambda: WallManifold.of(0, [0]), "wall manifolds need n >= 2, got 0"),
        (
            lambda: AttachingMatrix.from_rows([[0, 0]], [2, 3]),
            "moduli must form a divisibility chain, got [2, 3]",
        ),
        (lambda: AttachingMatrix.from_rows([[0]], [0]), "column moduli must be positive"),
        (lambda: F2Matrix.from_rows([[2]]), "entries must be bits, got 2"),
    ],
    ids=["chi_modulus", "WallManifold", "AttachingMatrix chain", "AttachingMatrix zero", "F2Matrix"],
)
def test_model_types_raise_the_job_file_texts(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_large_prime_localize_away_exits_0_promptly(tmp_path):
    path = write(tmp_path, "big.job", WALL_E6 + "localize_away: 1000000000000000003\n")
    statement = f"import gaugekit.cli; assert gaugekit.cli.main(['decompose', {str(path)!r}]) == 0"
    assert seconds_in_fresh_interpreter(statement) < 1.0


def test_complex_job_on_a_huge_modulus_exits_0_promptly(tmp_path):
    # row 2 is a huge multiple of row 1, and the pivot 3 has a huge inverse
    job = COMPLEX_JOB.replace("moduli: 24", "moduli: 1099511627776").replace(
        "B:\n2\n3\n", "B:\n3\n1099511627775\n"
    )
    path = write(tmp_path, "huge.job", job)
    statement = f"import gaugekit.cli; assert gaugekit.cli.main(['decompose', {str(path)!r}]) == 0"
    assert seconds_in_fresh_interpreter(statement) < 1.0


def test_wall_job_on_a_large_n_exits_3_promptly(tmp_path):
    # chi_modulus(2000) needs bernoulli(500) while the job is parsed;
    # pi_1999(E8) is not tabulated
    path = write(tmp_path, "n2000.job", "kind: wall\nn: 2000\nm: 1\nchi: 0\ngroup: E8\n")
    statement = f"import gaugekit.cli; assert gaugekit.cli.main(['decompose', {str(path)!r}]) == 3"
    assert seconds_in_fresh_interpreter(statement) < 2.0


def _job_file_accepts_group(name: str) -> bool:
    try:
        parse_job_text(BUNDLE_JOB.replace("group: E6", f"group: {name}"))
    except SchemaError as exc:
        assert str(exc).startswith("group must be a Lie group name"), exc
        return False
    return True


def _parses_as_that_group(name: str) -> bool:
    try:
        return parse(name) == LieGroup(name)
    except ValueError:  # a ParseError, or LieGroup rejecting the name
        return False


def test_job_file_accepts_a_group_exactly_when_the_parser_reads_it_back():
    families = ["E6", "E7", "E8", "S", "S^n", "SCP2^k", "Sp", "Spin", "Sp(3)", "Spin(11)"]
    # names and labels that once rendered text that does not parse back
    found = ["Sp( 3)", "G_k", "mod", "k x", "1", "a]b"]
    rng = random.Random(20181)
    words = {"".join(rng.choices(NAME_PIECES, k=rng.randint(1, 5))).strip() for _ in range(3000)}
    names = families + found + sorted(w for w in words if w)
    verdicts = {name: _job_file_accepts_group(name) for name in names}
    assert verdicts == {name: _parses_as_that_group(name) for name in names}
    assert [name for name in families + found if not verdicts[name]] == [
        "S^n", "SCP2^k", "Sp( 3)", "G_k", "mod", "k x", "1", "a]b"
    ]
    assert 300 < sum(verdicts.values()) < len(names) - 300


JOB_CRLF = WALL_E6.replace("\n", "\r\n").encode()


@pytest.mark.parametrize(
    "data",
    [
        JOB_CRLF,
        WALL_E6.replace("\n", "\r").encode(),
        WALL_E6.rstrip("\n").encode(),
        b"kind: wall\r\nn: 5\rm: 3\n\r\nchi: 0 0 0\r\r\ngroup: E6\x0cformat: text",
    ],
    ids=["CRLF", "lone CR", "no trailing newline", "mixed line ends"],
)
def test_job_file_line_ends_read_as_newlines(tmp_path, data):
    path = tmp_path / "wall.job"
    path.write_bytes(data)
    assert parse_job_file(path) == parse_job_file(str(path)) == parse_job_text(WALL_E6)


def test_job_file_with_a_byte_order_mark_misses_its_first_key(tmp_path):
    # the UTF-8 decoder keeps the mark, so the first key reads '\ufeffkind'
    path = tmp_path / "bom.job"
    path.write_bytes(b"\xef\xbb\xbf" + WALL_E6.encode())
    with pytest.raises(SchemaError, match="^missing required key 'kind'$"):
        parse_job_file(path)


def test_non_utf8_offset_counts_from_the_start_of_the_file(tmp_path):
    # past the first 8 KiB, and after CRLF line ends that text mode would fold
    head = JOB_CRLF + b"# " + b"\r\n#" * 3000
    path = tmp_path / "late.job"
    path.write_bytes(head + b"\xc3\n")
    with pytest.raises(SchemaError) as info:
        parse_job_file(path)
    assert len(head) > 8192
    assert str(info.value) == f"not UTF-8 text (invalid continuation byte at byte {len(head)})"

