"""Tests of the benchmark itself: every output checker flags a corrupted output,
the traced pass sees work done in pool workers, and the metric names the
benchmark prints are exactly those BENCHMARK.json declares.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import layers
import run
from balanced_spectra.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
SMALL_ESD = {"kind": "bt", "dist": "normal", "n": 30, "reps": 3}


def _esd_files(tmp_path: Path) -> dict[str, bytes]:
    out = tmp_path / "esd"
    argv = ["simulate", "--kind", "bt", "--n", "30", "--reps", "3", "--dist", "normal",
            "--seed", "5", "--bins", "11", "--threads", "1", "--out", str(out)]
    assert cli_main(argv) == 0
    return {p.name: p.read_bytes() for p in out.iterdir()}


def _replace_line(data: bytes, index: int, edit) -> bytes:
    lines = data.decode().splitlines()
    cells = lines[index].split(",")
    cells[-1] = repr(edit(float(cells[-1])))
    lines[index] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


def test_esd_check_accepts_program_output(tmp_path):
    assert checks.check_esd(_esd_files(tmp_path), 5, **SMALL_ESD) == []


def test_esd_check_flags_perturbed_eigenvalue(tmp_path):
    files = _esd_files(tmp_path)
    files["eigenvalues.csv"] = _replace_line(files["eigenvalues.csv"], 40, lambda v: v + 1e-6)
    failures = checks.check_esd(files, 5, **SMALL_ESD)
    assert any("realization 1 eigenvalues differ" in f for f in failures)


def test_esd_check_flags_wrong_seed_and_histogram_mass(tmp_path):
    files = _esd_files(tmp_path)
    assert checks.check_esd(files, 6, **SMALL_ESD)
    files["histogram.csv"] = _replace_line(files["histogram.csv"], 5, lambda v: v * 1.001)
    assert any("histogram mass" in f for f in checks.check_esd(files, 5, **SMALL_ESD))


def test_limit_check_against_quadrature():
    reference = checks.limit_reference(2, "bt")
    recorded = json.dumps({"value": 10.822776300100514, "std_error": 0.022420937847629614}).encode()
    assert checks.check_limit(recorded, reference) == []
    shifted = json.dumps({"value": 10.822776300100514 + 0.2, "std_error": 0.022420937847629614}).encode()
    assert checks.check_limit(shifted, reference)
    assert checks.check_limit(json.dumps({"value": reference[0], "std_error": 0.0}).encode(), reference)


def test_oracle_check_flags_changed_word_value():
    baseline = json.loads((ROOT / "perfbench" / "baseline.json").read_text())["oracle_values"]
    assert len(baseline) == 15
    assert checks.check_oracle(json.dumps(baseline).encode(), baseline) == []
    changed = dict(baseline, abcabc=baseline["abcabc"] * (1 + 1e-10))
    assert checks.check_oracle(json.dumps(changed).encode(), baseline) == [
        f"oracle: word abcabc = {changed['abcabc']!r}, recorded {baseline['abcabc']!r}"
    ]
    missing = {k: v for k, v in baseline.items() if k != "aabbcc"}
    assert checks.check_oracle(json.dumps(missing).encode(), baseline)


def test_oracle_values_match_library_on_one_word():
    import balanced_spectra as bs

    baseline = json.loads((ROOT / "perfbench" / "baseline.json").read_text())["oracle_values"]
    value = bs.finite_n_word_moment(bs.Word("abcabc"), bs.MatrixKind.H, 36).value
    assert abs(value - baseline["abcabc"]) <= checks.ORACLE_RTOL * abs(baseline["abcabc"])


GOOD_VERIFY = b"[PASS] inputs: a\n[PASS] words: b\nverify: 2/2 checks passed\n"


@pytest.mark.parametrize(
    "stdout, code",
    [
        (b"[PASS] inputs: a\n[FAIL] words: b  (x)\nverify: 1/2 checks passed\n", 1),
        (b"[PASS] inputs: a\n[FAIL] words: b  (x)\nverify: 2/2 checks passed\n", 0),
        (GOOD_VERIFY, 1),
        (b"[PASS] inputs: a\nverify: 2/2 checks passed\n", 0),
        (b"[PASS] inputs: a\n", 0),
    ],
)
def test_selfcheck_check_flags_failing_verify(stdout, code):
    assert checks.check_selfcheck(GOOD_VERIFY, 0) == []
    assert checks.check_selfcheck(stdout, code)


def _pass(stdout: bytes, seed=None, traced=False, spans=()):
    return run.Pass(seed, traced, 1.0, 1.5, 40.0, 0, stdout, {}, list(spans))


def test_identity_check_flags_differing_pass():
    passes = [_pass(GOOD_VERIFY), _pass(GOOD_VERIFY), _pass(GOOD_VERIFY.replace(b"a\n", b"c\n"))]
    run.check_passes(run.WORKLOADS["selfcheck"], passes)
    assert [bool(p.failures) for p in passes] == [False, False, True]


def _span(sid, parent, name, start, end, pid=1, **attrs):
    return {"id": sid, "parent": parent, "name": name, "run": "t", "pid": pid,
            "start": start, "end": end, "attrs": attrs}


SPANS = [
    _span("r", None, "job.cli", 0.0, 10.0),
    _span("s", "r", "spectra.solve", 0.0, 4.0),
    _span("e1", "s", "eigh.solve", 0.5, 2.5, n=100),
    _span("e2", "s", "eigh.solve", 2.0, 3.0, n=100),
    _span("m", "r", "parallel.map", 4.0, 8.0),
    _span("t1", "m", "parallel.task", 4.0, 8.0, pid=2),
    _span("t2", "m", "parallel.task", 4.0, 6.0, pid=3),
    _span("g", "t1", "limits.rung", 4.0, 7.0, pid=2, word="abab", kind="t", eps=0.2, evals=1000),
    _span("o", "r", "limits.oracle", 8.0, 9.0, word="abab", kind="h", window=[1, 6], assignments=216),
    _span("w1", "r", "persist.write", 9.0, 9.5),
    _span("w2", "w1", "persist.write", 9.1, 9.4, bytes=10),
]


def test_span_metrics_self_time_and_pool():
    m = layers.span_metrics(SPANS, process_wall=12.0)
    assert m["spectra.check_s"] == pytest.approx(4.0 - 2.5)  # children cover 0.5..3.0
    assert m["eigh.gflop"] == pytest.approx(2 * 4 / 3 * 100**3 / 1e9)
    assert m["parallel.workers"] == 2 and m["parallel.tasks"] == 2
    assert m["parallel.efficiency"] == pytest.approx(6.0 / (2 * 4.0))
    assert m["persist.write_s"] == pytest.approx(0.5) and m["persist.bytes"] == 10
    assert m["cli.overhead_s"] == pytest.approx(12.0 - (4 + 4 + 1 + 0.5))


def _kept_by_loop(letters: str, kind: str, n: int) -> int:
    import itertools

    import balanced_spectra as bs

    word = bs.Word(letters)
    forms, _ = bs.linear_forms(word, bs.MatrixKind(kind))
    dependent = layers._dependent(word)
    kept = 0
    for x in itertools.product(range(1, n + 1), repeat=word.k + 1):
        values = [f.evaluate(x) for f in forms]
        kept += values[-1] == x[0] and all(1 <= values[i] <= n for i in dependent)
    return kept


def test_work_ratios_count_outside_the_program():
    ratios = layers.work_ratios(SPANS)
    assert 0.0 < ratios["limits.mc_accept_frac"] < 1.0
    assert ratios["limits.oracle_kept_frac"] == _kept_by_loop("abab", "h", 6) / 216
    for letters, kind in (("aa", "t"), ("abab", "h"), ("abcacb", "t")):
        assert layers.kept_assignments(letters, kind, (1, 5)) == _kept_by_loop(letters, kind, 5)


def _declared(section: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[section]}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_printed_metric_names_match_benchmark_json(name):
    limit_out = json.dumps({"value": 10.8, "std_error": 0.02}).encode()
    passes = [_pass(limit_out, seed=s) for s in (7, 7, 8)]
    e2e = run.end_to_end_metrics(run.WORKLOADS[name], passes, [0.3, 0.31])
    assert set(e2e) == _declared("end_to_end")
    assert all(v > 0 for v in e2e.values())
    traced = [_pass(b""), _pass(b"", traced=True, spans=SPANS)]
    assert set(run.per_layer_metrics(traced)) == _declared("per_layer")


def test_traced_pass_collects_worker_spans(tmp_path):
    spans_path = tmp_path / "spans.json"
    argv = [sys.executable, str(ROOT / "perfbench" / "job.py"), "--spans", str(spans_path), "cli",
            "simulate", "--kind", "bh", "--n", "24", "--reps", "4", "--seed", "3", "--threads", "2",
            "--out", str(tmp_path / "out")]
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    subprocess.run(argv, check=True, env=env, capture_output=True, timeout=120)
    spans = json.loads(spans_path.read_text())["spans"]
    m = layers.span_metrics(spans, process_wall=10.0)
    assert m["eigh.solves"] == 4 and m["parallel.tasks"] == 4
    assert m["eigh.tridiag_s"] + m["eigh.ql_s"] <= m["spectra.solve_s"]
    assert m["persist.bytes"] > 0 and m["render.svg_s"] > 0
    root = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in root] == ["job.cli"]


def _run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_benchmark_prints_declared_metrics(trace):
    proc = _run_benchmark(ROOT, "--workload", "selfcheck", "--seed", "3", "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec[section]}


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_benchmark(tmp_path, "--workload", "esd", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
