import concurrent.futures
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from balanced_spectra import experiments
from balanced_spectra.errors import InvalidArgumentError, ResourceLimitError
from balanced_spectra.experiments import simulate_spectra, trace_moment_samples
from balanced_spectra.inputs import Distribution
from balanced_spectra.matgen import MatrixKind
from balanced_spectra.parallel import parallel_map, resolve_workers
from balanced_spectra.persist import format_float, write_csv, write_json
from balanced_spectra.render import histogram_svg
from balanced_spectra.spectra import pooled_histogram


def test_simulate_spectra_deterministic_and_metadata():
    a = simulate_spectra(MatrixKind.BT, Distribution.STANDARD_NORMAL, 40, 3, 9, threads=1)
    b = simulate_spectra(MatrixKind.BT, Distribution.STANDARD_NORMAL, 40, 3, 9, threads=1)
    assert len(a) == 3
    for s1, s2 in zip(a, b):
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert [s.source["realization"] for s in a] == [0, 1, 2]
    assert len({s.source["seed"] for s in a}) == 3


def test_simulate_spectra_pool_matches_serial():
    ser = simulate_spectra(MatrixKind.BH, Distribution.RADEMACHER, 30, 4, 5, threads=1)
    par = simulate_spectra(MatrixKind.BH, Distribution.RADEMACHER, 30, 4, 5, threads=2)
    for s1, s2 in zip(ser, par):
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
        # a spectrum unpickled from a worker is as read-only as a serial one
        assert not s1.eigenvalues.flags.writeable and not s2.eigenvalues.flags.writeable


def test_simulate_spectra_eps_trims():
    spectra = simulate_spectra(MatrixKind.BT, Distribution.STANDARD_NORMAL, 40, 2, 3, eps=0.1, threads=1)
    assert all(s.n == 36 for s in spectra)
    assert all(s.source["eps"] == 0.1 for s in spectra)


BT, NORMAL = MatrixKind.BT, Distribution.STANDARD_NORMAL


@pytest.mark.parametrize(
    "run, error",
    [
        (lambda: simulate_spectra(BT, NORMAL, 40, 2, 1, eps=-0.5, threads=2), InvalidArgumentError),
        (lambda: simulate_spectra(BT, NORMAL, 40, 2, 1, eps=math.nan, threads=2), InvalidArgumentError),
        (lambda: simulate_spectra(MatrixKind.T, NORMAL, 40, 2, 1, eps=0.1, threads=2), InvalidArgumentError),
        (lambda: simulate_spectra(MatrixKind.BH, NORMAL, 2, 2, 1, eps=0.9999999999, threads=2), InvalidArgumentError),
        (lambda: trace_moment_samples(BT, NORMAL, 40, 2, 1, 2, eps=-0.5, threads=2), InvalidArgumentError),
        (lambda: trace_moment_samples(BT, NORMAL, 20_000, 2, 1, 2, threads=2), ResourceLimitError),
        (lambda: trace_moment_samples(BT, NORMAL, 40, 2, 1, 2.5, threads=2), InvalidArgumentError),
        (lambda: trace_moment_samples(BT, NORMAL, 40, 2, 1, 0, threads=2), InvalidArgumentError),
    ],
    ids=["eps-negative", "eps-nan", "eps-on-t", "eps-empty-window", "trace-eps-negative", "trace-over-budget",
         "trace-power-2.5", "trace-power-0"],
)
def test_realization_request_refused_before_any_draw(monkeypatch, run, error):
    # each used to reach the worker pool, or to return untrimmed spectra
    def no_work(*args, **kwargs):
        raise AssertionError("a bad realization request must be refused before any draw or worker")

    monkeypatch.setattr(experiments, "parallel_map", no_work)
    monkeypatch.setattr(experiments, "generate_sequence", no_work)
    with pytest.raises(error):
        run()


def test_trace_moment_samples_shape_and_determinism():
    a = trace_moment_samples(MatrixKind.BT, Distribution.RADEMACHER, 50, 8, 7, 2, threads=1)
    b = trace_moment_samples(MatrixKind.BT, Distribution.RADEMACHER, 50, 8, 7, 2, threads=2)
    assert a.shape == (8,)
    assert np.array_equal(a, b)
    # rademacher second trace moment is deterministic
    assert np.allclose(a, (2 * 50 - 1) / 50, atol=1e-12)


def test_parallel_map_order_and_fallback(monkeypatch):
    items = list(range(20))
    expected = [str(i) for i in items]
    assert parallel_map(str, items, workers=1) == expected
    assert parallel_map(str, items, workers=2) == expected
    # a callable that cannot cross a process boundary is an error, not a silent serial run
    with pytest.raises((pickle.PicklingError, AttributeError)):
        parallel_map(lambda x: x * 2, items, workers=2)

    # a sandbox that refuses to start the pool still gets the serial loop
    def refuse(*args, **kwargs):
        raise OSError("fork refused")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    assert parallel_map(str, items, workers=2) == expected


def test_resolve_workers_env(monkeypatch):
    monkeypatch.setenv("BALANCED_SPECTRA_THREADS", "3")
    assert resolve_workers() == 3
    assert resolve_workers(5) == 5
    monkeypatch.setenv("BALANCED_SPECTRA_THREADS", "zebra")
    with pytest.raises(InvalidArgumentError):
        resolve_workers()
    monkeypatch.setenv("BALANCED_SPECTRA_THREADS", "0")
    with pytest.raises(InvalidArgumentError):
        resolve_workers()
    with pytest.raises(InvalidArgumentError):
        resolve_workers(0)


def test_resolve_workers_defaults_to_usable_cpus(monkeypatch):
    monkeypatch.delenv("BALANCED_SPECTRA_THREADS", raising=False)
    # a taskset/cpuset mask of 2 CPUs on a 64-CPU machine forks 2 workers, not 64
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 7}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert resolve_workers() == 2
    # without an affinity call (macOS, Windows) the core count is the fallback
    monkeypatch.delattr(os, "sched_getaffinity")
    assert resolve_workers() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert resolve_workers() == 1


def _run_fresh(code: str, preset: str | None) -> str:
    """Stdout of ``code`` in a fresh interpreter that imports the package from src/."""
    env = {"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"), "PATH": "/usr/bin:/bin"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return result.stdout.strip()


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_import_sets_openblas_num_threads(preset, expected):
    code = "import os, balanced_spectra; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _run_fresh(code, preset) == expected


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the thread count from /proc")
@pytest.mark.parametrize("preset, expected", [(None, 1), ("2", 2)])
def test_eigensolve_process_is_one_thread(preset, expected):
    # counts the threads OpenBLAS actually started, not the variable: the
    # preset case reads 2, so a default that came too late would fail here
    if expected > 1 and len(os.sched_getaffinity(0)) < expected:
        pytest.skip("OpenBLAS caps its threads at the usable CPUs")
    code = (
        "import pathlib, balanced_spectra, numpy as np\n"
        "try:\n"
        "    blas = np.show_config(mode='dicts')['Build Dependencies']['blas']['name']\n"
        "except TypeError:  # numpy < 1.26 has no dict form; its wheels bundle OpenBLAS\n"
        "    blas = 'openblas'\n"
        "np.linalg.eigvalsh(np.random.default_rng(0).standard_normal((200, 200)))\n"
        "status = pathlib.Path('/proc/self/status').read_text().split()\n"
        "print(blas, status[status.index('Threads:') + 1])\n"
    )
    blas, threads = _run_fresh(code, preset).split()
    if "openblas" not in blas:
        pytest.skip(f"numpy is built against {blas}, not OpenBLAS")
    assert int(threads) == expected


def test_format_float_round_trip():
    for x in (1 / 3, 2.0, 1e-17, -123.456789012345678, 0.1):
        assert float(format_float(x)) == x


def test_write_csv_and_json(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [(1, 0.5), (2, 1 / 3)])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "a,b"
    assert float(lines[2].split(",")[1]) == 1 / 3
    jpath = tmp_path / "t.json"
    write_json(jpath, {"b": 1, "a": [1.5, "x"]})
    text = jpath.read_text()
    assert text.index('"a"') < text.index('"b"')  # sorted keys


def test_histogram_svg_structure():
    spectra = simulate_spectra(MatrixKind.BT, Distribution.STANDARD_NORMAL, 30, 2, 1, threads=1)
    hist = pooled_histogram(spectra, bins=11)
    svg = histogram_svg(hist, title="demo")
    assert svg.startswith("<svg")
    assert svg.count("<rect") >= 2  # background plus at least one bar
    assert "demo" in svg
    assert histogram_svg(hist, title="demo") == svg
