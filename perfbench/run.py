"""Benchmark of balanced-spectra: four workloads, end-to-end and per-layer.

Run from the repository root:

    python3 perfbench/run.py --workload esd [--seed N] [--seconds S] [--trace 0|1]

Workloads (the reasons are in BENCHMARK.json and perfbench/design.json):

* ``esd``       ``simulate --kind bt --n 400 --reps 15 --dist normal --bins 61``
* ``limit-mc``  ``limit --kind bt --k 2 --method mc-ladder``
* ``oracle``    ``finite_n_word_moment`` over the 15 k=3 words, Hankel, n=36
* ``selfcheck`` ``verify --suite all``

The runner clears the BLAS/OpenMP thread variables and
``BALANCED_SPECTRA_THREADS``, so the program's own default threading is what is
measured.  ``esd`` passes ``--threads 2`` (= nproc).  ``limit-mc`` passes
``--threads 1``: with 2 workers each pass took 2.9-7.3 s on a 2-CPU machine,
in two clusters that last tens of seconds, so no median over one run was
steady; one worker with default OpenBLAS threads still burns about two CPUs,
which cpu_s/wall_s shows.  Every pass is a fresh interpreter; its wall time,
CPU time and peak RSS cover its whole process tree (``wait4``).

``--trace 0`` repeats the untraced pass for ``--seconds`` and reports medians
of the end-to-end metrics.  Passes 0 and 1 use the workload seed, pass j >= 2
uses seed + j - 1, so the Monte Carlo error bar in ``tta_s`` is pooled over
several seeds while passes 0 and 1 still show that one seed gives identical
output.  ``--trace 1`` alternates untraced and traced passes (``job.py
--spans``) on the workload seed and reports the per-layer metrics, medians over
the traced passes, plus the trace overhead.

Every output is checked (``checks.py``); a pass fails when its exit code, its
check, or its byte-identity with an earlier pass of the same seed fails.  The
last line of stdout is the JSON result; a full record goes to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layers

HERE = Path(__file__).resolve().parent
PASS_TIMEOUT_S = 120.0
MAX_MEASURE_S = 100.0  # no new pass after this, so a run ends within 180 s
SETUP_PROBES = 9
MIN_PASSES = 3
TTA_TARGET = 0.01
THREAD_VARS = (
    "BALANCED_SPECTRA_THREADS",
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
ESD = {"kind": "bt", "n": 400, "reps": 15, "dist": "normal", "bins": 61}
LIMIT = {"kind": "bt", "k": 2}


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int | None  # None: the program takes no seed
    result_files: tuple[str, ...] = ()

    def cli_args(self, seed: int | None, out: Path) -> list[str] | None:
        """CLI arguments, or None for the library-API workload."""
        if self.name == "esd":
            return [
                "simulate", "--kind", ESD["kind"], "--n", str(ESD["n"]), "--reps", str(ESD["reps"]),
                "--dist", ESD["dist"], "--seed", str(seed), "--bins", str(ESD["bins"]),
                "--threads", "2", "--out", str(out),
            ]
        if self.name == "limit-mc":
            return [
                "limit", "--kind", LIMIT["kind"], "--k", str(LIMIT["k"]), "--method", "mc-ladder",
                "--seed", str(seed), "--threads", "1",
            ]
        if self.name == "selfcheck":
            return ["verify", "--suite", "all"]
        return None

    def argv(self, seed: int | None, out: Path, spans: Path | None = None) -> list[str]:
        args = self.cli_args(seed, out)
        job = [sys.executable, str(HERE / "job.py")] + (["--spans", str(spans)] if spans else [])
        if args is None:
            return job + ["oracle"]
        if spans is None:
            return [sys.executable, "-m", "balanced_spectra", *args]
        return job + ["cli", *args]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("esd", 42, ("eigenvalues.csv", "histogram.csv", "histogram.svg", "manifest.json")),
        Workload("limit-mc", 7),
        Workload("oracle", None),
        Workload("selfcheck", None),
    )
}
# the manifest records wall times, so it is the one result file allowed to differ
UNSTABLE_FILES = {"manifest.json"}


@dataclass
class Pass:
    seed: int | None
    traced: bool
    wall: float
    cpu: float
    rss_mb: float
    returncode: int
    stdout: bytes
    files: dict[str, bytes]
    spans: list[dict] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def fingerprint(self) -> str:
        h = hashlib.sha256(self.stdout)
        for name in sorted(self.files):
            if name not in UNSTABLE_FILES:
                h.update(name.encode() + b"\0" + self.files[name])
        return h.hexdigest()


class Runner:
    """Spawns passes in fresh interpreters and measures each process tree."""

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.out = workdir / "out"
        self.env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["TMPDIR"] = str(workdir / "tmp")
        (workdir / "tmp").mkdir(parents=True, exist_ok=True)

    def spawn(self, argv: list[str]) -> tuple[float, float, float, int, bytes]:
        """Run ``argv``; return wall s, tree CPU s, tree peak RSS MB, exit code, stdout."""
        stdout_path = self.workdir / "stdout"
        with open(stdout_path, "wb") as out, open(self.workdir / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL, start_new_session=True)
            watchdog = threading.Timer(PASS_TIMEOUT_S, _kill_tree, (proc.pid,))
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted (SIGTERM, Ctrl-C): leave no process behind
                _kill_tree(proc.pid)
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_tree(proc.pid)  # pool workers a crashed pass may have left
        cpu = usage.ru_utime + usage.ru_stime
        return wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode, stdout_path.read_bytes()

    def setup_time(self) -> float:
        """Interpreter start to package imported, in a fresh process."""
        wall, _, _, code, _ = self.spawn([sys.executable, "-c", "import balanced_spectra.cli"])
        if code != 0:
            raise SystemExit("perfbench: importing balanced_spectra failed")
        return wall

    def run_pass(self, workload: Workload, seed: int | None, spans_path: Path | None = None) -> Pass:
        shutil.rmtree(self.out, ignore_errors=True)
        wall, cpu, rss, code, stdout = self.spawn(workload.argv(seed, self.out, spans_path))
        files = {name: (self.out / name).read_bytes() for name in workload.result_files if (self.out / name).exists()}
        p = Pass(seed, spans_path is not None, wall, cpu, rss, code, stdout, files)
        if spans_path is not None and spans_path.exists():
            p.spans = json.loads(spans_path.read_text())["spans"]
            spans_path.unlink()
        return p


def _kill_tree(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def check_passes(workload: Workload, passes: list[Pass]) -> None:
    """Fill each pass's failures: exit code, output check, byte identity per seed."""
    reference = None
    if workload.name == "limit-mc":
        reference = checks.limit_reference(LIMIT["k"], LIMIT["kind"])
    baseline = None
    if workload.name == "oracle":
        baseline = json.loads((HERE / "baseline.json").read_text())["oracle_values"]
    first_of_seed: dict[int | None, Pass] = {}
    for p in passes:
        if p.returncode != 0 and workload.name != "selfcheck":
            p.failures.append(f"{workload.name}: exit code {p.returncode}")
        elif workload.name == "esd":
            p.failures += checks.check_esd(p.files, p.seed, kind=ESD["kind"], dist=ESD["dist"],
                                           n=ESD["n"], reps=ESD["reps"])
        elif workload.name == "limit-mc":
            p.failures += checks.check_limit(p.stdout, reference)
        elif workload.name == "oracle":
            p.failures += checks.check_oracle(p.stdout, baseline)
        else:
            p.failures += checks.check_selfcheck(p.stdout, p.returncode)
        first = first_of_seed.setdefault(p.seed, p)
        if first is not p and first.fingerprint() != p.fingerprint():
            p.failures.append(f"{workload.name}: output differs from the first pass with seed {p.seed}")


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def end_to_end_metrics(workload: Workload, passes: list[Pass], setup: list[float]) -> dict[str, float]:
    wall = _median([p.wall for p in passes])
    tta = wall
    if workload.name == "limit-mc":
        errors = {}
        for p in passes:
            try:
                errors[p.seed] = checks.parse_limit(p.stdout)[1]
            except (ValueError, KeyError, TypeError):
                continue
        if errors:
            variance = statistics.fmean(se * se for se in errors.values())
            tta = wall * variance / TTA_TARGET**2
    return {
        "wall_s": wall,
        "setup_s": _median(setup),
        "cpu_s": _median([p.cpu for p in passes]),
        "peak_rss_mb": _median([p.rss_mb for p in passes]),
        "tta_s": tta,
    }


def per_layer_metrics(passes: list[Pass]) -> dict[str, float]:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    per_pass = [layers.span_metrics(p.spans, p.wall) for p in traced if p.spans]
    if not per_pass:
        return {}
    metrics = {name: _median([m[name] for m in per_pass]) for name in per_pass[0]}
    metrics.update(layers.work_ratios(traced[0].spans))
    metrics["trace.overhead_frac"] = _median([p.wall for p in traced]) / _median([p.wall for p in plain]) - 1.0
    return metrics


def environment(root: Path) -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps.get(k, {}).get("name") for k in ("blas", "lapack")}
        blas["version"] = deps.get("blas", {}).get("version")
        blas["openblas_configuration"] = deps.get("blas", {}).get("openblas configuration")
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_vars_found": {k: os.environ.get(k) for k in THREAD_VARS},
        "thread_vars_passed": "unset",
        "git_commit": _git_commit(root),
    }


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without asking git (no parent search)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload: Workload, runner: Runner, seed: int | None, seconds: float, trace: int):
    """Passes until ``seconds`` are used; untraced runs interleave set-up probes."""
    setup: list[float] = []
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        if trace:
            passes.append(runner.run_pass(workload, seed))
            passes.append(runner.run_pass(workload, seed, runner.workdir / "spans.json"))
            step = passes[-1].wall + passes[-2].wall
            enough = len(passes) >= 2
        else:
            setup.append(runner.setup_time())
            j = len(passes)
            pass_seed = seed if seed is None or j < 2 else seed + j - 1
            passes.append(runner.run_pass(workload, pass_seed))
            step = passes[-1].wall + setup[-1]
            enough = len(passes) >= MIN_PASSES
        projected = time.perf_counter() - start + step
        if (enough and projected > seconds) or projected > MAX_MEASURE_S:
            break
    while not trace and len(setup) < SETUP_PROBES:
        setup.append(runner.setup_time())
    return setup, passes


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: per workload)")
    parser.add_argument("--seconds", type=float, default=None, help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "balanced_spectra" / "__init__.py").is_file():
        print(f"perfbench: no src/balanced_spectra under {root}; run from the repository root", file=sys.stderr)
        return 2
    if not (root / "BENCHMARK.json").is_file():
        print(f"perfbench: no BENCHMARK.json under {root}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import balanced_spectra

    if Path(balanced_spectra.__file__).resolve().parent != (root / "src" / "balanced_spectra").resolve():
        print(f"perfbench: imported balanced_spectra from {balanced_spectra.__file__}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    seed = None if workload.default_seed is None else (workload.default_seed if args.seed is None else args.seed)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    workdir = root / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        runner = Runner(root, workdir)
        runner.setup_time()  # warm-up: byte-compiles the package, fills the page cache
        setup, passes = measure(workload, runner, seed, seconds, args.trace)
        check_passes(workload, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = per_layer_metrics(passes) if args.trace else end_to_end_metrics(workload, passes, setup)
    if set(values) != set(declared):
        print(f"perfbench: metrics {sorted(set(values) ^ set(declared))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 3
    failed = sum(1 for p in passes if p.failures)
    env = environment(root)
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": args.trace,
        "seconds": seconds,
        "environment": env,
        "setup_s_samples": setup,
        "passes": [
            {"seed": p.seed, "traced": p.traced, "wall_s": p.wall, "cpu_s": p.cpu, "peak_rss_mb": p.rss_mb,
             "returncode": p.returncode, "failures": p.failures}
            for p in passes
        ],
        "metrics": values,
    }
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")

    walls = sorted(p.wall for p in passes)
    print(f"perfbench {workload.name} seed={seed} trace={args.trace} passes={len(passes)} "
          f"failed={failed} failed_frac={failed / len(passes):.4g} (ratio)")
    for p in passes:
        for failure in p.failures:
            print(f"  FAIL {failure}")
    print(f"  pass wall s: min {walls[0]:.4f} median {_median(walls):.4f} max {walls[-1]:.4f}")
    if not args.trace:
        print(f"  cpu_s/wall_s (ratio): {values['cpu_s'] / values['wall_s']:.4g}")
    if workload.name == "limit-mc" and not args.trace:
        errors = sorted({p.seed: checks.parse_limit(p.stdout)[1] for p in passes if not p.failures}.items())
        print("  std_error (1): " + ", ".join(f"seed {s}: {e:.6g}" for s, e in errors))
    for name, unit in declared.items():
        print(f"  {name:32s} {values[name]:.6g} {unit}")
    print("  env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
