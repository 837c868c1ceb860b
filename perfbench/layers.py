"""Per-layer metrics from the spans of one traced pass.

Times are totals over the pass, summed across processes, so a layer's share
of the work reads directly.  A span nested directly in a span of the same name
(``write_csv`` around ``atomic_write_text``) is not counted twice.  Self time
is a span's duration minus the part of it that its child spans cover.

The useful-work ratios are counted outside any timed region, from the public
``linear_forms``/``form_matrix``: ``mc_accept_frac`` by sampling each rung's
box, ``oracle_kept_frac`` by enumerating each oracle call's assignments.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

ACCEPT_SAMPLES = 200_000
_ENUM_CHUNK = 1 << 20


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class SpanSet:
    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        self.children = defaultdict(list)
        for s in spans:
            self.children[s["parent"]].append(s)

    def named(self, name: str, method: str | None = None) -> list[dict]:
        out = []
        for s in self.spans:
            if s["name"] != name:
                continue
            parent = self.by_id.get(s["parent"])
            if parent is not None and parent["name"] == name:
                continue
            if method is not None and s.get("attrs", {}).get("method") != method:
                continue
            out.append(s)
        return out

    def total(self, name: str, method: str | None = None) -> float:
        return sum(_duration(s) for s in self.named(name, method))

    def self_time(self, span: dict) -> float:
        kids = [(c["start"], c["end"]) for c in self.children[span["id"]]]
        return _duration(span) - _covered(kids, span["start"], span["end"])

    def attr_sum(self, name: str, key: str) -> float:
        return sum(s.get("attrs", {}).get(key, 0) for s in self.named(name))


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def span_metrics(spans: list[dict], process_wall: float) -> dict[str, float]:
    """Every per-layer metric the spans give by themselves."""
    ss = SpanSet(spans)
    m: dict[str, float] = {}

    solves = ss.named("eigh.solve")
    m["eigh.tridiag_s"] = ss.total("eigh.tridiag")
    m["eigh.ql_s"] = ss.total("eigh.ql")
    m["eigh.solves"] = len(solves)
    m["eigh.gflop"] = sum(4.0 / 3.0 * s["attrs"]["n"] ** 3 for s in solves) / 1e9
    m["eigh.gflop_per_s"] = _ratio(m["eigh.gflop"], ss.total("eigh.solve"))

    m["spectra.solve_s"] = ss.total("spectra.solve")
    m["spectra.check_s"] = sum(ss.self_time(s) for s in ss.named("spectra.solve"))
    m["spectra.histogram_s"] = ss.total("spectra.histogram")
    m["spectra.levy_s"] = ss.total("spectra.levy")

    m["inputs.generate_s"] = ss.total("inputs.generate")
    m["matgen.build_s"] = ss.total("matgen.build")
    m["experiments.simulate_s"] = ss.total("experiments.simulate")

    maps = ss.named("parallel.map")
    tasks = ss.named("parallel.task")
    busy = sum(_duration(t) for t in tasks)
    capacity = 0.0
    workers = 0
    for mp in maps:
        pids = {t["pid"] for t in ss.children[mp["id"]] if t["name"] == "parallel.task"}
        capacity += len(pids) * _duration(mp)
        workers = max(workers, len(pids))
    m["parallel.map_s"] = sum(_duration(mp) for mp in maps)
    m["parallel.task_s"] = busy
    m["parallel.efficiency"] = _ratio(busy, capacity)
    m["parallel.tasks"] = len(tasks)
    m["parallel.workers"] = workers

    m["limits.word_s"] = ss.total("limits.word", "mc-ladder")
    m["limits.rung_s"] = ss.total("limits.rung")
    m["limits.mc_evals"] = ss.attr_sum("limits.rung", "evals")
    m["limits.mc_evals_per_s"] = _ratio(m["limits.mc_evals"], m["limits.rung_s"])
    m["limits.oracle_word_s"] = ss.total("limits.oracle")
    m["limits.oracle_assignments"] = ss.attr_sum("limits.oracle", "assignments")
    m["limits.oracle_assignments_per_s"] = _ratio(m["limits.oracle_assignments"], m["limits.oracle_word_s"])
    m["limits.quad_word_s"] = ss.total("limits.word", "quadrature") + ss.total("limits.truncated", "quadrature")
    m["limits.std_error"] = math.sqrt(sum(s["attrs"]["std_error"] ** 2 for s in ss.named("limits.moment")))

    m["words.enumerate_s"] = ss.total("words.enumerate")
    m["words.forms_s"] = ss.total("words.forms")
    for suite in ("inputs", "matgen", "words", "spectra", "limits"):
        m[f"verify.{suite}_s"] = ss.total(f"verify.{suite}")

    m["persist.write_s"] = ss.total("persist.write")
    m["persist.bytes"] = sum(s.get("attrs", {}).get("bytes", 0) for s in ss.spans if s["name"] == "persist.write")
    m["render.svg_s"] = ss.total("render.svg")

    roots = [s for s in spans if s["parent"] is None]
    library = sum(_duration(c) for r in roots for c in ss.children[r["id"]])
    m["cli.overhead_s"] = process_wall - library
    return m


def _box(kind: str, eps: float) -> tuple[float, float]:
    return (0.0, 1.0 - eps) if kind == "t" else (eps / 2.0, 1.0 - eps / 2.0)


def _dependent(word) -> list[int]:
    import balanced_spectra as bs

    generating = set(bs.generating_vertices(word))
    return [i for i in range(1, word.length) if i not in generating]


def accept_fraction(letters: str, kind: str, eps: float, samples: int = ACCEPT_SAMPLES) -> float:
    """Share of uniform points of the eps-box whose dependent forms stay in the box."""
    import balanced_spectra as bs

    word = bs.Word(letters)
    forms, _ = bs.linear_forms(word, bs.MatrixKind(kind))
    coeffs = bs.words.form_matrix(forms).astype(np.float64)
    lo, hi = _box(kind, eps)
    rng = np.random.default_rng(0)
    x = rng.uniform(lo, hi, size=(samples, word.k + 1))
    vals = x @ coeffs[_dependent(word)].T
    return float(np.mean(np.all((vals >= lo) & (vals <= hi), axis=1)))


def kept_assignments(letters: str, kind: str, window: tuple[int, int]) -> int:
    """Assignments over the window that close the walk and keep every vertex in it."""
    import balanced_spectra as bs

    word = bs.Word(letters)
    forms, _ = bs.linear_forms(word, bs.MatrixKind(kind))
    coeffs = bs.words.form_matrix(forms)
    lo, hi = window
    win = hi - lo + 1
    dims = (win,) * (word.k + 1)
    dependent = _dependent(word)
    total = win ** (word.k + 1)
    kept = 0
    for start in range(0, total, _ENUM_CHUNK):
        flat = np.arange(start, min(start + _ENUM_CHUNK, total))
        x = np.column_stack(np.unravel_index(flat, dims)) + lo
        keep = (x @ coeffs[-1]) == x[:, 0]
        for i in dependent:
            li = x @ coeffs[i]
            keep &= (li >= lo) & (li <= hi)
        kept += int(np.count_nonzero(keep))
    return kept


def work_ratios(spans: list[dict]) -> dict[str, float]:
    """``mc_accept_frac`` and ``oracle_kept_frac``, weighted by work done."""
    ss = SpanSet(spans)
    accepted = evals = 0.0
    cache: dict[tuple, float] = {}
    for s in ss.named("limits.rung"):
        a = s["attrs"]
        key = (a["word"], a["kind"], a["eps"])
        if key not in cache:
            cache[key] = accept_fraction(*key)
        accepted += cache[key] * a["evals"]
        evals += a["evals"]
    kept = assignments = 0
    counted: dict[tuple, int] = {}
    for s in ss.named("limits.oracle"):
        a = s["attrs"]
        key = (a["word"], a["kind"], tuple(a["window"]))
        if key not in counted:
            counted[key] = kept_assignments(*key)
        kept += counted[key]
        assignments += a["assignments"]
    return {
        "limits.mc_accept_frac": _ratio(accepted, evals),
        "limits.oracle_kept_frac": _ratio(kept, assignments),
    }
