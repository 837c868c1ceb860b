"""Span recording around calls into the balanced_spectra modules.

``install()`` replaces selected functions of the package by wrappers that
record one span per call: name, start, end, parent span, process id and a few
call attributes.  Every module attribute (and module-level dict value) that
refers to the original function is rebound, so calls made through
``from .x import f`` names and through lookup tables are seen too.  Nothing in
the package itself changes.

Work fanned out by ``parallel.parallel_map`` runs in worker processes: the
wrapper hands each task to ``_traced_task``, which records the task's spans in
the worker and ships them back with the result, so the parent ends up with the
whole tree.  ``time.perf_counter`` is the monotonic system clock on Linux, so
spans from all processes share one timeline.

Spans stay in memory until ``Recorder.dump`` writes them out at the end of a
traced pass.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import time

PACKAGE = "balanced_spectra"

# (module, function, span name).  ``_mc_truncated`` is private: it is the one
# Monte Carlo rung of the eps-ladder and has no public entry point.
TARGETS = (
    ("inputs", "generate_sequence", "inputs.generate"),
    ("matgen", "build_matrix", "matgen.build"),
    ("eigh", "symmetric_eigenvalues", "eigh.solve"),
    ("eigh", "householder_tridiagonal", "eigh.tridiag"),
    ("eigh", "ql_implicit_eigenvalues", "eigh.ql"),
    ("spectra", "eigenvalues_symmetric", "spectra.solve"),
    ("spectra", "pooled_histogram", "spectra.histogram"),
    ("spectra", "levy_distance", "spectra.levy"),
    ("experiments", "simulate_spectra", "experiments.simulate"),
    ("words", "enumerate_pair_matched_words", "words.enumerate"),
    ("words", "linear_forms", "words.forms"),
    ("limits", "limit_moment", "limits.moment"),
    ("limits", "limit_word_moment", "limits.word"),
    ("limits", "truncated_word_moment", "limits.truncated"),
    ("limits", "finite_n_word_moment", "limits.oracle"),
    ("limits", "_mc_truncated", "limits.rung"),
    ("persist", "atomic_write_text", "persist.write"),
    ("persist", "write_csv", "persist.write"),
    ("persist", "write_json", "persist.write"),
    ("render", "histogram_svg", "render.svg"),
    ("verify", "suite_inputs", "verify.inputs"),
    ("verify", "suite_matgen", "verify.matgen"),
    ("verify", "suite_words", "verify.words"),
    ("verify", "suite_spectra", "verify.spectra"),
    ("verify", "suite_limits", "verify.limits"),
)


class Recorder:
    """In-memory span list with a stack giving each span its parent."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self._ids = itertools.count()

    def open(self, name: str) -> dict:
        span = {
            "id": f"{self.pid}:{next(self._ids)}",
            "parent": self.stack[-1] if self.stack else None,
            "name": name,
            "run": self.run_id,
            "pid": self.pid,
            "start": time.perf_counter(),
        }
        self.stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.pop()
        self.spans.append(span)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run": self.run_id, "spans": self.spans}, handle)


_recorder: Recorder | None = None


def _attrs(name: str, args: tuple, kwargs: dict, result) -> dict:
    """Call attributes the per-layer counts need, read after the span closes."""
    if name == "eigh.solve":
        return {"n": len(args[0])}
    if name == "persist.write" and len(args) >= 2 and isinstance(args[1], str):
        return {"bytes": len(args[1].encode("utf-8"))}
    if name == "limits.word":
        method = args[2] if len(args) > 2 else kwargs.get("method", "mc-ladder")
        return {"word": args[0].letters, "kind": args[1].link.value, "method": method}
    if name == "limits.truncated":
        method = args[3] if len(args) > 3 else kwargs.get("method", "mc")
        return {"word": args[0].letters, "kind": args[1].link.value, "method": method}
    if name == "limits.rung":
        ctx, eps, samples, batches = args[:4]
        per_batch = -(-samples // batches)
        return {"word": ctx.word.letters, "kind": ctx.link.value, "eps": eps, "evals": per_batch * batches}
    if name == "limits.oracle":
        lo, hi = result.params["window"]
        return {"word": args[0].letters, "kind": args[1].link.value, "window": [lo, hi],
                "assignments": (hi - lo + 1) ** (args[0].k + 1)}
    if name == "limits.moment":
        return {"std_error": result.std_error}
    return {}


def _wrap(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = _recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            _recorder.close(span)
        span["attrs"] = _attrs(name, args, kwargs, result)
        return result

    return wrapper


def _traced_task(fn, parent: str, item):
    """Run one ``parallel_map`` task under its own span list; return both."""
    install("worker")
    _recorder.pid = os.getpid()
    outer_spans, outer_stack = _recorder.spans, _recorder.stack
    _recorder.spans, _recorder.stack = [], [parent]
    try:
        span = _recorder.open("parallel.task")
        try:
            result = fn(item)
        finally:
            _recorder.close(span)
        return result, _recorder.spans
    finally:
        _recorder.spans, _recorder.stack = outer_spans, outer_stack


def _wrap_parallel_map(fn):
    @functools.wraps(fn)
    def parallel_map(task, items, workers=None):
        items = list(items)
        span = _recorder.open("parallel.map")
        try:
            pairs = fn(functools.partial(_traced_task, task, span["id"]), items, workers=workers)
        finally:
            _recorder.close(span)
        results = []
        for result, spans in pairs:
            results.append(result)
            _recorder.spans.extend(spans)
        return results

    return parallel_map


def _rebind(original, replacement) -> None:
    for mod_name, module in list(sys.modules.items()):
        if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
            elif isinstance(value, dict) and not key.startswith("__"):
                for dkey, dvalue in list(value.items()):
                    if dvalue is original:
                        value[dkey] = replacement


def install(run_id: str) -> Recorder:
    """Wrap every target function; idempotent within a process."""
    global _recorder
    if _recorder is not None:
        return _recorder
    _recorder = Recorder(run_id)
    importlib.import_module(PACKAGE + ".cli")
    for mod_name, fn_name, span_name in TARGETS:
        module = importlib.import_module(f"{PACKAGE}.{mod_name}")
        original = getattr(module, fn_name, None)
        if original is None:
            print(f"trace: {mod_name}.{fn_name} not found, not traced", file=sys.stderr)
            continue
        _rebind(original, _wrap(span_name, original))
    parallel = importlib.import_module(PACKAGE + ".parallel")
    _rebind(parallel.parallel_map, _wrap_parallel_map(parallel.parallel_map))
    return _recorder
