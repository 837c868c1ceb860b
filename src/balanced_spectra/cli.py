"""Command-line front end: simulate, moments, limit, words, verify.

Every run is reproducible from its flags: all randomness flows through
sub-seeds derived from the master seed, so results are independent of the
worker count, and re-running a config rewrites byte-identical result files.
Each output directory gets a ``manifest.json`` recording the resolved config,
derived seeds, library versions and wall times (the manifest is the one file
whose timing fields differ between otherwise identical runs).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import itertools
import json
import math
import os
import sys
import time
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import __version__
from .errors import BalancedSpectraError, InvalidArgumentError, UsageError
from .inputs import Distribution
from .limits import (
    COMPARE_SAMPLES, DEFAULT_SAMPLES, LIMIT_METHODS, ComparisonRow, compare_empirical_limit, limit_moment,
)
from .matgen import MatrixKind
from .persist import atomic_write_text, write_csv, write_json
from .render import histogram_svg
from .experiments import simulate_spectra, realization_matrix
from .spectra import DEFAULT_BINS, DEFAULT_RANGE, check_bins, pooled_histogram
from .verify import run_suites
from .words import enumerate_pair_matched_words, generating_vertices, is_symmetric, linear_forms


def _key(default, help, *, low=None, high=None, choices=None, parse=None, flag=None):
    """One settable key; its type is the field's annotation.  A value must lie
    in [low, high) and among ``choices``; ``parse`` instead checks a value of a
    richer form by raising ValueError.  ``flag`` replaces ``--name``.  A key
    whose type excludes None but whose default is None must be given as a flag."""
    return field(default=default, metadata=dict(help=help, low=low, high=high, choices=choices, parse=parse, flag=flag))


def _floats(text) -> tuple[float, ...]:
    """A list of numbers, or their comma list as one string."""
    parts = text if isinstance(text, (list, tuple)) else [v for v in str(text).split(",") if v.strip()]
    return tuple(float(v) for v in parts)


def _parse_range(text) -> tuple[float, float] | None:
    if str(text).strip().lower() == "auto":
        return None
    try:
        lo, hi = _floats(text)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"must be LO,HI or 'auto', got {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"bounds must be finite with LO < HI, got {text!r}")
    return lo, hi


def _parse_balanced(text) -> None:
    """Refuse t and h: the word integrals give the limiting moments of the
    balanced kinds only (second moment 2, where t and h have 1)."""
    if not MatrixKind.parse(text).balanced:
        raise ValueError(f"must be bt or bh, got {text!r}")


def _parse_out(text) -> None:
    """Refuse an output directory that cannot be made: its nearest existing
    ancestor must be a writable directory.  Nothing is created here; ``main``
    makes the directory once the whole config is checked."""
    if not isinstance(text, str):
        raise ValueError(f"must be a path, got {text!r}")
    path = Path(text).absolute()
    base = next(p for p in (path, *path.parents) if os.path.exists(p))
    if not (os.path.isdir(base) and os.access(base, os.W_OK | os.X_OK)):
        raise ValueError(f"{base} is not a writable directory")


# One frozen dataclass per subcommand, named after it: each field is a key,
# set by its flag or a --config file and recorded in the manifest.  Every
# subcommand but verify can write result files.
@dataclass(frozen=True)
class _Written:
    out: str | None = _key(None, "output directory (optional)", parse=_parse_out)


@dataclass(frozen=True)
class _Sampled(_Written):
    kind: str = _key("bt", "ensemble: t, h, bt or bh", parse=MatrixKind.parse)
    seed: int = _key(42, "master seed (64-bit)")
    threads: int | None = _key(None, "worker processes (env BALANCED_SPECTRA_THREADS)", low=1)


@dataclass(frozen=True)
class Simulate(_Sampled):
    """solve seeded realizations, emit spectra and histograms"""
    out: str = _key(None, "output directory", parse=_parse_out)
    n: int = _key(400, "matrix dimension", low=1)
    reps: int = _key(15, "number of realizations", low=1)
    dist: str = _key("normal", "input law: normal, rademacher, uniform", parse=Distribution.parse)
    bins: int = _key(DEFAULT_BINS, "histogram bins", low=1)
    hist_range: str = _key("{},{}".format(*DEFAULT_RANGE), "LO,HI or 'auto'", parse=_parse_range, flag="--range")
    eps: float = _key(0.0, "trim fraction for balanced submatrices", low=0, high=1)
    dump_matrices: bool = _key(False, "also write entry CSVs")


@dataclass(frozen=True)
class _Balanced(_Sampled):
    kind: str = _key("bt", "ensemble: bt or bh", parse=_parse_balanced)


@dataclass(frozen=True)
class Moments(_Balanced):
    """empirical averaged moments vs limiting moments"""
    n: int = _key(200, "matrix dimension", low=1)
    reps: int = _key(15, "number of realizations", low=1)
    dist: str = _key("normal", "input law: normal, rademacher, uniform", parse=Distribution.parse)
    k_max: int = _key(2, "compare orders 1..2*k_max", low=1)
    method: str = _key("mc-ladder", "limit method", choices=LIMIT_METHODS)
    samples: int = _key(COMPARE_SAMPLES, "points per word", low=1)


@dataclass(frozen=True)
class Limit(_Balanced):
    """limiting moment of order 2k with per-word breakdown"""
    seed: int = _key(7, "master seed (64-bit)")
    k: int = _key(1, "half-order: computes the order-2k moment", low=1)
    method: str = _key("mc-ladder", "limit method", choices=LIMIT_METHODS)
    samples: int = _key(DEFAULT_SAMPLES, "points per word", low=1)


@dataclass(frozen=True)
class Words(_Written):
    """pair-matched words, forms and closure flags as JSON"""
    k: int = _key(2, "half-length: words of length 2k", low=1)


@dataclass(frozen=True)
class Verify:
    """run invariant self-check suites"""
    suite: str = _key("all", "comma list of suites or 'all'")


def _keys(schema):
    """(field, flag, value type, None allowed) for each key of ``schema``."""
    hints = get_type_hints(schema)
    for f in fields(schema):
        types = get_args(hints[f.name]) or (hints[f.name],)
        flag = f.metadata["flag"] or "--" + f.name.replace("_", "-")
        yield f, flag, types[0], type(None) in types


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Refuse a command line in one line, as every other refusal: exit 2."""
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="balanced-spectra",
        description="Spectral laboratory for balanced random Toeplitz and Hankel matrices.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (schema, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=schema.__doc__)
        for f, flag, value_type, optional in _keys(schema):
            # default None: a flag not given leaves the config value or the default
            how = {"action": "store_true"} if value_type is bool else {"type": value_type}
            choices = f.metadata["choices"]
            text = f.metadata["help"] + (": " + " or ".join(choices) if choices else "")
            text += "" if f.default is None else f" (default: {f.default})"
            p.add_argument(flag, dest=f.name, default=None, required=f.default is None and not optional,
                           help=text, **how)
        p.add_argument("--config", type=str, help="JSON config file; explicit flags win")
    return parser


def _check(meta: dict, value_type: type, value) -> None:
    """Raise ValueError unless ``value`` is a ``value_type`` that meets its key's rule."""
    if meta["parse"]:
        meta["parse"](value)
        return
    low, high, choices = meta["low"], meta["high"], meta["choices"]
    if not (
        isinstance(value, bool) == (value_type is bool)
        and isinstance(value, (int, float) if value_type is float else value_type)
        and (low is None or value >= low)
        and (high is None or value < high)
        and (choices is None or value in choices)
    ):
        rule = f"one of {', '.join(choices)}" if choices else value_type.__name__
        rule += f" in [{low}, {high})" if high is not None else f" >= {low}" if low is not None else ""
        raise ValueError(f"must be {rule}, got {value!r}")


def resolve_config(args: argparse.Namespace):
    """The subcommand's config: each flag over the --config file over the default, checked."""
    command, path, file_cfg = args.command, args.config, {}
    schema = _COMMANDS[command][0]
    if path:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                file_cfg = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise UsageError(f"config {path} must hold a JSON object, got {file_cfg!r}")
        # a manifest's config block names its subcommand; replaying it elsewhere is an error
        if file_cfg.get("command", command) != command:
            raise UsageError(f"config {path} is for {file_cfg['command']!r}, not {command!r}")
        unknown = set(file_cfg) - {f.name for f in fields(schema)} - {"command"}
        if unknown:
            raise UsageError(f"unknown config keys for {command}: {sorted(unknown)}")
    values = {}
    for f, flag, value_type, optional in _keys(schema):
        if getattr(args, f.name) is not None:
            value, label = getattr(args, f.name), flag
        elif f.name in file_cfg:
            value, label = file_cfg[f.name], f"{flag} (config key {f.name!r})"
        else:
            continue
        try:
            if value is not None or not optional:
                _check(f.metadata, value_type, value)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"{label}: {exc}") from exc
        values[f.name] = value
    return schema(**values)


def _write_out(cfg, files, timings: dict, **extra) -> list[str]:
    """Write each result file ``(name, content)`` of ``files`` into ``cfg.out``, then
    a ``manifest.json`` listing exactly those names, with the config, the stage
    times ``timings`` plus this write's, and ``extra``; return the names.

    A ``.csv`` content is ``(header, rows)``, a ``.json`` one a JSON value, any
    other text.  ``files`` is read one file at a time, so a generator holds one
    file's rows.  Without ``cfg.out`` nothing is written.
    """
    if cfg.out is None:
        return []
    out, names, t0 = Path(cfg.out), [], time.perf_counter()
    for name, content in files:
        if name.endswith(".csv"):
            write_csv(out / name, *content)
        elif name.endswith(".json"):
            write_json(out / name, content)
        else:
            atomic_write_text(out / name, content)
        names.append(name)
    config = {"command": type(cfg).__name__.lower(), **asdict(cfg)}
    del config["out"]
    timings = {**timings, "write": time.perf_counter() - t0}
    write_json(out / "manifest.json", {
        "config": config,
        "outputs": sorted(names),
        "versions": {"balanced_spectra": __version__, "python": sys.version.split()[0], "numpy": np.__version__},
        "wall_time_s": {k: round(v, 6) for k, v in timings.items()},
        **extra,
    })
    return names


def cmd_simulate(cfg: Simulate) -> int:
    kind = MatrixKind.parse(cfg.kind)
    dist = Distribution.parse(cfg.dist)
    check_bins(cfg.bins)  # before any draw, as simulate_spectra checks the realization

    t0 = time.perf_counter()
    spectra_list = simulate_spectra(kind, dist, cfg.n, cfg.reps, cfg.seed, eps=cfg.eps, threads=cfg.threads)
    t_solve = time.perf_counter() - t0

    hist = pooled_histogram(spectra_list, bins=cfg.bins, hist_range=_parse_range(cfg.hist_range))
    eigenvalues = ((r, i, v) for r, spec in enumerate(spectra_list) for i, v in enumerate(spec.eigenvalues.tolist()))
    edges = hist.edges.tolist()
    files = [
        ("eigenvalues.csv", (["realization", "index", "eigenvalue"], eigenvalues)),
        ("histogram.csv", (["bin_left", "bin_right", "density"], zip(edges, edges[1:], hist.densities.tolist()))),
        ("histogram.svg", histogram_svg(hist, title=f"{kind.value.upper()} n={cfg.n} {dist.value} x{cfg.reps}")),
    ]
    # each dump rebuilds its realization from the seed its spectrum records
    mats = (realization_matrix(kind, dist, cfg.n, spec.source["seed"], cfg.eps) for spec in spectra_list)
    dumps = (
        (f"matrix_{r:03d}.csv", (["i", "j", "value"], (
            (i + 1, j + 1, v) for i, row in enumerate(mat.entries.tolist()) for j, v in enumerate(row))))
        for r, mat in enumerate(mats if cfg.dump_matrices else [])
    )
    names = _write_out(
        cfg, itertools.chain(files, dumps), {"solve": t_solve},
        derived_seeds=[spec.source["seed"] for spec in spectra_list],
        realized_dimension=spectra_list[0].n,
        solve_routes=collections.Counter(spec.source["route"] for spec in spectra_list),
        histogram={"overflow": hist.overflow, "total": hist.total, "range": [edges[0], edges[-1]]},
    )
    print(f"simulate: wrote {len(names)} result files to {Path(cfg.out)}")
    return 0


def cmd_moments(cfg: Moments) -> int:
    t0 = time.perf_counter()
    report = compare_empirical_limit(
        MatrixKind.parse(cfg.kind), cfg.n, cfg.reps, cfg.k_max, cfg.seed, Distribution.parse(cfg.dist),
        method=cfg.method, samples=cfg.samples, threads=cfg.threads,
    )
    elapsed = time.perf_counter() - t0
    header = f"{'order':>5} {'empirical':>14} {'emp se':>10} {'limit':>14} {'lim se':>10} {'pass':>5}"
    print(header)
    for row in report.rows:
        print(
            f"{row.order:>5} {row.empirical:>14.6f} {row.empirical_se:>10.2e} "
            f"{row.limit:>14.6f} {row.limit_se:>10.2e} {str(row.passed):>5}"
        )
    _write_out(cfg, [
        ("moments.json", report.to_dict()),
        ("moments.csv", ([f.name for f in fields(ComparisonRow)], map(astuple, report.rows))),
    ], {"total": elapsed})
    return 0


def cmd_limit(cfg: Limit) -> int:
    kind = MatrixKind.parse(cfg.kind)
    t0 = time.perf_counter()
    estimate = limit_moment(cfg.k, kind, cfg.method, samples=cfg.samples, seed=cfg.seed, threads=cfg.threads)
    elapsed = time.perf_counter() - t0
    payload = {
        "kind": kind.link.value, "k": cfg.k, "order": 2 * cfg.k, "method": estimate.method.value,
        "value": estimate.value, "std_error": estimate.std_error, "per_word": estimate.params["per_word"],
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    _write_out(cfg, [("limit.json", payload)], {"total": elapsed})
    return 0


def cmd_words(cfg: Words) -> int:
    t0 = time.perf_counter()
    entries = []
    for word in enumerate_pair_matched_words(cfg.k):
        forms = {kind.value: linear_forms(word, kind) for kind in (MatrixKind.T, MatrixKind.H)}
        entries.append({
            "word": word.letters, "symmetric": is_symmetric(word), "S": list(generating_vertices(word)),
            "forms": {link: [list(f.coeffs) for f in fs] for link, (fs, _) in forms.items()},
            "closure": {link: closed for link, (_, closed) in forms.items()},
        })
    print(json.dumps(entries, indent=2, sort_keys=True))
    _write_out(cfg, [("words.json", entries)], {"total": time.perf_counter() - t0})
    return 0


def cmd_verify(cfg: Verify) -> int:
    results = run_suites([s.strip() for s in cfg.suite.split(",") if s.strip()])
    failures = 0
    for res in results:
        mark = "PASS" if res.passed else "FAIL"
        detail = f"  ({res.detail})" if res.detail and not res.passed else ""
        print(f"[{mark}] {res.suite}: {res.name}{detail}")
        failures += 0 if res.passed else 1
    print(f"verify: {len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


# each subcommand's schema, whose fields are its keys, and the function that runs it
_COMMANDS = {
    "simulate": (Simulate, cmd_simulate),
    "moments": (Moments, cmd_moments),
    "limit": (Limit, cmd_limit),
    "words": (Words, cmd_words),
    "verify": (Verify, cmd_verify),
}


def _missing_dirs(cfg) -> list[Path]:
    """The directories that making ``cfg.out`` creates, deepest first."""
    if getattr(cfg, "out", None) is None:
        return []
    path = Path(cfg.out).absolute()
    return [p for p in (path, *path.parents) if not os.path.exists(p)]


def main(argv: list[str] | None = None) -> int:
    made = []
    try:
        args = build_parser().parse_args(argv)
        try:
            cfg = resolve_config(args)
            made = _missing_dirs(cfg)
            try:  # before any work, so an --out that cannot be made costs none
                for path in reversed(made):
                    path.mkdir()
            except OSError as exc:
                raise UsageError(f"--out: {exc}") from exc
            code = _COMMANDS[args.command][1](cfg)
        except BalancedSpectraError as exc:
            for path in made:  # a refused run leaves none of the directories it made
                with contextlib.suppress(OSError):
                    path.rmdir()
            print(f"error: {exc}", file=sys.stderr)
            code = 2 if isinstance(exc, (UsageError, InvalidArgumentError)) else 1
        sys.stdout.flush()  # a closed pipe must surface here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader went away (``| head``): send the rest of stdout to devnull
        # so the exit-time flush cannot fail again, and stop quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
