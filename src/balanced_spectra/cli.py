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
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import BalancedSpectraError, InvalidArgumentError, UsageError
from .inputs import Distribution, derive_seed
from .limits import DEFAULT_GRID, DEFAULT_SAMPLES, compare_empirical_limit, limit_moment
from .matgen import MatrixKind
from .persist import atomic_write_text, write_csv, write_json
from .render import histogram_svg
from .experiments import simulate_spectra, realization_matrix
from .spectra import DEFAULT_BINS, DEFAULT_RANGE, pooled_histogram
from .verify import run_suites
from .words import enumerate_pair_matched_words, generating_vertices, is_symmetric, linear_forms


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balanced-spectra",
        description="Spectral laboratory for balanced random Toeplitz and Hankel matrices.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, kind=True, seed=True, threads=True, out_required=False):
        if kind:
            p.add_argument("--kind", type=str, help="ensemble: t, h, bt or bh")
        if seed:
            p.add_argument("--seed", type=int, help="master seed (64-bit)")
        if threads:
            p.add_argument("--threads", type=int, help="worker processes (env BALANCED_SPECTRA_THREADS)")
        p.add_argument("--config", type=str, help="JSON config file; explicit flags win")
        p.add_argument(
            "--out",
            type=str,
            required=out_required,
            help="output directory" + ("" if out_required else " (optional)"),
        )

    p = sub.add_parser("simulate", help="solve seeded realizations, emit spectra and histograms")
    p.add_argument("--n", type=int, help="matrix dimension")
    p.add_argument("--reps", type=int, help="number of realizations")
    p.add_argument("--dist", type=str, help="input law: normal, rademacher, uniform")
    p.add_argument("--bins", type=int, help="histogram bins")
    p.add_argument("--range", dest="hist_range", type=str, help="LO,HI or 'auto'")
    p.add_argument("--eps", type=float, help="trim fraction for balanced submatrices")
    p.add_argument("--dump-matrices", action="store_true", default=None, help="also write entry CSVs")
    common(p, out_required=True)

    p = sub.add_parser("moments", help="empirical averaged moments vs limiting moments")
    p.add_argument("--n", type=int)
    p.add_argument("--reps", type=int)
    p.add_argument("--dist", type=str)
    p.add_argument("--k-max", dest="k_max", type=int, help="compare orders 1..2*k_max")
    p.add_argument("--method", type=str, help="limit method: mc-ladder or quadrature")
    p.add_argument("--samples", type=int, help="Monte Carlo samples per rung")
    common(p)

    p = sub.add_parser("limit", help="limiting moment of order 2k with per-word breakdown")
    p.add_argument("--k", type=int, help="half-order: computes the order-2k moment")
    p.add_argument("--method", type=str, help="mc-ladder or quadrature")
    p.add_argument("--samples", type=int)
    p.add_argument("--grid", type=int, help="quadrature cells per axis")
    p.add_argument("--eps-ladder", dest="eps_ladder", type=str, help="comma list of rung epsilons")
    common(p)

    p = sub.add_parser("words", help="pair-matched words, forms and closure flags as JSON")
    p.add_argument("--k", type=int, help="half-length: words of length 2k")
    common(p, kind=False, seed=False, threads=False)

    p = sub.add_parser("verify", help="run invariant self-check suites")
    p.add_argument("--suite", type=str, help="comma list of suites or 'all'")
    common(p, kind=False, seed=False, threads=False)
    return parser


_DEFAULTS = {
    "simulate": {
        "kind": "bt", "n": 400, "reps": 15, "dist": "normal", "seed": 42,
        "bins": DEFAULT_BINS, "hist_range": f"{DEFAULT_RANGE[0]},{DEFAULT_RANGE[1]}",
        "eps": 0.0, "dump_matrices": False, "threads": None,
    },
    "moments": {
        "kind": "bt", "n": 200, "reps": 15, "dist": "normal", "seed": 42,
        "k_max": 2, "method": "mc-ladder", "samples": 200_000, "threads": None,
    },
    "limit": {
        "kind": "bt", "k": 1, "method": "mc-ladder", "seed": 7,
        "samples": DEFAULT_SAMPLES, "grid": DEFAULT_GRID, "eps_ladder": None, "threads": None,
    },
    "words": {"k": 2},
    "verify": {"suite": "all"},
}


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge CLI flags over an optional JSON config over hard defaults."""
    command = args.command
    merged = dict(_DEFAULTS[command])
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as handle:
                file_cfg = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {config_path}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise UsageError(f"config {config_path} must hold a JSON object, got {file_cfg!r}")
        # a manifest's config block names its subcommand; replaying it elsewhere is an error
        if file_cfg.get("command", command) != command:
            raise UsageError(f"config {config_path} is for {file_cfg['command']!r}, not {command!r}")
        unknown = set(file_cfg) - set(merged) - {"out", "command"}
        if unknown:
            raise UsageError(f"unknown config keys for {command}: {sorted(unknown)}")
        for key, value in file_cfg.items():
            default = merged.get(key)
            if isinstance(default, (int, float)):  # bool defaults included: bool is an int
                allowed = (int, float) if isinstance(default, float) else type(default)
                if isinstance(value, bool) != isinstance(default, bool) or not isinstance(value, allowed):
                    raise UsageError(f"config key {key!r} must be of type {type(default).__name__}, got {value!r}")
        merged.update(file_cfg)
    for key in merged:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    if merged.get("threads") is not None:
        _validate_positive(merged, ["threads"])
    merged["out"] = getattr(args, "out", None) or merged.get("out")
    merged["command"] = command
    return merged


def _parse_range(text) -> tuple[float, float] | None:
    if text is None:
        return DEFAULT_RANGE
    if str(text).strip().lower() == "auto":
        return None
    parts = text if isinstance(text, (list, tuple)) else str(text).split(",")
    try:
        lo, hi = (float(part) for part in parts)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"--range must be LO,HI or 'auto', got {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"--range bounds must be finite, got {text!r}")
    if not lo < hi:
        raise UsageError(f"--range must satisfy LO < HI, got {text!r}")
    return lo, hi


def _parse_eps_ladder(text) -> tuple[float, ...] | None:
    if text is None:
        return None
    parts = text if isinstance(text, (list, tuple)) else [v for v in str(text).split(",") if v.strip()]
    try:
        values = [float(v) for v in parts]
    except (TypeError, ValueError) as exc:
        raise UsageError(f"--eps-ladder must be a comma list of floats, got {text!r}") from exc
    if not values or not all(0.0 < v < 1.0 for v in values):
        raise UsageError("ladder epsilons must lie in (0, 1)")
    return tuple(values)


def _validate_positive(cfg: dict, keys: list[str]) -> None:
    for key in keys:
        value = cfg.get(key)
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise UsageError(f"--{key.replace('_', '-')} must be a positive integer, got {value!r}")


def _manifest(cfg: dict, outputs: list[str], timings: dict, extra: dict | None = None) -> dict:
    manifest = {
        "config": {k: v for k, v in cfg.items() if k != "out"},
        "outputs": sorted(outputs),
        "versions": {
            "balanced_spectra": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "wall_time_s": {k: round(v, 6) for k, v in timings.items()},
    }
    if extra:
        manifest.update(extra)
    return manifest


def cmd_simulate(cfg: dict) -> int:
    _validate_positive(cfg, ["n", "reps", "bins"])
    kind = MatrixKind.parse(cfg["kind"])
    dist = Distribution.parse(cfg["dist"])
    eps = float(cfg["eps"])
    if not 0.0 <= eps < 1.0:
        raise UsageError("--eps must lie in [0, 1)")
    if eps > 0.0 and not kind.balanced:
        raise UsageError("--eps trims are defined for balanced kinds (bt, bh)")
    hist_range = _parse_range(cfg["hist_range"])
    out = Path(cfg["out"])
    seed = int(cfg["seed"])

    t0 = time.perf_counter()
    spectra_list = simulate_spectra(
        kind, dist, int(cfg["n"]), int(cfg["reps"]), seed,
        eps=eps, threads=cfg.get("threads"),
    )
    t_solve = time.perf_counter() - t0

    t0 = time.perf_counter()
    rows = []
    for r, spec in enumerate(spectra_list):
        for i, value in enumerate(spec.eigenvalues):
            rows.append((r, i, float(value)))
    write_csv(out / "eigenvalues.csv", ["realization", "index", "eigenvalue"], rows)

    hist = pooled_histogram(spectra_list, bins=int(cfg["bins"]), hist_range=hist_range)
    write_csv(
        out / "histogram.csv",
        ["bin_left", "bin_right", "density"],
        [
            (float(hist.edges[i]), float(hist.edges[i + 1]), float(hist.densities[i]))
            for i in range(len(hist.densities))
        ],
    )
    title = f"{kind.value.upper()} n={cfg['n']} {dist.value} x{cfg['reps']}"
    atomic_write_text(out / "histogram.svg", histogram_svg(hist, title=title))
    outputs = ["eigenvalues.csv", "histogram.csv", "histogram.svg"]

    if cfg.get("dump_matrices"):
        for r in range(int(cfg["reps"])):
            mat = realization_matrix(kind, dist, int(cfg["n"]), derive_seed(seed, r), eps)
            entry_rows = [
                (i + 1, j + 1, float(mat.entries[i, j]))
                for i in range(mat.n)
                for j in range(mat.n)
            ]
            name = f"matrix_{r:03d}.csv"
            write_csv(out / name, ["i", "j", "value"], entry_rows)
            outputs.append(name)
    t_write = time.perf_counter() - t0

    manifest = _manifest(
        cfg,
        outputs,
        {"solve": t_solve, "write": t_write},
        {
            "derived_seeds": [derive_seed(seed, r) for r in range(int(cfg["reps"]))],
            "realized_dimension": spectra_list[0].n,
            "histogram": {
                "overflow": hist.overflow,
                "total": hist.total,
                "range": [float(hist.edges[0]), float(hist.edges[-1])],
            },
        },
    )
    write_json(out / "manifest.json", manifest)
    print(f"simulate: wrote {len(outputs)} result files to {out}")
    return 0


def cmd_moments(cfg: dict) -> int:
    _validate_positive(cfg, ["n", "reps", "k_max", "samples"])
    kind = MatrixKind.parse(cfg["kind"])
    dist = Distribution.parse(cfg["dist"])
    t0 = time.perf_counter()
    report = compare_empirical_limit(
        kind, int(cfg["n"]), int(cfg["reps"]), int(cfg["k_max"]), int(cfg["seed"]),
        dist, method=str(cfg["method"]), samples=int(cfg["samples"]), threads=cfg.get("threads"),
    )
    elapsed = time.perf_counter() - t0
    header = f"{'order':>5} {'empirical':>14} {'emp se':>10} {'limit':>14} {'lim se':>10} {'pass':>5}"
    print(header)
    for row in report.rows:
        print(
            f"{row.order:>5} {row.empirical:>14.6f} {row.empirical_se:>10.2e} "
            f"{row.limit:>14.6f} {row.limit_se:>10.2e} {str(row.passed):>5}"
        )
    if cfg.get("out"):
        out = Path(cfg["out"])
        write_json(out / "moments.json", report.to_dict())
        write_csv(
            out / "moments.csv",
            ["order", "empirical", "empirical_se", "limit", "limit_se", "tolerance", "passed"],
            [
                (r.order, r.empirical, r.empirical_se, r.limit, r.limit_se, r.tolerance, r.passed)
                for r in report.rows
            ],
        )
        write_json(out / "manifest.json", _manifest(cfg, ["moments.json", "moments.csv"], {"total": elapsed}))
    return 0


def cmd_limit(cfg: dict) -> int:
    _validate_positive(cfg, ["k", "samples", "grid"])
    kind = MatrixKind.parse(cfg["kind"])
    method = str(cfg["method"])
    if method not in ("mc-ladder", "quadrature"):
        raise UsageError(f"--method must be mc-ladder or quadrature, got {method!r}")
    ladder = _parse_eps_ladder(cfg.get("eps_ladder"))
    t0 = time.perf_counter()
    kwargs = dict(
        samples=int(cfg["samples"]),
        seed=int(cfg["seed"]),
        grid=int(cfg["grid"]),
        threads=cfg.get("threads"),
    )
    if ladder is not None:
        kwargs["eps_ladder"] = ladder
    estimate = limit_moment(int(cfg["k"]), kind, method, **kwargs)
    elapsed = time.perf_counter() - t0
    payload = {
        "kind": kind.link.value,
        "k": int(cfg["k"]),
        "order": 2 * int(cfg["k"]),
        "method": estimate.method.value,
        "value": estimate.value,
        "std_error": estimate.std_error,
        "per_word": estimate.params["per_word"],
    }
    if "ladder" in estimate.params:
        payload["ladder"] = estimate.params["ladder"]
    print(json.dumps(payload, indent=2, sort_keys=True))
    if cfg.get("out"):
        out = Path(cfg["out"])
        write_json(out / "limit.json", payload)
        write_json(out / "manifest.json", _manifest(cfg, ["limit.json"], {"total": elapsed}))
    return 0


def cmd_words(cfg: dict) -> int:
    _validate_positive(cfg, ["k"])
    entries = []
    for word in enumerate_pair_matched_words(int(cfg["k"])):
        forms_t, closure_t = linear_forms(word, MatrixKind.T)
        forms_h, closure_h = linear_forms(word, MatrixKind.H)
        entries.append(
            {
                "word": word.letters,
                "symmetric": is_symmetric(word),
                "S": list(generating_vertices(word)),
                "forms": {
                    "t": [list(f.coeffs) for f in forms_t],
                    "h": [list(f.coeffs) for f in forms_h],
                },
                "closure": {"t": closure_t, "h": closure_h},
            }
        )
    text = json.dumps(entries, indent=2, sort_keys=True)
    print(text)
    if cfg.get("out"):
        write_json(Path(cfg["out"]) / "words.json", entries)
    return 0


def cmd_verify(cfg: dict) -> int:
    names = [s.strip() for s in str(cfg["suite"]).split(",") if s.strip()]
    try:
        results = run_suites(names)
    except KeyError as exc:
        raise UsageError(f"unknown suite {exc.args[0]!r}") from exc
    failures = 0
    for res in results:
        mark = "PASS" if res.passed else "FAIL"
        detail = f"  ({res.detail})" if res.detail and not res.passed else ""
        print(f"[{mark}] {res.suite}: {res.name}{detail}")
        failures += 0 if res.passed else 1
    print(f"verify: {len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


_COMMANDS = {
    "simulate": cmd_simulate,
    "moments": cmd_moments,
    "limit": cmd_limit,
    "words": cmd_words,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return _COMMANDS[args.command](cfg)
    except (UsageError, InvalidArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BalancedSpectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
