"""Output checks for the four workloads.

Each checker takes what one run produced and returns a list of failure
messages (empty when the output is right).  Where an independent route to
the answer exists the checker takes it instead of re-running the timed code:
LAPACK's ``eigvalsh`` for the spectra, graded quadrature for the Monte Carlo
limit, recorded exact values for the finite-n oracle.
"""

from __future__ import annotations

import io
import json
import math
import re

import numpy as np

EIG_RTOL = 1e-9
MASS_TOL = 1e-12
ORACLE_RTOL = 1e-12
LIMIT_SIGMAS = 6.0

_VERIFY_TAIL = re.compile(r"^verify: (\d+)/(\d+) checks passed$")


def check_esd(files: dict[str, bytes], seed: int, *, kind: str, dist: str, n: int, reps: int) -> list[str]:
    """Eigenvalues against ``eigvalsh`` of the rebuilt matrices; histogram mass identity."""
    import balanced_spectra as bs

    failures = []
    try:
        eig = np.loadtxt(io.BytesIO(files["eigenvalues.csv"]), delimiter=",", skiprows=1, ndmin=2)
        hist = np.loadtxt(io.BytesIO(files["histogram.csv"]), delimiter=",", skiprows=1, ndmin=2)
        manifest = json.loads(files["manifest.json"])
    except (KeyError, ValueError) as exc:
        return [f"esd: unreadable output ({exc})"]
    if eig.shape != (reps * n, 3):
        return [f"esd: eigenvalues.csv has shape {eig.shape}, expected {(reps * n, 3)}"]
    matrix_kind = bs.MatrixKind.parse(kind)
    law = bs.Distribution.parse(dist)
    for r in range(reps):
        rows = eig[eig[:, 0] == r]
        if rows.shape[0] != n or not np.array_equal(rows[:, 1], np.arange(n)):
            failures.append(f"esd: realization {r} does not list eigenvalues 0..{n - 1}")
            continue
        seq = bs.generate_sequence(law, bs.needed_length(matrix_kind, n), bs.derive_seed(seed, r))
        ref = np.linalg.eigvalsh(bs.build_matrix(matrix_kind, seq, n).entries)
        gap = float(np.max(np.abs(rows[:, 2] - ref)))
        if not gap <= EIG_RTOL * max(1.0, float(np.max(np.abs(ref)))):
            failures.append(f"esd: realization {r} eigenvalues differ from eigvalsh by {gap:.3e}")

    overflow = manifest.get("histogram", {}).get("overflow")
    total = manifest.get("histogram", {}).get("total")
    if total != reps * n or overflow is None:
        return failures + [f"esd: manifest histogram total {total!r}, expected {reps * n}"]
    lo, hi = hist[0, 0], hist[-1, 1]
    outside = int(np.count_nonzero((eig[:, 2] < lo) | (eig[:, 2] > hi)))
    if outside != overflow:
        failures.append(f"esd: {outside} eigenvalues outside [{lo}, {hi}] but overflow is {overflow}")
    mass = float(np.sum(hist[:, 2] * (hist[:, 1] - hist[:, 0])))
    if not abs(mass - (1.0 - overflow / total)) <= MASS_TOL:
        failures.append(f"esd: histogram mass {mass!r} != 1 - overflow/total = {1.0 - overflow / total!r}")
    return failures


def limit_reference(k: int, kind: str) -> tuple[float, float]:
    """The quadrature route to the same limiting moment: (value, error bar)."""
    import balanced_spectra as bs

    est = bs.limit_moment(k, bs.MatrixKind.parse(kind).link, "quadrature")
    return est.value, est.std_error


def parse_limit(stdout: bytes) -> tuple[float, float]:
    payload = json.loads(stdout)
    return float(payload["value"]), float(payload["std_error"])


def check_limit(stdout: bytes, reference: tuple[float, float]) -> list[str]:
    """Monte Carlo value within LIMIT_SIGMAS combined error bars of quadrature."""
    try:
        value, se = parse_limit(stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"limit-mc: unreadable output ({exc})"]
    ref, ref_se = reference
    if not (math.isfinite(se) and se > 0.0):
        return [f"limit-mc: error bar {se!r} is not a positive number"]
    tol = LIMIT_SIGMAS * math.hypot(se, ref_se)
    if not abs(value - ref) <= tol:
        return [f"limit-mc: value {value!r} is {abs(value - ref):.4g} from quadrature {ref!r} (tolerance {tol:.4g})"]
    return []


def check_oracle(stdout: bytes, baseline: dict[str, float]) -> list[str]:
    """Exact oracle values against the recorded ones."""
    try:
        values = json.loads(stdout)
    except ValueError as exc:
        return [f"oracle: unreadable output ({exc})"]
    if not isinstance(values, dict) or sorted(values) != sorted(baseline):
        return [f"oracle: words {sorted(values) if isinstance(values, dict) else values!r} differ from the recorded set"]
    failures = []
    for word, expected in baseline.items():
        got = values[word]
        if not (isinstance(got, float) and abs(got - expected) <= ORACLE_RTOL * abs(expected)):
            failures.append(f"oracle: word {word} = {got!r}, recorded {expected!r}")
    return failures


def check_selfcheck(stdout: bytes, returncode: int) -> list[str]:
    """Exit 0 and a closing ``N/N checks passed`` that matches the PASS lines."""
    lines = stdout.decode("utf-8", "replace").splitlines()
    failures = []
    if returncode != 0:
        failures.append(f"selfcheck: exit code {returncode}")
    failing = [line for line in lines if line.startswith("[FAIL]")]
    failures.extend(f"selfcheck: {line}" for line in failing)
    match = _VERIFY_TAIL.match(lines[-1]) if lines else None
    if match is None:
        return failures + ["selfcheck: no closing 'verify: N/N checks passed' line"]
    passed, total = int(match.group(1)), int(match.group(2))
    listed = sum(1 for line in lines if line.startswith("[PASS]"))
    if passed != total or listed != total or total == 0:
        failures.append(f"selfcheck: {passed}/{total} passed with {listed} PASS lines")
    return failures
