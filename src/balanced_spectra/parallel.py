"""Deterministic task fan-out.

The process pool is the program's only level of parallelism: importing the
package defaults ``OPENBLAS_NUM_THREADS`` to 1, so each worker, like a serial
run, is one thread, and the worker count defaults to the CPUs this process may
run on.  Results never depend on the worker count: every task derives its own
seed from its index and the reduction happens in submission order.  The
process pool has two serial fallbacks, each of which re-runs every task in a
serial loop: an ``OSError`` when the pool is created (a sandbox that refuses
to fork), and ``BrokenProcessPool`` after a worker dies.
"""

from __future__ import annotations

import os

from .errors import InvalidArgumentError

ENV_THREADS = "BALANCED_SPECTRA_THREADS"


def resolve_workers(threads: int | None = None) -> int:
    """Explicit count, else the BALANCED_SPECTRA_THREADS env var, else the usable CPUs."""
    if threads is None:
        env = os.environ.get(ENV_THREADS)
        if not env:
            # the affinity mask, where the OS has one: under taskset or a
            # cpuset, os.cpu_count() reports CPUs this process cannot use
            if hasattr(os, "sched_getaffinity"):
                return len(os.sched_getaffinity(0))
            return os.cpu_count() or 1
        try:
            threads = int(env)
        except ValueError as exc:
            raise InvalidArgumentError(f"{ENV_THREADS}={env!r} is not an integer") from exc
    if threads < 1:
        raise InvalidArgumentError(f"worker count must be >= 1, got {threads}")
    return int(threads)


def parallel_map(fn, items, workers: int | None = None) -> list:
    """Order-preserving map over ``items`` using up to ``workers`` processes.

    Callers pass a ``functools.partial`` of a module-level function that binds
    the shared native arguments (enums, words) and map it over plain indices,
    so nothing is packed into tuples for the workers to unpack.  Re-runs every
    task serially when creating the pool raises ``OSError`` or a dead worker
    breaks it (``BrokenProcessPool``); exceptions raised by ``fn`` itself
    always propagate.
    """
    items = list(items)
    count = resolve_workers(workers)
    if count <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # imported on first fan-out: serial runs and plain imports of the package
    # then never load multiprocessing, which costs about 1 MB of RSS
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(max_workers=min(count, len(items))) as pool:
            chunk = max(1, len(items) // (4 * count))
            return list(pool.map(fn, items, chunksize=chunk))
    except (OSError, BrokenProcessPool):
        return [fn(item) for item in items]
