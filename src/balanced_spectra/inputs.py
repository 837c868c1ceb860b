"""Seeded input sequences and the truncation-standardization map.

Every matrix in the laboratory is driven by an i.i.d. sequence of mean-zero,
variance-one variables.  Three input laws are supported: the standard normal,
the Rademacher (+/-1 fair signs) and the uniform on [-sqrt(3), sqrt(3)].
``truncate_standardize`` clips a sequence at a level ``t`` and re-standardizes
it with the closed-form truncated mean and standard deviation, producing a
bounded sequence that is again mean zero and variance one in population.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateTruncationError, InvalidArgumentError

_SQRT3 = math.sqrt(3.0)
_SEED_MOD = 1 << 64


class Distribution(Enum):
    """Supported input laws, all standardized to mean 0 and variance 1."""

    STANDARD_NORMAL = "normal"
    RADEMACHER = "rademacher"
    BOUNDED_UNIFORM = "uniform"

    @classmethod
    def parse(cls, name: str) -> "Distribution":
        key = str(name).strip().lower()
        for member in cls:
            if key in (member.value, member.name.lower()):
                return member
        raise InvalidArgumentError(f"unknown distribution {name!r}")


def derive_seed(master_seed: int, task_index: int) -> int:
    """Stable 64-bit sub-seed for task ``task_index`` of a master stream.

    Hash-based so that parallel workers can claim tasks in any order and
    still regenerate identical streams.
    """
    if task_index < 0:
        raise InvalidArgumentError("task_index must be non-negative")
    payload = (
        b"balanced-spectra"
        + (int(master_seed) % _SEED_MOD).to_bytes(8, "big")
        + int(task_index).to_bytes(8, "big")
    )
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


@dataclass(frozen=True, eq=False)
class InputSequence:
    """A seeded realization of the input sequence {x_i}."""

    values: np.ndarray
    dist: Distribution
    seed: int

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def length(self) -> int:
        return int(self.values.size)


def generate_sequence(dist: Distribution, length: int, seed: int) -> InputSequence:
    """Draw ``length`` i.i.d. standardized values, deterministically in ``seed``."""
    if length < 1:
        raise InvalidArgumentError("length must be >= 1")
    rng = np.random.Generator(np.random.PCG64(int(seed) % _SEED_MOD))
    if dist is Distribution.STANDARD_NORMAL:
        values = rng.standard_normal(length)
    elif dist is Distribution.RADEMACHER:
        values = rng.integers(0, 2, size=length).astype(np.float64) * 2.0 - 1.0
    elif dist is Distribution.BOUNDED_UNIFORM:
        values = rng.uniform(-_SQRT3, _SQRT3, size=length)
    else:  # pragma: no cover - enum is closed
        raise InvalidArgumentError(f"unknown distribution {dist!r}")
    return InputSequence(values=values, dist=dist, seed=int(seed) % _SEED_MOD)


def truncation_moments(dist: Distribution, t: float) -> tuple[float, float]:
    """Closed-form mean and standard deviation of ``x * 1(|x| <= t)``.

    All three laws are symmetric, so the truncated mean is 0; only the
    truncated second moment varies.  Raises ``DegenerateTruncationError``
    when the clipped variable is almost surely constant.
    """
    if not t > 0.0:  # NaN too
        raise InvalidArgumentError(f"truncation level t must be positive, got {t}")
    if dist is Distribution.STANDARD_NORMAL:
        # E[x^2 1(|x|<=t)] = erf(t/sqrt(2)) - t * sqrt(2/pi) * exp(-t^2/2); the
        # second term is 0 at t = inf, where the product would read inf * 0 = NaN
        var = math.erf(t / math.sqrt(2.0))
        if t < math.inf:
            var -= t * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * t * t)
    elif dist is Distribution.RADEMACHER:
        var = 1.0 if t >= 1.0 else 0.0
    elif dist is Distribution.BOUNDED_UNIFORM:
        var = 1.0 if t >= _SQRT3 else t**3 / (3.0 * _SQRT3)
    else:  # pragma: no cover - enum is closed
        raise InvalidArgumentError(f"unknown distribution {dist!r}")
    if var <= 0.0:
        raise DegenerateTruncationError(
            f"truncation at t={t} degenerates {dist.value} input (sigma(t)=0)"
        )
    return 0.0, math.sqrt(var)


def truncate_standardize(seq: InputSequence, t: float) -> InputSequence:
    """Clip at ``t``, subtract the truncated mean, divide by the truncated sd.

    The output is bounded by (t + |mu(t)|)/sigma(t) and has population mean 0
    and variance 1.  Rademacher input with t >= 1 is a fixed point.
    """
    mu, sigma = truncation_moments(seq.dist, t)
    x = seq.values
    clipped = np.where(np.abs(x) <= t, x, 0.0)
    return InputSequence(values=(clipped - mu) / sigma, dist=seq.dist, seed=seq.seed)
