"""Core domain types: hidden bit vectors, the read-noise channel, recovery metrics."""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "BernoulliPrior",
    "FixedPrior",
    "Prior",
    "GroundTruth",
    "ChannelMatrix",
    "RecoveryReport",
    "sample_ground_truth",
    "eps_recovery",
]


@dataclass(frozen=True)
class BernoulliPrior:
    """Each agent holds bit one independently with probability ``p``."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"prior probability must lie in [0, 1], got {self.p}")


@dataclass(frozen=True)
class FixedPrior:
    """A uniformly random subset of exactly ``k`` agents holds bit one."""

    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _check_int(self.k, "fixed one-count"))
        if self.k < 0:
            raise ValueError(f"fixed one-count must be non-negative, got {self.k}")


Prior = BernoulliPrior | FixedPrior


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Hidden 0/1 bit vector, one entry per agent, kept as a read-only copy of the input."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        bits = np.array(self.bits)
        if bits.ndim != 1:
            raise ValueError("bits must be a one-dimensional vector")
        if ((bits != 0) & (bits != 1)).any():
            raise ValueError("bits must be 0/1 valued")
        bits.setflags(write=False)  # ones is cached
        object.__setattr__(self, "bits", bits)

    @property
    def n(self) -> int:
        return self.bits.size

    @cached_property
    def ones(self) -> int:
        """Number of one-bits."""
        return int(np.count_nonzero(self.bits))


@dataclass(frozen=True)
class ChannelMatrix:
    """Read-noise channel: probabilities of reading a sent bit as one.

    ``s11`` is the probability that a one-bit is read as one and ``s01`` the
    probability that a zero-bit is read as one; the complementary entries are
    ``s10 = 1 - s11`` and ``s00 = 1 - s01``.  A channel is only
    valid when reading a one is strictly more likely for a true one-bit,
    i.e. ``s11 - s01 > 0``.
    """

    s11: float
    s01: float

    def __post_init__(self) -> None:
        for name, value in (("s11", self.s11), ("s01", self.s01)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"channel entry {name} must lie in [0, 1], got {value}")
        if not self.s11 - self.s01 > 0.0:
            raise ValueError(
                f"channel must satisfy s11 - s01 > 0, got s11={self.s11}, s01={self.s01}"
            )

    @classmethod
    def identity(cls) -> "ChannelMatrix":
        """Noise-free channel: every bit is read exactly as sent."""
        return cls(s11=1.0, s01=0.0)

    @classmethod
    def z_channel(cls, s10: float) -> "ChannelMatrix":
        """False negatives only: one-bits flip to zero with probability ``s10``."""
        return cls(s11=1.0 - s10, s01=0.0)


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of comparing an estimate against the ground truth."""

    hamming: int
    overlap: float
    eps_ok: bool


def sample_ground_truth(n: int, prior: Prior, rng: np.random.Generator) -> GroundTruth:
    """Draw a hidden bit vector of length ``n`` from the given prior."""
    if n < 1:
        raise ValueError(f"number of agents must be at least 1, got {n}")
    if isinstance(prior, BernoulliPrior):
        bits = (rng.random(n) < prior.p).astype(np.int8)
    elif isinstance(prior, FixedPrior):
        if prior.k > n:
            raise ValueError(f"fixed one-count {prior.k} exceeds number of agents {n}")
        bits = np.zeros(n, dtype=np.int8)
        if prior.k:
            bits[rng.choice(n, size=prior.k, replace=False)] = 1
    else:
        raise TypeError(f"unsupported prior: {prior!r}")
    return GroundTruth(bits)


def eps_recovery(truth: GroundTruth, estimate: np.ndarray, epsilon: float) -> RecoveryReport:
    """Hamming distance and overlap of the estimate, against the budget ``2 * epsilon * ones``.

    The overlap is the fraction of true one-bits that the estimate also
    classifies as one; when the truth has no one-bits it is reported as 1.0
    (vacuous recovery), so the report stays well-formed.
    """
    _check_epsilon(epsilon)
    estimate = np.asarray(estimate)
    if estimate.ndim != 1:
        raise ValueError(f"estimate must be a one-dimensional vector, got shape {estimate.shape}")
    if estimate.size != truth.n:
        raise ValueError(f"length mismatch: {truth.n} vs {estimate.size}")
    dist = int(np.count_nonzero(truth.bits != estimate))
    hits = int(np.count_nonzero((truth.bits == 1) & (estimate == 1)))
    return RecoveryReport(
        hamming=dist,
        overlap=hits / truth.ones if truth.ones else 1.0,
        eps_ok=dist <= 2.0 * epsilon * truth.ones,
    )


def _check_epsilon(epsilon: float) -> None:
    """Raise ValueError unless epsilon is a finite number above zero."""
    if not epsilon > 0:  # NaN too
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if epsilon == float("inf"):
        raise ValueError(f"epsilon must be finite, got {epsilon}")


def _check_int(value: object, name: str) -> int:
    """``value`` as a Python int, by ``operator.index``; else ValueError naming it ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
