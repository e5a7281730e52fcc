"""Seeded Monte-Carlo harness: single trials, sweeps over m and design families.

Every trial draws all of its randomness from a seed derived hierarchically
from (base seed, m, family stream id, trial index), so adding grid points or
changing the worker count never perturbs existing trials.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from .channel import run_queries
from .decoder import (
    ThresholdUndefinedError,
    compute_score_vector,
    decode,
    rate_constant,
    threshold_fraction,
)
from .designs import DesignSpec, SimplificationError, generate
from .model import (
    ChannelMatrix,
    FixedPrior,
    GroundTruth,
    Prior,
    _check_epsilon,
    eps_recovery,
    sample_ground_truth,
)

__all__ = [
    "FAMILY_STREAM_IDS",
    "TrialConfig",
    "TrialResult",
    "TrialDetail",
    "AggregateRow",
    "derive_seed",
    "wilson_interval",
    "run_trial",
    "run_trial_detailed",
    "run_sweep",
]

_MASK64 = (1 << 64) - 1
_INDEX_SALT = 0x9E3779B97F4A7C15  # odd constant, golden-ratio based

# Stream ids keep the (family, multi) variants on disjoint random streams.
FAMILY_STREAM_IDS = {
    ("bernoulli", False): 0,
    ("one_sided_regular", False): 1,
    ("one_sided_regular", True): 2,
    ("doubly_regular", False): 3,
    ("doubly_regular", True): 4,
}

_WILSON_Z = 1.96  # two-sided 95%


def _mix64(state: int) -> int:
    """splitmix64 finalizer."""
    state &= _MASK64
    state ^= state >> 30
    state = (state * 0xBF58476D1CE4E5B9) & _MASK64
    state ^= state >> 27
    state = (state * 0x94D049BB133111EB) & _MASK64
    state ^= state >> 31
    return state


def derive_seed(base: int, indices: Iterable[int] = ()) -> int:
    """Mix a base seed with an index tuple into an independent 64-bit seed.

    The splitmix64 finalizer is applied to the base, then re-applied after
    xoring in each salted index left-to-right.  Distinct index tuples yield
    distinct streams with overwhelming probability.
    """
    state = _mix64(base)
    for index in indices:
        state = _mix64(state ^ ((_INDEX_SALT * index) & _MASK64))
    return state


def _check_seed(seed: int) -> int:
    """Return ``seed``; raise ValueError unless it lies in [0, 2**64)."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    z2 = _WILSON_Z * _WILSON_Z
    phat = successes / trials
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = (
        _WILSON_Z
        * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
        / denom
    )
    # guard the bracketing invariant against float rounding at the endpoints
    low = min(max(center - half, 0.0), phat)
    high = max(min(center + half, 1.0), phat)
    return low, high


@dataclass(frozen=True)
class TrialConfig:
    """Everything a trial needs except the query count and trial index.

    ``design`` acts as a template: run_trial overrides its m, and run_sweep
    additionally overrides family and allow_multi per sweep point.  Under a
    fixed-k prior the decoder's p defaults to k/n unless ``p_for_threshold``
    is given explicitly.
    """

    design: DesignSpec
    prior: Prior
    channel: ChannelMatrix
    epsilon: float
    base_seed: int
    p_for_threshold: float | None = None

    def __post_init__(self) -> None:
        _check_epsilon(self.epsilon)
        _check_seed(self.base_seed)
        if isinstance(self.prior, FixedPrior) and self.prior.k > self.design.n:
            raise ValueError(f"fixed one-count {self.prior.k} exceeds n={self.design.n}")
        p = self.resolved_p()
        if not 0.0 < p < 1.0:
            raise ValueError(f"decoder prior must lie in (0, 1), resolved to {p}")

    def resolved_p(self) -> float:
        if self.p_for_threshold is not None:
            return self.p_for_threshold
        if isinstance(self.prior, FixedPrior):
            return self.prior.k / self.design.n
        return self.prior.p


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one trial; failures carry a tag and sentinel metrics."""

    m: int
    family: str
    multi: bool
    success90: bool
    overlap: float
    eps_ok: bool
    hamming: int
    seed: int
    failure: str | None = None


@dataclass(frozen=True)
class TrialDetail:
    """TrialResult plus the per-agent arrays, for single-trial inspection."""

    result: TrialResult
    truth: GroundTruth
    estimate: np.ndarray | None
    scores: np.ndarray | None
    centers: np.ndarray | None
    thresholds: np.ndarray | None


@dataclass(frozen=True)
class AggregateRow:
    """Aggregated outcomes for one (family, multi, m) sweep point."""

    family: str
    multi: bool
    m: int
    trials: int
    successes: int
    success_rate: float
    ci_low: float
    ci_high: float
    mean_overlap: float
    failures: int


def _failed_trial(
    design: DesignSpec, truth: GroundTruth, seed: int, tag: str
) -> TrialDetail:
    result = TrialResult(
        m=design.m,
        family=design.family,
        multi=design.allow_multi,
        success90=False,
        overlap=0.0,
        eps_ok=False,
        hamming=truth.ones,
        seed=seed,
        failure=tag,
    )
    return TrialDetail(result, truth, None, None, None, None)


def run_trial_detailed(config: TrialConfig, m: int, trial_index: int) -> TrialDetail:
    """One full pipeline run: truth, graph, queries, scores, decode, metrics."""
    design = replace(config.design, m=m)
    stream_id = FAMILY_STREAM_IDS[(design.family, design.allow_multi)]
    seed = derive_seed(config.base_seed, [m, stream_id, trial_index])
    rng = np.random.default_rng(seed)
    truth = sample_ground_truth(design.n, config.prior, rng)
    p = config.resolved_p()
    # The threshold depends on (n, p, channel, m) alone: check it before
    # paying for the design and the queries.
    try:
        threshold_fraction(rate_constant(design.n, p, config.channel), m, p)
    except ThresholdUndefinedError:
        return _failed_trial(design, truth, seed, "threshold_undefined")
    try:
        graph = generate(design, rng)
    except SimplificationError:
        return _failed_trial(design, truth, seed, "simplification_failed")
    outcomes = run_queries(graph, truth, config.channel, rng)
    vector = compute_score_vector(graph, outcomes, p, config.channel, m)
    estimate = decode(vector.scores, vector.centers, vector.thresholds)
    report = eps_recovery(truth, estimate, config.epsilon)
    result = TrialResult(
        m=m,
        family=design.family,
        multi=design.allow_multi,
        success90=report.overlap > 0.9,
        overlap=report.overlap,
        eps_ok=report.eps_ok,
        hamming=report.hamming,
        seed=seed,
    )
    return TrialDetail(result, truth, estimate, vector.scores, vector.centers, vector.thresholds)


def run_trial(config: TrialConfig, m: int, trial_index: int) -> TrialResult:
    """Like run_trial_detailed but returning only the summary result."""
    return run_trial_detailed(config, m, trial_index).result


def _sweep_task(config: TrialConfig, task: tuple[int, str, bool, int]) -> TrialResult:
    m, family, multi, trial_index = task
    pointed = replace(config, design=replace(config.design, family=family, allow_multi=multi))
    return run_trial(pointed, m, trial_index)


def _aggregate(
    family: str, multi: bool, m: int, results: Sequence[TrialResult]
) -> AggregateRow:
    trials = len(results)
    successes = sum(1 for r in results if r.success90)
    failures = sum(1 for r in results if r.failure is not None)
    ci_low, ci_high = wilson_interval(successes, trials)
    mean_overlap = float(np.mean([r.overlap for r in results]))
    return AggregateRow(
        family=family,
        multi=multi,
        m=m,
        trials=trials,
        successes=successes,
        success_rate=successes / trials,
        ci_low=ci_low,
        ci_high=ci_high,
        mean_overlap=mean_overlap,
        failures=failures,
    )


def run_sweep(
    config: TrialConfig,
    m_grid: Sequence[int],
    families: Sequence[tuple[str, bool]],
    trials_per_point: int,
    workers: int = 1,
) -> list[AggregateRow]:
    """Run trials for every (m, family, multi) point and aggregate them.

    The output is independent of the worker count: trials are keyed by their
    seed-derived indices and rows are sorted by (family, multi, m).  A
    repeated m or family variant raises ValueError, since its row would count
    the same seeded trials more than once.
    """
    if not m_grid or not families or trials_per_point < 1:
        raise ValueError("m grid, families and trials_per_point must be non-empty/positive")
    for family, multi in families:
        if (family, multi) not in FAMILY_STREAM_IDS:
            raise ValueError(f"unknown family variant ({family!r}, multi={multi})")
    if len(set(m_grid)) < len(m_grid) or len(set(families)) < len(families):
        raise ValueError("m grid and families must not repeat a sweep point")
    # The largest m go out first: their trials take longest, so a worker
    # that draws them last would finish alone.
    tasks = [
        (m, family, multi, index)
        for m in sorted(m_grid, reverse=True)
        for family, multi in families
        for index in range(trials_per_point)
    ]
    # A pool forks all of its workers up front, so it gets no more than tasks.
    workers = min(workers, len(tasks))
    if workers > 1:
        chunksize = max(1, len(tasks) // (8 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(partial(_sweep_task, config), tasks, chunksize=chunksize))
    else:
        results = [_sweep_task(config, task) for task in tasks]

    grouped: dict[tuple[str, bool, int], list[TrialResult]] = {}
    for (m, family, multi, _), result in zip(tasks, results):
        grouped.setdefault((family, multi, m), []).append(result)
    rows = [
        _aggregate(family, multi, m, grouped[(family, multi, m)])
        for family, multi, m in sorted(grouped)
    ]
    return rows
