"""Threshold decoder: scores, centering, decision thresholds, and query bounds.

All logarithms are natural.  The decoder never needs the realized number of
one-bits; it is parameterized by the prior probability p alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import QueryOutcomes, effective_p
from .designs import PoolingGraph
from .model import ChannelMatrix

__all__ = [
    "DegenerateChannelError",
    "ThresholdUndefinedError",
    "ScoreVector",
    "BoundReport",
    "rate_constant",
    "threshold_fraction",
    "decode",
    "compute_score_vector",
    "required_queries",
    "counting_bound",
    "entropy",
]


class DegenerateChannelError(ValueError):
    """The effective positive-read probability vanishes, so no rate exists."""


class ThresholdUndefinedError(ValueError):
    """Too few queries: the optimal threshold fraction would leave (0, 1)."""


@dataclass(frozen=True, eq=False)
class ScoreVector:
    """Per-agent raw scores, centering terms, and decision thresholds."""

    scores: np.ndarray
    centers: np.ndarray
    thresholds: np.ndarray


@dataclass(frozen=True)
class BoundReport:
    """Closed-form query bounds and error exponents for one parameter point.

    ``bound`` is the real-valued right-hand side of the main query bound,
    ``m_min`` the smallest integer strictly above it, and ``m_floor`` the
    smallest integer count at which the threshold is defined at all.  The
    exponents fraction^2 * rate * m and (1 - fraction)^2 * rate * m, and the
    Markov tails on more than epsilon * n * p misclassifications on either
    side, are evaluated at m = m_min.
    """

    rate: float
    bound: float
    m_min: int
    m_floor: int
    threshold_fraction: float
    fp_exponent: float
    fn_exponent: float
    fp_tail: float
    fn_tail: float


def rate_constant(n: int, p: float, channel: ChannelMatrix) -> float:
    """Per-query rate (s11 - s01)^2 / (2 n p_S) governing the error exponents."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    p_s = effective_p(p, channel)
    if p_s <= 0.0:
        raise DegenerateChannelError(
            "effective positive-read probability is zero (p = 0 and s01 = 0)"
        )
    diff = channel.s11 - channel.s01
    return diff * diff / (2.0 * n * p_s)


def _log_inv(p: float) -> float:
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    return math.log(1.0 / p)


def threshold_fraction(rate: float, m: int, p: float) -> float:
    """Optimal interpolation between the two conditional score means.

    Lies in [1/2, 1); requires rate * m > ln(1/p), otherwise the fraction
    would reach 1 and no separating threshold exists.
    """
    log_inv_p = _log_inv(p)
    if rate * m <= log_inv_p:
        raise ThresholdUndefinedError(
            f"rate * m = {rate * m:.6g} must exceed ln(1/p) = {log_inv_p:.6g}"
        )
    return 0.5 + log_inv_p / (2.0 * rate * m)


def decode(scores: np.ndarray, centers: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Classify agents: one iff the centered score strictly exceeds the threshold.

    Ties decode to zero.  The three inputs must be one-dimensional and of equal length.
    """
    scores, centers, thresholds = map(np.asarray, (scores, centers, thresholds))
    for name, arr in zip(("scores", "centers", "thresholds"), (scores, centers, thresholds)):
        if arr.ndim != 1:
            raise ValueError(f"{name} must be a one-dimensional vector, got shape {arr.shape}")
    if not scores.size == centers.size == thresholds.size:
        raise ValueError("scores, centers and thresholds must have equal length")
    return (scores - centers > thresholds).astype(np.int8)


def compute_score_vector(
    graph: PoolingGraph,
    outcomes: QueryOutcomes,
    p: float,
    channel: ChannelMatrix,
    m: int,
) -> ScoreVector:
    """Scores, centers and per-agent thresholds for one decoding run.

    An agent's score sums the results of its distinct queries: a query counts
    once per agent whatever the edge multiplicity.  Its center is the expected
    neighborhood contribution ``(gamma * distinct_deg - deg) * p_S`` and its
    threshold ``deg * (s01 + fraction * (s11 - s01))``.
    """
    rate = rate_constant(graph.n_agents, p, channel)
    if outcomes.results.size != graph.n_queries:
        raise ValueError(
            f"outcomes cover {outcomes.results.size} queries but graph has {graph.n_queries}"
        )
    neighborhood = graph.gamma * graph.distinct_agent_degrees - graph.agent_degrees
    fraction = threshold_fraction(rate, m, p)
    return ScoreVector(
        scores=graph.agent_sums(outcomes.results[graph.edge_queries]).astype(np.float64),
        centers=neighborhood * effective_p(p, channel),
        thresholds=graph.agent_degrees * (channel.s01 + fraction * (channel.s11 - channel.s01)),
    )


def required_queries(
    n: int, p: float, epsilon: float, delta: float, channel: ChannelMatrix
) -> BoundReport:
    """Sufficient query count for recovery with failure probability delta.

    The bound is strict, so m_min is floor(bound) + 1; m_floor is the smaller
    strict bound ln(1/p) / rate below which the threshold is undefined.  The
    main bound always dominates m_floor.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    rate = rate_constant(n, p, channel)
    log_inv_p = _log_inv(p)
    log_target = math.log(2.0 / (epsilon * delta))
    log_target_p = math.log(2.0 / (epsilon * delta * p))
    bound = (log_inv_p + 2.0 * log_target + 2.0 * math.sqrt(log_target * log_target_p)) / rate
    m_min = math.floor(bound) + 1
    m_floor = math.floor(log_inv_p / rate) + 1
    fraction = threshold_fraction(rate, m_min, p)
    fp_exponent = fraction * fraction * rate * m_min
    fn_exponent = (1.0 - fraction) ** 2 * rate * m_min
    return BoundReport(
        rate=rate,
        bound=bound,
        m_min=m_min,
        m_floor=m_floor,
        threshold_fraction=fraction,
        fp_exponent=fp_exponent,
        fn_exponent=fn_exponent,
        fp_tail=2.0 * (1.0 - p) * math.exp(-fp_exponent) / (epsilon * p),
        fn_tail=2.0 * math.exp(-fn_exponent) / epsilon,
    )


def entropy(alpha: float) -> float:
    """Natural-log entropy -a ln a - (1-a) ln(1-a), zero at both endpoints."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if alpha in (0.0, 1.0):
        return 0.0
    return -alpha * math.log(alpha) - (1.0 - alpha) * math.log(1.0 - alpha)


def counting_bound(n: int, k: int) -> float:
    """Information-theoretic lower bound 2 n H(k/n) ln(n/k) / ln(k) on queries."""
    if not 2 <= k < n:
        raise ValueError(f"counting bound requires 2 <= k < n, got k={k}, n={n}")
    return 2.0 * n * entropy(k / n) * math.log(n / k) / math.log(k)
