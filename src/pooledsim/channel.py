"""Noisy additive queries: every edge reads its agent's bit through the channel."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import PoolingGraph
from .model import ChannelMatrix, GroundTruth

__all__ = ["QueryOutcomes", "run_queries", "effective_p"]


@dataclass(frozen=True, eq=False)
class QueryOutcomes:
    """Per-query noisy sums of the incident agents' read bits."""

    results: np.ndarray


def run_queries(
    graph: PoolingGraph,
    truth: GroundTruth,
    channel: ChannelMatrix,
    rng: np.random.Generator,
) -> QueryOutcomes:
    """Simulate all queries as per-query binomials.

    Each edge copy reads its agent's bit independently, so a query with ``c``
    one-bit reads among ``d`` reads returns Binomial(c, s11) + Binomial(d - c,
    s01), drawn in query order.  A read probability of 0 or 1 draws nothing:
    the identity channel gives exact member sums and leaves ``rng`` as it was.
    """
    if truth.n != graph.n_agents:
        raise ValueError(f"truth has {truth.n} agents but graph has {graph.n_agents}")
    edges = graph.agent_edges(np.flatnonzero(truth.bits))
    one_reads = np.zeros(graph.n_queries, dtype=np.int64)
    np.add.at(one_reads, graph.edge_queries[edges], graph.edge_mult[edges])  # exact int64 counts
    results = _binomial(one_reads, channel.s11, rng)
    if channel.s01:  # under s01 = 0 the zero-bit reads add 0 and would draw nothing
        results += _binomial(graph.query_degrees - one_reads, channel.s01, rng)
    results.setflags(write=False)
    return QueryOutcomes(results=results)


def _binomial(counts: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    """Binomial(counts, p) through the smaller of p and 1 - p, so p in {0, 1} draws nothing."""
    if p > 0.5:
        return counts - rng.binomial(counts, 1.0 - p)
    return rng.binomial(counts, p)


def effective_p(p: float, channel: ChannelMatrix) -> float:
    """Probability that a random read comes back one under prior p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return p * (channel.s11 - channel.s01) + channel.s01
