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
    """Simulate all queries: each edge is one independent read of its agent's bit.

    Every copy of a multi-edge is read independently, so a query's result can
    count the same agent several times.  Reads consume the random stream in the
    sorted-edge-list order, which makes outcomes a deterministic function of
    (graph, truth, channel, seed).  A deterministic channel (s11 and s01 both
    0 or 1) needs no draws: the results are exact member sums and ``rng`` is
    not advanced.
    """
    if truth.n != graph.n_agents:
        raise ValueError(f"truth has {truth.n} agents but graph has {graph.n_agents}")
    if {channel.s11, channel.s01} <= {0.0, 1.0}:
        # Only the edges of agents that read one add to a result, and every copy
        # of an edge reads the same bit: weight each edge by its multiplicity.
        ones = np.flatnonzero(np.where(truth.bits == 1, channel.s11, channel.s01))
        starts, lengths = graph.agent_starts[ones], graph.distinct_agent_degrees[ones]
        # Segment i's edges are numbered from lengths[:i].sum() on; shift them to starts[i].
        edges = np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        queries = graph.edge_queries[edges]
        weights = graph.edge_mult[edges]
    else:
        agents = np.repeat(graph.edge_agents, graph.edge_mult)
        queries = np.repeat(graph.edge_queries, graph.edge_mult)
        read_prob = np.where(truth.bits[agents] == 1, channel.s11, channel.s01)
        weights = rng.random(agents.size) < read_prob
    results = np.bincount(queries, weights=weights, minlength=graph.n_queries).astype(np.int64)
    results.setflags(write=False)
    return QueryOutcomes(results=results)


def effective_p(p: float, channel: ChannelMatrix) -> float:
    """Probability that a random read comes back one under prior p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return p * (channel.s11 - channel.s01) + channel.s01
