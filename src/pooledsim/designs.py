"""Random bipartite pooling designs: Bernoulli, one-sided regular, doubly regular.

All generators are pure functions of (spec, rng).  Graphs are stored as the
multiset of (agent, query) pairs in lexicographic order, which doubles as the
canonical on-disk edge-list format.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable

import numpy as np

__all__ = [
    "FAMILIES",
    "DesignSpec",
    "DegreeSequence",
    "PoolingGraph",
    "SimplificationError",
    "degree_sequence",
    "generate",
    "generate_bernoulli",
    "generate_one_sided",
    "generate_doubly_regular",
    "simplify",
    "distinct_degrees",
    "theoretical_gamma_window",
    "write_edge_list",
    "read_edge_list",
]

FAMILIES = ("bernoulli", "one_sided_regular", "doubly_regular")

# Chunk size (in matrix cells) for the dense samplers, keeps memory bounded.
_CHUNK_CELLS = 8_000_000

_MAX_SWAP_FACTOR = 100


class SimplificationError(RuntimeError):
    """Swap repair did not reach a simple graph within the attempt budget."""


@dataclass(frozen=True)
class DesignSpec:
    """Parameters of a pooling design.

    gamma is the number of agents per query (exact for the regular families,
    expected for Bernoulli).
    """

    n: int
    m: int
    gamma: int
    family: str
    allow_multi: bool = False

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown design family {self.family!r}, expected one of {FAMILIES}")
        for name, value in (("n", self.n), ("m", self.m), ("gamma", self.gamma)):
            if value < 1:
                raise ValueError(f"design parameter {name} must be at least 1, got {value}")
        if self.family == "bernoulli" and self.allow_multi:
            raise ValueError("bernoulli designs are simple by construction")
        if (self.family == "bernoulli" or not self.allow_multi) and self.gamma > self.n:
            raise ValueError(
                f"gamma={self.gamma} agents per query do not fit into n={self.n} "
                "agents without multi-edges"
            )


@dataclass(frozen=True, eq=False)
class DegreeSequence:
    """Agent degrees with max - min <= 1 summing to m * gamma."""

    degrees: np.ndarray

    @property
    def average(self) -> float:
        return float(self.degrees.sum()) / self.degrees.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DegreeSequence):
            return NotImplemented
        return np.array_equal(self.degrees, other.degrees)


def degree_sequence(n: int, m: int, gamma: int, rng: np.random.Generator) -> DegreeSequence:
    """Split m * gamma edge endpoints over n agents as evenly as possible.

    The (m * gamma mod n) agents receiving the larger degree are chosen
    uniformly at random so that no index is systematically favoured.
    """
    if min(n, m, gamma) < 1:
        raise ValueError("n, m and gamma must all be at least 1")
    total = m * gamma
    base, extra = divmod(total, n)
    degrees = np.full(n, base, dtype=np.int64)
    if extra:
        degrees[rng.choice(n, size=extra, replace=False)] += 1
    degrees.setflags(write=False)
    return DegreeSequence(degrees=degrees)


@dataclass(frozen=True, eq=False)
class PoolingGraph:
    """Bipartite multigraph between agents and queries.

    Edges are stored as unique (agent, query) pairs with multiplicities, sorted
    lexicographically.  ``gamma`` carries the design's nominal agents-per-query
    so decoder centering can be computed from the graph alone.
    """

    n_agents: int
    n_queries: int
    gamma: int
    edge_agents: np.ndarray
    edge_queries: np.ndarray
    edge_mult: np.ndarray

    @classmethod
    def from_pairs(
        cls,
        n_agents: int,
        n_queries: int,
        gamma: int,
        agents: np.ndarray,
        queries: np.ndarray,
    ) -> "PoolingGraph":
        """Build the canonical form from a (possibly repeated) pair listing."""
        agents = np.asarray(agents, dtype=np.int64).ravel()
        queries = np.asarray(queries, dtype=np.int64).ravel()
        if agents.size != queries.size:
            raise ValueError("agent and query endpoint arrays differ in length")
        if agents.size:
            if agents.min() < 0 or agents.max() >= n_agents:
                raise ValueError("agent index out of range")
            if queries.min() < 0 or queries.max() >= n_queries:
                raise ValueError("query index out of range")
        keys = agents * np.int64(n_queries) + queries
        uniq, mult = np.unique(keys, return_counts=True)
        ea = uniq // n_queries
        eq = uniq % n_queries
        for arr in (ea, eq, mult):
            arr.setflags(write=False)
        return cls(
            n_agents=n_agents,
            n_queries=n_queries,
            gamma=gamma,
            edge_agents=ea,
            edge_queries=eq,
            edge_mult=mult,
        )

    @cached_property
    def agent_degrees(self) -> np.ndarray:
        """Per-agent edge counts, multiplicities included."""
        deg = np.bincount(self.edge_agents, weights=self.edge_mult, minlength=self.n_agents)
        deg = deg.astype(np.int64)
        deg.setflags(write=False)
        return deg

    @cached_property
    def query_degrees(self) -> np.ndarray:
        """Per-query edge counts, multiplicities included."""
        deg = np.bincount(self.edge_queries, weights=self.edge_mult, minlength=self.n_queries)
        deg = deg.astype(np.int64)
        deg.setflags(write=False)
        return deg

    @cached_property
    def distinct_agent_degrees(self) -> np.ndarray:
        """Per-agent number of distinct incident queries."""
        deg = np.bincount(self.edge_agents, minlength=self.n_agents).astype(np.int64)
        deg.setflags(write=False)
        return deg

    @property
    def total_reads(self) -> int:
        return int(self.edge_mult.sum())

    @property
    def is_simple(self) -> bool:
        return bool(self.edge_mult.size == 0 or self.edge_mult.max() == 1)

    @cached_property
    def _expanded(self) -> tuple[np.ndarray, np.ndarray]:
        agents = np.repeat(self.edge_agents, self.edge_mult)
        queries = np.repeat(self.edge_queries, self.edge_mult)
        agents.setflags(write=False)
        queries.setflags(write=False)
        return agents, queries

    def expanded(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge instances with multiplicity, in sorted (agent, query) order."""
        return self._expanded

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PoolingGraph):
            return NotImplemented
        return (
            self.n_agents == other.n_agents
            and self.n_queries == other.n_queries
            and self.gamma == other.gamma
            and np.array_equal(self.edge_agents, other.edge_agents)
            and np.array_equal(self.edge_queries, other.edge_queries)
            and np.array_equal(self.edge_mult, other.edge_mult)
        )


def distinct_degrees(graph: PoolingGraph) -> np.ndarray:
    """Number of distinct queries each agent appears in."""
    return graph.distinct_agent_degrees


def generate(spec: DesignSpec, rng: np.random.Generator) -> PoolingGraph:
    """Generate a pooling graph for any design family."""
    if spec.family == "bernoulli":
        return generate_bernoulli(spec, rng)
    if spec.family == "one_sided_regular":
        return generate_one_sided(spec, rng)
    return generate_doubly_regular(spec, rng)


def generate_bernoulli(spec: DesignSpec, rng: np.random.Generator) -> PoolingGraph:
    """Independent coin flip per (agent, query) pair with edge probability gamma / n."""
    if spec.family != "bernoulli":
        raise ValueError(f"spec family is {spec.family!r}, expected 'bernoulli'")
    p_edge = spec.gamma / spec.n
    agents_parts: list[np.ndarray] = []
    queries_parts: list[np.ndarray] = []
    rows_per_chunk = max(1, _CHUNK_CELLS // spec.n)
    for start in range(0, spec.m, rows_per_chunk):
        rows = min(rows_per_chunk, spec.m - start)
        mask = rng.random((rows, spec.n)) < p_edge
        q_idx, a_idx = np.nonzero(mask)
        agents_parts.append(a_idx)
        queries_parts.append(q_idx + start)
    agents = np.concatenate(agents_parts)
    queries = np.concatenate(queries_parts)
    return PoolingGraph.from_pairs(spec.n, spec.m, spec.gamma, agents, queries)


def _uniform_subsets(n: int, m: int, gamma: int, rng: np.random.Generator) -> np.ndarray:
    """m independent uniform gamma-subsets of range(n), as an (m, gamma) array."""
    if gamma == n:
        return np.tile(np.arange(n, dtype=np.int64), (m, 1))
    out = np.empty((m, gamma), dtype=np.int64)
    rows_per_chunk = max(1, _CHUNK_CELLS // n)
    for start in range(0, m, rows_per_chunk):
        rows = min(rows_per_chunk, m - start)
        u = rng.random((rows, n))
        out[start : start + rows] = np.argpartition(u, gamma, axis=1)[:, :gamma]
    return out


def generate_one_sided(spec: DesignSpec, rng: np.random.Generator) -> PoolingGraph:
    """Every query independently draws gamma agents.

    The multi variant draws with replacement, the simple variant draws a
    uniform gamma-subset.
    """
    if spec.family != "one_sided_regular":
        raise ValueError(f"spec family is {spec.family!r}, expected 'one_sided_regular'")
    if spec.allow_multi:
        members = rng.integers(0, spec.n, size=(spec.m, spec.gamma))
    else:
        members = _uniform_subsets(spec.n, spec.m, spec.gamma, rng)
    queries = np.repeat(np.arange(spec.m, dtype=np.int64), spec.gamma)
    return PoolingGraph.from_pairs(spec.n, spec.m, spec.gamma, members.ravel(), queries)


def generate_doubly_regular(spec: DesignSpec, rng: np.random.Generator) -> PoolingGraph:
    """Configuration model matching gamma-regular queries to a balanced degree sequence.

    The m * gamma query-side stubs are matched positionally against a uniformly
    shuffled array of agent-side stubs (a Fisher-Yates shuffle, hence uniform
    over matchings).  Slots are laid out query-major: slot ``i`` belongs to
    query ``i // gamma``, so the shuffled stubs reshape into the ``(m, gamma)``
    member matrix of the queries.  Without ``allow_multi`` that matrix is
    repaired row by row with double-edge swaps (see :func:`simplify`), which
    may raise :class:`SimplificationError`.
    """
    if spec.family != "doubly_regular":
        raise ValueError(f"spec family is {spec.family!r}, expected 'doubly_regular'")
    degrees = degree_sequence(spec.n, spec.m, spec.gamma, rng).degrees
    agent_stubs = np.repeat(np.arange(spec.n, dtype=np.int64), degrees)
    members = rng.permutation(agent_stubs).reshape(spec.m, spec.gamma)
    del agent_stubs
    if not spec.allow_multi:
        members = _repair_slots(members, spec.n, rng)
    slot_queries = np.repeat(np.arange(spec.m, dtype=np.int64), spec.gamma)
    return PoolingGraph.from_pairs(spec.n, spec.m, spec.gamma, members.ravel(), slot_queries)


def simplify(graph: PoolingGraph, rng: np.random.Generator) -> PoolingGraph:
    """Remove multi-edges by degree-preserving double-edge swaps.

    While an edge (u, a) with multiplicity >= 2 exists, a uniformly random
    other edge instance (v, b) is drawn and the pair is rewired to
    {(u, b), (v, a)} whenever that creates no new duplicate.  Swaps are
    proposed in batches; proposals that conflict within a batch are rejected
    and retried, which preserves the per-swap validity rule.  Both degree
    vectors are invariant under every swap.  Raises SimplificationError after
    100 * |E| attempted swaps.

    The edge instances are regrouped query-major into an ``(m, gamma)``
    member matrix, with each query's agents in ascending order, and repaired
    by the same row-wise routine as :func:`generate_doubly_regular`.
    Duplicates can only occur inside a row, so they are found by sorting each
    row.  The matrix needs every query to have the same degree; a non-simple
    graph whose query degrees differ raises ValueError.
    """
    if graph.is_simple:
        return graph
    degrees = graph.query_degrees
    if int(degrees.min()) != int(degrees.max()):
        raise ValueError(
            f"swap repair needs equal query degrees, got degrees from {int(degrees.min())} "
            f"to {int(degrees.max())}"
        )
    slot_agent, slot_query = graph.expanded()
    members = slot_agent[np.argsort(slot_query, kind="stable")]
    members = members.reshape(graph.n_queries, int(degrees[0]))
    repaired = _repair_slots(members, graph.n_agents, rng)
    return PoolingGraph.from_pairs(
        graph.n_agents, graph.n_queries, graph.gamma, repaired.ravel(), np.sort(slot_query)
    )


def _pair_counts(index: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Multiplicity of each ``query * n + agent`` key in the sorted index.

    Probing in sorted order keeps ``searchsorted`` cache-friendly.
    """
    order = np.argsort(keys)
    probes = keys[order]
    counts = np.empty(keys.size, dtype=np.int64)
    counts[order] = np.searchsorted(index, probes, side="right") - np.searchsorted(
        index, probes, side="left"
    )
    return counts


def _repair_slots(
    members: np.ndarray, n_agents: int, rng: np.random.Generator
) -> np.ndarray:
    """Swap-repair core on an ``(m, gamma)`` member matrix, in place; returns it.

    ``members`` must be a C-contiguous int64 array.  Flat slot ``i`` is query
    ``i // gamma``.  Surplus copies are the repeats of an agent within a row
    after the first in slot order, and they are repaired in
    ``(agent * m + query, slot)`` order.  Membership of a pair is looked up in
    ``index``, the rows of ``query * n + agent`` keys kept sorted, which
    flattened is one globally sorted array.
    """
    n_queries, gamma = members.shape
    if gamma > n_agents:
        raise ValueError("a query with more edges than agents cannot be made simple")
    if int(np.bincount(members.ravel(), minlength=n_agents).max(initial=0)) > n_queries:
        raise ValueError("an agent with more edges than queries cannot be made simple")

    agents = members.reshape(-1)  # a view: swaps write through to members
    total = agents.size
    m = np.int64(n_queries)
    n = np.int64(n_agents)
    budget = _MAX_SWAP_FACTOR * total
    attempts = 0
    row_keys = (np.arange(n_queries, dtype=np.int64) * n)[:, None]

    # Sorting agent * gamma + column sorts each row by agent, ties by slot.
    by_agent = members * gamma
    by_agent += np.arange(gamma)
    by_agent.sort(axis=1)
    index = by_agent // gamma
    index += row_keys
    flat_index = index.reshape(-1)

    # One repair slot per surplus copy of each duplicated pair.
    rows, cols = np.nonzero(index[:, 1:] == index[:, :-1])
    cols += 1
    dup_slots = rows * gamma + by_agent[rows, cols] % gamma
    dup_keys = (index[rows, cols] - rows * n) * m + rows
    del by_agent
    pending = dup_slots[np.lexsort((dup_slots, dup_keys))]

    while pending.size:
        if attempts >= budget:
            raise SimplificationError(
                f"no simple graph reached within {budget} attempted swaps"
            )
        attempts += pending.size
        partners = rng.integers(0, total, size=pending.size)
        u = agents[pending]
        a = pending // gamma
        v = agents[partners]
        b = partners // gamma
        new_ub = b * n + u
        new_va = a * n + v

        probes = np.concatenate([new_ub, new_va])
        ub_count, va_count = _pair_counts(flat_index, probes).reshape(2, -1)
        ok = (u != v) & (a != b) & (ub_count == 0) & (va_count == 0)
        # No two swaps in a batch may touch the same slot ...
        touched, touched_counts = np.unique(np.concatenate([pending, partners]), return_counts=True)
        busy = touched[touched_counts > 1]
        if busy.size:
            ok &= ~np.isin(pending, busy)
            ok &= ~np.isin(partners, busy)
        # ... nor create the same new pair.
        proposed, proposed_counts = np.unique(np.concatenate([new_ub, new_va]), return_counts=True)
        clashing = proposed[proposed_counts > 1]
        if clashing.size:
            ok &= ~np.isin(new_ub, clashing)
            ok &= ~np.isin(new_va, clashing)

        applied = np.flatnonzero(ok)
        if applied.size:
            agents[pending[applied]] = v[applied]
            agents[partners[applied]] = u[applied]
            changed = np.unique(np.concatenate([a[applied], b[applied]]))
            resorted = members[changed]
            resorted.sort(axis=1)
            resorted += row_keys[changed]
            index[changed] = resorted

        # A rejected slot kept its agent (a slot both pending and a partner is
        # busy), so the survivors stay in (agent * m + query, slot) order with
        # the copies of one pair adjacent.
        remaining = pending[~ok]
        if remaining.size:
            # Partner-side rewires can shrink a pair's multiplicity, so cap the
            # surviving repair slots at (current multiplicity - 1) per pair.
            rem_keys = (remaining // gamma) * n + agents[remaining]
            run_start = np.flatnonzero(np.diff(rem_keys, prepend=-1))
            run_len = np.diff(run_start, append=remaining.size)
            surplus = _pair_counts(flat_index, rem_keys[run_start]) - 1
            pos_in_run = np.arange(remaining.size) - np.repeat(run_start, run_len)
            pending = remaining[pos_in_run < np.repeat(surplus, run_len)]
        else:
            pending = remaining

    return members


def theoretical_gamma_window(n: int, m: int, p: float, delta: float = 0.05) -> tuple[float, float]:
    """Admissibility window [n^delta * sqrt(n / (m p)), n^(1 - delta)] for gamma.

    Desk-scale runs legitimately sit outside this asymptotic regime, so callers
    should warn rather than reject when gamma falls outside.
    """
    if not 0 < p <= 1:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    lo = n**delta * math.sqrt(n / (m * p))
    hi = n ** (1.0 - delta)
    return lo, hi


def write_edge_list(stream: IO[str], graph: PoolingGraph, family: str, allow_multi: bool) -> None:
    """Write the canonical edge-list text format.

    Header line is ``n m gamma family multi``; every following line is an
    ``agent query multiplicity`` triple in lexicographic order.
    """
    multi = "true" if allow_multi else "false"
    stream.write(f"{graph.n_agents} {graph.n_queries} {graph.gamma} {family} {multi}\n")
    for agent, query, mult in zip(
        graph.edge_agents.tolist(), graph.edge_queries.tolist(), graph.edge_mult.tolist()
    ):
        stream.write(f"{agent} {query} {mult}\n")


def read_edge_list(lines: Iterable[str]) -> tuple[DesignSpec, PoolingGraph]:
    """Parse the canonical edge-list format back into a spec and graph."""
    it = iter(lines)
    try:
        header = next(it)
    except StopIteration:
        raise ValueError("empty edge-list input") from None
    parts = header.split()
    if len(parts) != 5:
        raise ValueError(f"malformed header {header!r}, expected 'n m gamma family multi'")
    n, m, gamma = (int(x) for x in parts[:3])
    family = parts[3]
    if parts[4] not in ("true", "false"):
        raise ValueError(f"malformed multi flag {parts[4]!r}, expected 'true' or 'false'")
    allow_multi = parts[4] == "true"
    spec = DesignSpec(n=n, m=m, gamma=gamma, family=family, allow_multi=allow_multi)
    agents: list[int] = []
    queries: list[int] = []
    mults: list[int] = []
    for lineno, line in enumerate(it, start=2):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 3:
            raise ValueError(f"line {lineno}: expected 'agent query multiplicity' triple")
        agents.append(int(fields[0]))
        queries.append(int(fields[1]))
        mults.append(int(fields[2]))
    agent_arr = np.repeat(np.asarray(agents, dtype=np.int64), np.asarray(mults, dtype=np.int64))
    query_arr = np.repeat(np.asarray(queries, dtype=np.int64), np.asarray(mults, dtype=np.int64))
    return spec, PoolingGraph.from_pairs(n, m, gamma, agent_arr, query_arr)
