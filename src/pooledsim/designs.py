"""Random bipartite pooling designs: Bernoulli and doubly regular.

All generators are pure functions of (spec, rng).  A graph is stored agent
by agent: one segment of (query, multiplicity) edges per agent, queries
ascending, and the offsets of the segments.  Read in order, the segments are
the (agent, query) pairs in lexicographic order, which is also the canonical
on-disk edge-list format.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import IO, Iterable, Iterator

import numpy as np

from .model import _check_int

__all__ = [
    "FAMILIES",
    "DesignSpec",
    "PoolingGraph",
    "SimplificationError",
    "generate",
    "write_edge_list",
    "read_edge_list",
]

FAMILIES = ("bernoulli", "doubly_regular")

_MAX_SWAP_FACTOR = 100
_MAX_TABLE_CELLS = 1 << 22  # swap repair looks pairs up in a bool table up to this n * m
_MAX_OVERLAY_FRACTION = 0.01  # above that size, it rebuilds its pair overlay past this share
_EDGE_LIST_CHUNK = 65_536  # edges per edge-list write, and items per block of a non-stream input
_EDGE_LIST_BLOCK = 1 << 18  # characters per read of an edge-list stream


class SimplificationError(RuntimeError):
    """Swap repair did not reach a simple graph within the attempt budget."""


@dataclass(frozen=True)
class DesignSpec:
    """Parameters of a pooling design.

    gamma is the number of agents per query (exact for doubly regular,
    expected for Bernoulli).  Sizes are stored as Python ints, allow_multi as a bool.
    """

    n: int
    m: int
    gamma: int
    family: str
    allow_multi: bool = False

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown design family {self.family!r}, expected one of {FAMILIES}")
        for name in ("n", "m", "gamma"):
            value = _check_int(getattr(self, name), f"design parameter {name}")
            if value < 1:
                raise ValueError(f"design parameter {name} must be at least 1, got {value}")
            object.__setattr__(self, name, value)
        if not isinstance(self.allow_multi, (bool, np.bool_)):
            raise ValueError(f"allow_multi must be a bool, got {self.allow_multi!r}")
        object.__setattr__(self, "allow_multi", bool(self.allow_multi))
        if self.family == "bernoulli" and self.allow_multi:
            raise ValueError("bernoulli designs are simple by construction")
        if (self.family == "bernoulli" or not self.allow_multi) and self.gamma > self.n:
            raise ValueError(
                f"gamma={self.gamma} agents per query do not fit into n={self.n} "
                "agents without multi-edges"
            )


@dataclass(frozen=True, eq=False)
class PoolingGraph:
    """Bipartite multigraph between agents and queries, one edge segment per agent.

    Agent ``i``'s edges are ``agent_starts[i]:agent_starts[i + 1]`` of
    ``edge_queries`` (ascending within the segment) and ``edge_mult`` (each at
    least 1): a CSR layout of n + 1 int64 offsets from 0 to E and two
    E-long int64 arrays, all read-only.  ``gamma`` carries the design's
    nominal agents-per-query so decoder centering can be computed from the
    graph alone.
    """

    n_agents: int
    n_queries: int
    gamma: int
    agent_starts: np.ndarray
    edge_queries: np.ndarray
    edge_mult: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.agent_starts, self.edge_queries, self.edge_mult):
            arr.setflags(write=False)

    @cached_property
    def edge_agents(self) -> np.ndarray:
        """Each edge's agent, derived from the offsets on first access."""
        return _read_only(np.repeat(np.arange(self.n_agents), self.distinct_agent_degrees))

    def agent_edges(self, agents: np.ndarray) -> np.ndarray:
        """Edge indices of the given agents' segments, one segment after another."""
        starts, lengths = self.agent_starts[agents], self.distinct_agent_degrees[agents]
        # Segment i's edges are numbered from lengths[:i].sum() on; shift them to starts[i].
        return np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)

    def agent_sums(self, edge_values: np.ndarray) -> np.ndarray:
        """Per-agent int64 sums of a per-edge array, one segmented reduction.

        ``np.add.reduceat`` sums each segment (wrapping mod 2**64 like any
        int64 sum) over the starts of the agents that have edges: those starts
        delimit their segments exactly, and the edgeless agents sum to 0.
        """
        has_edges = self.distinct_agent_degrees > 0
        starts = self.agent_starts[:-1][has_edges]
        sums = np.zeros(self.n_agents, dtype=np.int64)
        sums[has_edges] = np.add.reduceat(edge_values, starts, dtype=np.int64)
        return sums

    @cached_property
    def agent_degrees(self) -> np.ndarray:
        """Per-agent edge counts, multiplicities included."""
        return _read_only(self.agent_sums(self.edge_mult))

    def query_sums(self, edge_values: np.ndarray) -> np.ndarray:
        """Per-query int64 sums of a per-edge array (wrapping mod 2**64 like any int64 sum)."""
        sums = np.zeros(self.n_queries, dtype=np.int64)
        np.add.at(sums, self.edge_queries, edge_values)
        return sums

    @cached_property
    def query_degrees(self) -> np.ndarray:
        """Per-query edge counts, multiplicities included."""
        return _read_only(self.query_sums(self.edge_mult))

    @cached_property
    def distinct_agent_degrees(self) -> np.ndarray:
        """Per-agent number of distinct incident queries."""
        return _read_only(np.diff(self.agent_starts))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def generate(spec: DesignSpec, rng: np.random.Generator) -> PoolingGraph:
    """Generate a pooling graph for any design family."""
    if spec.family == "bernoulli":
        keys = _bernoulli_keys(spec, rng)
    else:
        members = _doubly_regular_members(spec, rng)
        # Row q of the (m, gamma) member matrix holds query q's agents.
        key = _key_dtype(spec.n, spec.m, spec.gamma)
        keys = members.astype(key, copy=False)
        del members  # free the int64 matrix before the sort and the int64 split
        keys *= spec.m
        keys += np.arange(spec.m, dtype=key)[:, None]
        keys = keys.reshape(-1)
        keys.sort()  # a simple design's keys are all distinct, so this is canonical
    if spec.allow_multi:
        dup = np.flatnonzero(keys[1:] == keys[:-1])  # keys[dup + 1] repeats keys[dup]
        keys = np.delete(keys, dup + 1)
        mult = np.ones(keys.size, dtype=np.int64)
        # Repeat j counts once more for its run's kept key, which the deletions left at dup[j] - j.
        np.add.at(mult, dup - np.arange(dup.size), 1)
    else:
        mult = np.ones(keys.size, dtype=np.int64)
    # Agent i's keys are [i * m, (i + 1) * m): split them at the n - 1 inner multiples of m.
    inner = np.searchsorted(keys, np.arange(spec.m, spec.n * spec.m, spec.m, dtype=keys.dtype))
    starts = np.concatenate([[0], inner, [keys.size]])
    queries = np.remainder(keys, spec.m, dtype=np.int64)
    return PoolingGraph(spec.n, spec.m, spec.gamma, starts, queries, mult)


def _key_dtype(n: int, m: int, gamma: int) -> type:
    """Dtype of the pair keys of an ``(m, gamma)`` member matrix over ``n`` agents.

    Every key (``query * n + agent``, ``agent * m + query`` and
    ``agent * gamma + column``) is below ``n * max(m, gamma)``, so uint32
    holds them all up to that bound of 2**32; past it they are int64.
    """
    return np.uint32 if n * max(m, gamma) <= 2**32 else np.int64


def _bernoulli_keys(spec: DesignSpec, rng: np.random.Generator) -> np.ndarray:
    """Sorted ``agent * m + query`` keys of independent coin flips with edge probability gamma / n.

    The edges are drawn as geometric skips over the agent-major cell index
    ``agent * m + query`` (Batagelj & Brandes 2005): a geometric gap is
    memoryless, so every cell is still an independent coin flip.  The keys
    come out strictly increasing, which is already the canonical order.
    """
    p_edge = spec.gamma / spec.n
    cells = spec.n * spec.m
    mean = cells * p_edge
    block = math.ceil(mean + 6 * math.sqrt(mean * (1 - p_edge))) + 1
    return _skip_keys(cells, p_edge, block, rng)


def _skip_keys(cells: int, p_edge: float, block: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted indices below ``cells`` of the successes of independent Bernoulli(p_edge) cells.

    The gaps are drawn ``block`` at a time until the keys pass ``cells``.
    The gap sequence, and so the keys, do not depend on ``block``; the
    number of draws past the last key does.  For p_edge < 1/3 a block of
    gaps is numpy's own inversion for ``rng.geometric``, done in one vector
    pass; for p_edge >= 1/3 it is ``rng.geometric`` itself.  Either way the
    gaps and the generator state after them are those of ``rng.geometric``
    (see :func:`_geometric`).
    """
    keys = _geometric(p_edge, block, rng)
    keys[0] -= 1
    np.cumsum(keys, out=keys)
    while keys[-1] < cells:
        more = _geometric(p_edge, block, rng)
        more[0] += keys[-1]
        np.cumsum(more, out=more)
        keys = np.concatenate([keys, more])
    return keys[: np.searchsorted(keys, cells)]


def _geometric(p: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """``rng.geometric(p, size)``, drawn in one vector pass where numpy inverts.

    For p < 1/3 numpy draws each value as ``ceil(-E / log1p(-p))`` from one
    standard exponential E (Devroye 1986, section X.2), so dividing
    ``rng.standard_exponential(size)`` by ``-math.log1p(-p)``, the libm call
    numpy makes, gives the same values from the same stream.  For p >= 1/3
    numpy searches the distribution function instead.
    """
    if p >= 1 / 3:
        return rng.geometric(p, size=size)
    gaps = rng.standard_exponential(size)
    gaps /= -math.log1p(-p)  # a gap past 2**63, which numpy clamps, needs p below 5e-18
    np.ceil(gaps, out=gaps)
    return gaps.astype(np.int64)


def _doubly_regular_members(spec: DesignSpec, rng: np.random.Generator) -> np.ndarray:
    """Configuration model matching gamma-regular queries to a balanced degree sequence.

    The m * gamma stubs are split over the agents as evenly as possible; the
    (m * gamma mod n) agents with one stub more are chosen uniformly at
    random, so that no index is favoured.  The query-side stubs are matched
    positionally against a uniformly shuffled array of agent-side stubs (a
    Fisher-Yates shuffle, hence uniform over matchings).  Slots are laid out
    query-major: slot ``i`` belongs to query ``i // gamma``, so the shuffled
    stubs reshape into the ``(m, gamma)`` member matrix of the queries.
    Without ``allow_multi`` that matrix is repaired in place with
    double-edge swaps (see :func:`_repair_slots`), which may raise
    :class:`SimplificationError`; it meets the repair's precondition, as gamma <= n
    (see :class:`DesignSpec`) keeps each agent at ``ceil(m * gamma / n) <= m`` stubs.
    """
    base, extra = divmod(spec.m * spec.gamma, spec.n)
    degrees = np.full(spec.n, base, dtype=np.int64)
    if extra:
        degrees[rng.choice(spec.n, size=extra, replace=False)] += 1
    agent_stubs = np.repeat(np.arange(spec.n, dtype=np.int64), degrees)
    rng.shuffle(agent_stubs)  # what rng.permutation does, without its copy
    members = agent_stubs.reshape(spec.m, spec.gamma)
    if not spec.allow_multi:
        members = _repair_slots(members, spec.n, rng)
    return members


def _clashes(values: np.ndarray, index: np.ndarray | tuple[np.ndarray, ...] = ()) -> np.ndarray:
    """Mask of the entries of ``values`` that repeat in it or that the pair ``index`` holds.

    ``index`` is either a bool table with one cell per key, set where the key
    is held, or an overlay of three sorted arrays ``(base, added, removed)``
    in which a key counts once per copy in ``base`` and ``added`` and minus
    once per copy in ``removed``.  ``added`` and ``removed`` always have
    equal sizes: each applied swap appends two made and two broken pairs, and
    a fold empties both.
    """
    order = np.argsort(values)
    ordered = values[order]
    equal = np.concatenate([[False], ordered[1:] == ordered[:-1], [False]])  # to the left neighbour
    clash = equal[1:] | equal[:-1]
    if isinstance(index, np.ndarray):
        clash |= index[ordered]
    elif index:
        base, added, removed = index
        found = np.searchsorted(base, ordered, "right") - np.searchsorted(base, ordered)
        if added.size:
            found += np.searchsorted(added, ordered, "right") - np.searchsorted(added, ordered)
            found -= np.searchsorted(removed, ordered, "right") - np.searchsorted(removed, ordered)
        clash |= found > 0
    mask = np.empty(values.size, dtype=bool)
    mask[order] = clash
    return mask


def _repair_slots(members: np.ndarray, n_agents: int, rng: np.random.Generator) -> np.ndarray:
    """Remove multi-edges from an ``(m, gamma)`` member matrix, in place; returns it.

    Each surplus copy (u, a) and a uniformly random slot (v, b) are rewired to
    {(u, b), (v, a)} when that makes no new duplicate, in batches whose
    conflicting swaps are retried; both degree vectors stay fixed.  Raises
    SimplificationError after ``_MAX_SWAP_FACTOR * m * gamma`` attempted swaps.
    Unchecked precondition: no row holds more than ``n_agents`` slots and no
    agent more than m; otherwise no simple graph exists and that error is sure.

    ``members`` must be a C-contiguous int64 array, and stays one.  Flat slot
    ``i`` is query ``i // gamma``.  Surplus copies are the repeats of an agent
    within a row after the first in slot order, and they are repaired in
    ``(agent * m + query, slot)`` order.  The pair keys (``query * n + agent``
    for the pair index, ``agent * m + query`` for the repair order,
    ``agent * gamma + column`` for the row sort) are uint32 while
    ``n * max(m, gamma) <= 2**32`` and int64 past it (see
    :func:`_key_dtype`); slot indices stay int64.

    The pair index (see :func:`_clashes`) is chosen from ``n * m`` alone, and
    both kinds give the same swaps.  Up to ``_MAX_TABLE_CELLS`` it is a bool
    table of n * m cells, and a cell is set iff its pair has at least one
    copy: each batch sets the pairs its swaps made, and clears a pair only
    when a partner side broke its kept copy and none of its pending slots
    survived the batch, so that the pair lost its last copy.  Past that it is
    an overlay that each batch's swaps extend, and whose base is rebuilt from
    ``members`` once it passes ``_MAX_OVERLAY_FRACTION`` of it.

    The pending slots keep one invariant: they are every copy but one of each
    repeated pair, those of one pair adjacent and in slot order.  A pending
    slot drawn as a partner is blocked as a shared slot, so an applied swap's
    partner side can break only a pair's one kept copy, and only one partner
    can draw that slot; that pair then drops its last surviving pending slot.
    So the index is probed once per batch, and no pair is recounted.
    """
    n_queries, gamma = members.shape
    agents = members.reshape(-1)  # a view: swaps write through to members
    total = agents.size
    key = _key_dtype(n_agents, n_queries, gamma)
    m = key(n_queries)
    n = key(n_agents)
    budget = _MAX_SWAP_FACTOR * total
    attempts = 0
    row_keys = (np.arange(n_queries, dtype=key) * n)[:, None]

    # Sorting agent * gamma + column sorts each row by agent, ties by slot.
    by_agent = members.astype(key)
    by_agent *= gamma
    by_agent += np.arange(gamma, dtype=key)
    by_agent.sort(axis=1)
    index = by_agent // gamma
    index += row_keys
    index = index.reshape(-1)  # globally sorted: row q's keys lie in [q * n, (q + 1) * n)

    # One repair slot per surplus copy of each duplicated pair.
    dup = np.flatnonzero(index[1:] == index[:-1]) + 1
    rows = dup // gamma
    dup_slots = rows * gamma + by_agent.reshape(-1)[dup] % gamma
    dup_keys = (index[dup] - row_keys.reshape(-1)[rows]) * m + rows.astype(key)
    del by_agent
    # The copies of one pair sit side by side in their sorted row, in column
    # order, so dup_slots already lists equal keys in slot order and a stable
    # sort by key gives the (agent * m + query, slot) order.
    pending = dup_slots[np.argsort(dup_keys, kind="stable")]
    empty = np.empty(0, dtype=key)
    table = n_agents * n_queries <= _MAX_TABLE_CELLS
    if table:
        lookup = np.zeros(n_agents * n_queries, dtype=bool)
        lookup[index] = True
        del index
    else:
        lookup = (index, empty, empty)

    while pending.size:
        if attempts >= budget:
            raise SimplificationError(f"no simple graph reached within {budget} attempted swaps")
        attempts += pending.size
        partners = rng.integers(0, total, size=pending.size)
        u = agents[pending]
        a = pending // gamma
        v = agents[partners]
        b = partners // gamma

        # A swap is blocked when a new pair (u, b) or (v, a) already exists or is
        # made by another swap too, or when it shares a slot with another swap.
        # With u == v or a == b a new pair is the pending pair itself, which exists.
        probes = np.concatenate([b * n + u, a * n + v]).astype(key, copy=False)
        blocked = _clashes(probes, lookup) | _clashes(np.concatenate([pending, partners]))
        ok = ~blocked.reshape(2, -1).any(axis=0)

        applied = np.flatnonzero(ok)
        agents[pending[applied]] = v[applied]
        agents[partners[applied]] = u[applied]
        made = probes.reshape(2, -1)[:, applied]
        if table:
            lookup[made] = True
        else:
            base, added, removed = lookup
            if added.size + 2 * applied.size > _MAX_OVERLAY_FRACTION * base.size:
                base = members.astype(key)
                base += row_keys
                base.sort(axis=1)
                lookup = (base.reshape(-1), empty, empty)
            else:
                broken = np.stack([a * n + u, b * n + v])[:, applied].astype(key, copy=False)
                added, removed = np.sort(np.append(added, made)), np.sort(np.append(removed, broken))
                lookup = (base, added, removed)

        # A rejected slot kept its agent, so the survivors keep the invariant's
        # order once each pair a partner side broke drops its last survivor.
        pending = pending[~ok]
        if pending.size:
            pending_keys = agents[pending] * m + pending // gamma  # sorted, by the invariant
            hit = np.sort(v[applied] * m + b[applied])  # sorted needles search faster
            last = np.searchsorted(pending_keys, hit, side="right") - 1
            survived = pending_keys[last] == hit
            pending = np.delete(pending, last[survived])
            if table:  # a broken kept copy with no survivor was its pair's last copy
                lost_agents, lost_queries = np.divmod(hit[~survived], m)
                lookup[lost_queries * n + lost_agents] = False

    return members


def write_edge_list(stream: IO[str], graph: PoolingGraph, family: str, allow_multi: bool) -> None:
    """Write the canonical edge-list text format.

    Header line is ``n m gamma family multi``; every following line is an
    ``agent query multiplicity`` triple in lexicographic order, in decimal
    without padding.  The triples are formatted in numpy, one chunk of
    ``_EDGE_LIST_CHUNK`` edges and one ``stream.write`` at a time; each
    chunk's agents are expanded from the offsets.
    """
    multi = "true" if allow_multi else "false"
    stream.write(f"{graph.n_agents} {graph.n_queries} {graph.gamma} {family} {multi}\n")
    starts, edges = graph.agent_starts, len(graph.edge_mult)
    for start in range(0, edges, _EDGE_LIST_CHUNK):
        stop = min(start + _EDGE_LIST_CHUNK, edges)
        # Agents first..end - 1 hold the chunk's edges, each its segment clipped to the chunk.
        first, end = np.searchsorted(starts, start, "right") - 1, np.searchsorted(starts, stop)
        counts = np.diff(starts[first : end + 1].clip(start, stop))
        columns = (graph.edge_queries[start:stop], graph.edge_mult[start:stop])
        stream.write(_edge_lines([np.repeat(np.arange(first, end), counts), *columns]))


def _edge_lines(columns: list[np.ndarray]) -> str:
    """One ``"agent query multiplicity\\n"`` line per row of non-negative integer columns.

    Each column's digits fill a fixed-width block of a uint8 matrix, ones digit
    last, followed by a space or newline cell; one mask then drops the leading zeros.
    """
    widths = [len(str(col.max())) for col in columns]
    cells = np.empty((len(columns[0]), sum(widths) + len(widths)), dtype=np.uint8)
    keep = np.ones(cells.shape, dtype=bool)
    end = -1
    for col, width, separator in zip(columns, widths, b"  \n"):
        end += width + 1
        cells[:, end] = separator
        rest = col
        for cell in range(end - 1, end - 1 - width, -1):
            keep[:, cell] = rest > 0  # a zero rest is a leading zero
            rest, digit = np.divmod(rest, 10)
            cells[:, cell] = digit + ord("0")
        keep[:, end - 1] = True  # the ones digit, so that 0 prints as 0
    return cells[keep].tobytes().decode("ascii")


def read_edge_list(lines: Iterable[str]) -> tuple[DesignSpec, PoolingGraph]:
    """Parse the canonical edge-list format back into a spec and graph.

    A text stream (an object with ``read``) gives its header by ``readline``
    and its body by ``read`` in blocks of ``_EDGE_LIST_BLOCK`` characters,
    split into lines at ``\\n`` only.  Any other iterable gives one line per
    item.  Leading and trailing whitespace of a line is ignored, so CRLF ends
    and blank or whitespace-only lines are accepted; any other departure from
    what :func:`write_edge_list` writes raises ValueError.
    """
    if hasattr(lines, "read"):
        header, blocks = lines.readline() or None, _read_blocks(lines)
    else:
        lines = iter(lines)
        header, blocks = next(lines, None), _join_blocks(lines)
    if header is None:
        raise ValueError("empty edge-list input")
    fields = header.split()
    sizes = _rows(" ".join(fields[:3])) if len(fields) == 5 else None  # the body's integers
    if sizes is None:
        raise ValueError(f"malformed header {header!r}, expected 'n m gamma family multi'")
    (n, m, gamma), (family, flag) = sizes[0].tolist(), fields[3:]
    if flag not in ("true", "false"):
        raise ValueError(f"malformed multi flag {flag!r}, expected 'true' or 'false'")
    allow_multi = flag == "true"
    spec = DesignSpec(n=n, m=m, gamma=gamma, family=family, allow_multi=allow_multi)

    broken = [None] * 6  # the message of each rule's first break, in rule order
    parts = [np.empty((3, 0), dtype=np.int64)]
    line = 2  # file line of the block's first line
    for block in blocks:
        rows = _rows(block)
        if rows is None:
            # Each line parses or not on its own, so bisect: texts[lo:hi] holds the first bad line.
            texts = block.split("\n")
            lo, hi = 0, len(texts)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if _rows("\n".join(texts[lo:mid])) is None else (mid, hi)
            line += lo
            raise ValueError(f"line {line}: expected an integer 'agent query multiplicity' triple")
        if len(rows):
            agent, query, mult = rows.T
            # Each edge against the one before it; the first edge steps by 1.
            before = parts[-1][:, -1] if len(parts) > 1 else rows[0] - 1
            step_a = np.diff(agent, prepend=before[0])
            step_q = np.diff(query, prepend=before[1])
            rules = [
                (f"agent outside 0..{n - 1}", (agent < 0) | (agent >= n)),
                (f"query outside 0..{m - 1}", (query < 0) | (query >= m)),
                ("multiplicity must be at least 1", mult < 1),
                ("multiplicity above 1 under multi=false", (mult > 1) & (not allow_multi)),
                ("repeats the line before", (step_a == 0) & (step_q == 0)),
                ("precedes the line before", (step_a < 0) | ((step_a == 0) & (step_q < 0))),
            ]
            for i, (rule, bad) in enumerate(rules):
                if broken[i] is None and bad.any():
                    nonblank = [j for j, text in enumerate(block.split("\n")) if text.strip()]
                    broken[i] = f"line {line + nonblank[np.argmax(bad)]}: {rule}"
            parts.append(rows.T)
        line += block.count("\n")
    if any(broken):
        raise ValueError(next(filter(None, broken)))

    # The rules above make the triples canonical: agent-major segments, split
    # once here.  The agent column goes before the other two are built.
    agent_arr = np.concatenate([part[0] for part in parts])
    starts = np.searchsorted(agent_arr, np.arange(n + 1))
    del agent_arr
    query_arr, mult_arr = (np.concatenate([part[i] for part in parts]) for i in (1, 2))
    del parts
    graph = PoolingGraph(n, m, gamma, starts, query_arr, mult_arr)
    # No degree passes int64 when E times the largest multiplicity does not.
    if mult_arr.size and mult_arr.max() > np.iinfo(np.int64).max // mult_arr.size:
        _check_degrees_fit(graph)
    # Doubly regular fixes each query's degree at gamma and splits m * gamma evenly over agents.
    if family == "doubly_regular":
        low, extra = divmod(m * gamma, n)
        agent_want = f"{low} or {low + 1}" if extra else f"{low}"
        for end, deg, lo, hi, want in (
            ("query", graph.query_degrees, gamma, gamma, f"gamma={gamma}"),
            ("agent", graph.agent_degrees, low, low + (extra > 0), agent_want),
        ):
            off = np.flatnonzero((deg < lo) | (deg > hi))
            if off.size:
                i = off[0]
                raise ValueError(f"{family} {end} {i} has degree {deg[i]}, expected {want}")
    return spec, graph


def _check_degrees_fit(graph: PoolingGraph) -> None:
    """Raise ValueError for the first query, then the first agent, whose degree passes int64.

    Each degree is summed as the high and the low 32-bit halves of its
    multiplicities, two int64 sums that cannot wrap below 2**31 edges.
    """
    halves = (graph.edge_mult >> 32, graph.edge_mult & 0xFFFF_FFFF)
    for end, sums in (("query", graph.query_sums), ("agent", graph.agent_sums)):
        high, low = map(sums, halves)
        over = np.flatnonzero(high + (low >> 32) >= 2**31)
        if over.size:
            degree = (int(high[over[0]]) << 32) + int(low[over[0]])
            raise ValueError(f"{end} {over[0]} has degree {degree}, above the int64 maximum")


def _read_blocks(stream: IO[str]) -> Iterator[str]:
    """The rest of ``stream`` as blocks of whole lines, each line ending at ``\\n``.

    Each ``read`` of ``_EDGE_LIST_BLOCK`` characters is cut after its last
    ``\\n``, and the rest is carried into the next block; only the last block
    may end without one.
    """
    rest = ""
    while text := stream.read(_EDGE_LIST_BLOCK):
        text = rest + text
        cut = text.rfind("\n") + 1
        rest = text[cut:]
        if cut:
            yield text[:cut]
    if rest:
        yield rest


def _join_blocks(items: Iterator[str]) -> Iterator[str]:
    """Blocks of ``_EDGE_LIST_CHUNK`` stripped items, one line each.

    An item's inner ``\\n`` becomes a ``\\r``, so that the item stays one
    line and fails to parse like any other line with an inner ``\\r``.
    """
    while chunk := list(map(str.strip, islice(items, _EDGE_LIST_CHUNK))):
        chunk.append("")  # the block's last line ends at a \n too
        text = "\n".join(chunk)
        if text.count("\n") >= len(chunk):
            text = "\n".join(item.replace("\n", "\r") for item in chunk)
        yield text


def _rows(text: str) -> np.ndarray | None:
    """``(E, 3)`` int64 rows of the non-blank lines of ``text``; None unless each is 3 int64s."""
    if not text or text.isspace():  # loadtxt warns on an input without data
        return np.empty((0, 3), dtype=np.int64)
    # loadtxt takes a \r only in a CRLF end; any other \r must be leading or trailing whitespace
    if "\r" in text and text.count("\r") > text.count("\r\n"):
        text = "\n".join(map(str.strip, text.split("\n")))
        if "\r" in text:
            return None
    # loadtxt reads some non-ASCII letters as digits, so only the whitespace may be non-ASCII
    if not text.isascii() and not "".join(text.split()).isascii():
        return None
    try:  # comments=None: '#' is a bad field
        rows = np.loadtxt(io.StringIO(text), dtype=np.int64, comments=None, ndmin=2)
    except ValueError:
        return None
    return rows if rows.shape[1] == 3 else None
