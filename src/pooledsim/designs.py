"""Random bipartite pooling designs: Bernoulli, one-sided regular, doubly regular.

All generators are pure functions of (spec, rng).  Graphs are stored as the
multiset of (agent, query) pairs in lexicographic order, which doubles as the
canonical on-disk edge-list format.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import IO, Iterable

import numpy as np

__all__ = [
    "FAMILIES",
    "DesignSpec",
    "PoolingGraph",
    "SimplificationError",
    "generate",
    "write_edge_list",
    "read_edge_list",
]

FAMILIES = ("bernoulli", "one_sided_regular", "doubly_regular")

# Chunk size (in matrix cells) for the dense subset sampler, keeps memory bounded.
_CHUNK_CELLS = 8_000_000

_MAX_SWAP_FACTOR = 100
_MAX_OVERLAY_FRACTION = 0.01  # swap repair rebuilds its pair index past this overlay share
_EDGE_LIST_CHUNK = 65_536  # lines per chunk of the edge-list writer and reader


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
class PoolingGraph:
    """Bipartite multigraph between agents and queries.

    Edges are stored as unique (agent, query) pairs with multiplicities, sorted
    lexicographically, in three read-only arrays.  The agent-major order puts
    each agent's edges in one contiguous segment, which :attr:`agent_starts`
    indexes.  ``gamma`` carries the design's nominal agents-per-query so
    decoder centering can be computed from the graph alone.
    """

    n_agents: int
    n_queries: int
    gamma: int
    edge_agents: np.ndarray
    edge_queries: np.ndarray
    edge_mult: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.edge_agents, self.edge_queries, self.edge_mult):
            arr.setflags(write=False)

    @cached_property
    def agent_starts(self) -> np.ndarray:
        """Offsets: agent ``i``'s edges are ``agent_starts[i]:agent_starts[i + 1]``."""
        return _read_only(np.searchsorted(self.edge_agents, np.arange(self.n_agents + 1)))

    def agent_sums(self, edge_values: np.ndarray) -> np.ndarray:
        """Per-agent int64 sums of a per-edge array, one segmented reduction.

        ``np.add.reduceat`` sums each agent's segment (wrapping mod 2**64 like
        any int64 sum).  It cannot start a segment at E, so the trailing
        edgeless agents are cut off, and it returns the first value of the
        next segment for an empty one, so the other edgeless agents are zeroed.
        """
        starts = self.agent_starts[:-1]
        kept = int(np.searchsorted(starts, edge_values.size))
        sums = np.zeros(self.n_agents, dtype=np.int64)
        sums[:kept] = np.add.reduceat(edge_values, starts[:kept], dtype=np.int64)
        sums[self.distinct_agent_degrees == 0] = 0
        return sums

    @cached_property
    def agent_degrees(self) -> np.ndarray:
        """Per-agent edge counts, multiplicities included."""
        if (self.edge_mult == 1).all():
            return self.distinct_agent_degrees
        return _read_only(self.agent_sums(self.edge_mult))

    @cached_property
    def query_degrees(self) -> np.ndarray:
        """Per-query edge counts, multiplicities included."""
        deg = np.zeros(self.n_queries, dtype=np.int64)
        np.add.at(deg, self.edge_queries, self.edge_mult)
        return _read_only(deg)

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
        if spec.family == "one_sided_regular":
            members = _one_sided_members(spec, rng)
        else:
            members = _doubly_regular_members(spec, rng)
        # Row q of the (m, gamma) member matrix holds query q's agents.
        key = _key_dtype(spec.n, spec.m, spec.gamma)
        keys = members.astype(key, copy=False)
        del members  # free the int64 matrix before the sort and the int64 split
        keys *= spec.m
        keys += np.arange(spec.m, dtype=key)[:, None]
        keys = keys.reshape(-1)
        if not spec.allow_multi:
            keys.sort()  # the keys of a simple design are all distinct
    if spec.allow_multi:
        keys, mult = np.unique(keys, return_counts=True)
    else:
        mult = np.ones(keys.size, dtype=np.int64)
    # Agent i's keys are [i * m, (i + 1) * m): split them at the n - 1 inner multiples of m.
    inner = np.searchsorted(keys, np.arange(spec.m, spec.n * spec.m, spec.m, dtype=keys.dtype))
    runs = np.diff(inner, prepend=0, append=keys.size)
    agents = np.repeat(np.arange(spec.n, dtype=np.int64), runs)
    queries = agents * -spec.m
    queries += keys
    return PoolingGraph(spec.n, spec.m, spec.gamma, agents, queries, mult)


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


def _one_sided_members(spec: DesignSpec, rng: np.random.Generator) -> np.ndarray:
    """Every query independently draws gamma agents; returns the (m, gamma) members.

    The multi variant draws with replacement, the simple variant draws a
    uniform gamma-subset.
    """
    if spec.allow_multi:
        return rng.integers(0, spec.n, size=(spec.m, spec.gamma))
    return _uniform_subsets(spec.n, spec.m, spec.gamma, rng)


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
    :class:`SimplificationError`.
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


def _pair_counts(
    index: tuple[np.ndarray, ...], keys: np.ndarray, order: np.ndarray | None = None
) -> np.ndarray:
    """Multiplicity of each ``query * n + agent`` key in the overlay ``index``.

    ``index`` is three sorted arrays ``(base, added, removed)``; a key counts
    once per copy in ``base`` and ``added`` and minus once per copy in
    ``removed``.  The keys are probed in sorted order, which keeps
    ``searchsorted`` cache-friendly; ``order`` is ``np.argsort(keys)`` when
    the caller already has it.  An empty ``added`` or ``removed``, as right
    after a fold, is not searched.
    """
    if order is None:
        order = np.argsort(keys)
    probes = keys[order]
    base, added, removed = index
    found = np.searchsorted(base, probes, side="right") - np.searchsorted(base, probes)
    if added.size:
        found += np.searchsorted(added, probes, side="right") - np.searchsorted(added, probes)
    if removed.size:
        found -= np.searchsorted(removed, probes, side="right") - np.searchsorted(removed, probes)
    counts = np.empty(keys.size, dtype=np.int64)
    counts[order] = found
    return counts


def _repeated(values: np.ndarray, order: np.ndarray | None = None) -> np.ndarray:
    """Mask of the entries of ``values`` that occur more than once in it.

    ``order`` is ``np.argsort(values)`` when the caller already has it.
    """
    if order is None:
        order = np.argsort(values)
    ordered = values[order]
    equal = np.concatenate([[False], ordered[1:] == ordered[:-1], [False]])  # to the left neighbour
    mask = np.empty(values.size, dtype=bool)
    mask[order] = equal[1:] | equal[:-1]
    return mask


def _repair_slots(
    members: np.ndarray, n_agents: int, rng: np.random.Generator
) -> np.ndarray:
    """Remove multi-edges from an ``(m, gamma)`` member matrix, in place; returns it.

    Each surplus copy (u, a) and a uniformly random slot (v, b) are rewired to
    {(u, b), (v, a)} when that makes no new duplicate, in batches whose
    conflicting swaps are retried; both degree vectors stay fixed.  Raises
    SimplificationError after ``_MAX_SWAP_FACTOR * m * gamma`` attempted swaps.

    ``members`` must be a C-contiguous int64 array, and stays one.  Flat slot
    ``i`` is query ``i // gamma``.  Surplus copies are the repeats of an agent
    within a row after the first in slot order, and they are repaired in
    ``(agent * m + query, slot)`` order.  Pairs are counted in an overlay (see
    :func:`_pair_counts`) that each batch's swaps extend, and whose base is
    rebuilt from ``members`` once it passes ``_MAX_OVERLAY_FRACTION`` of it.
    The pair keys (``query * n + agent`` in the overlay, ``agent * m + query``
    for the repair order, ``agent * gamma + column`` for the row sort) are
    uint32 while ``n * max(m, gamma) <= 2**32`` and int64 past it (see
    :func:`_key_dtype`); slot indices stay int64.
    """
    n_queries, gamma = members.shape
    if gamma > n_agents:
        raise ValueError("a query with more edges than agents cannot be made simple")
    if int(np.bincount(members.ravel(), minlength=n_agents).max(initial=0)) > n_queries:
        raise ValueError("an agent with more edges than queries cannot be made simple")

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
    overlay = (index, empty, empty)

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

        # A swap is blocked when a new pair (u, b) or (v, a) already exists,
        # when it shares a slot with another swap of the batch, or when it
        # creates the same new pair as another swap.
        probes = np.concatenate([b * n + u, a * n + v]).astype(key, copy=False)
        slots = np.concatenate([pending, partners])
        order = np.argsort(probes)
        blocked = (
            (_pair_counts(overlay, probes, order) > 0) | _repeated(slots) | _repeated(probes, order)
        )
        ok = (u != v) & (a != b) & ~blocked.reshape(2, -1).any(axis=0)

        applied = np.flatnonzero(ok)
        agents[pending[applied]] = v[applied]
        agents[partners[applied]] = u[applied]
        base, added, removed = overlay
        if added.size + 2 * applied.size > _MAX_OVERLAY_FRACTION * base.size:
            base = members.astype(key)
            base += row_keys
            base.sort(axis=1)
            overlay = (base.reshape(-1), empty, empty)
        else:
            made = probes.reshape(2, -1)[:, applied]
            broken = np.stack([a * n + u, b * n + v])[:, applied].astype(key, copy=False)
            overlay = (base, np.sort(np.append(added, made)), np.sort(np.append(removed, broken)))

        # A rejected slot kept its agent (a slot both pending and a partner is
        # blocked), so the survivors stay in (agent * m + query, slot) order
        # with the copies of one pair adjacent.  Partner-side rewires can
        # shrink a pair's multiplicity, so cap the surviving repair slots at
        # (current multiplicity - 1) per pair.
        remaining = pending[~ok]
        rem_keys = ((remaining // gamma) * n + agents[remaining]).astype(key, copy=False)
        run_start = np.flatnonzero(np.diff(rem_keys, prepend=-1))
        run_len = np.diff(run_start, append=remaining.size)
        surplus = _pair_counts(overlay, rem_keys[run_start]) - 1
        pos_in_run = np.arange(remaining.size) - np.repeat(run_start, run_len)
        pending = remaining[pos_in_run < np.repeat(surplus, run_len)]

    return members


def write_edge_list(stream: IO[str], graph: PoolingGraph, family: str, allow_multi: bool) -> None:
    """Write the canonical edge-list text format.

    Header line is ``n m gamma family multi``; every following line is an
    ``agent query multiplicity`` triple in lexicographic order, in decimal
    without padding.  The triples are formatted in numpy, one chunk of
    ``_EDGE_LIST_CHUNK`` edges and one ``stream.write`` at a time.
    """
    multi = "true" if allow_multi else "false"
    stream.write(f"{graph.n_agents} {graph.n_queries} {graph.gamma} {family} {multi}\n")
    columns = (graph.edge_agents, graph.edge_queries, graph.edge_mult)
    for start in range(0, len(graph.edge_mult), _EDGE_LIST_CHUNK):
        stream.write(_edge_lines([col[start : start + _EDGE_LIST_CHUNK] for col in columns]))


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

    Each line is stripped, so CRLF ends and blank or whitespace-only lines are
    accepted; any other departure from what :func:`write_edge_list` writes raises ValueError.
    """
    it = iter(lines)
    header = next(it, None)
    if header is None:
        raise ValueError("empty edge-list input")
    try:
        n, m, gamma, family, flag = header.split()
        n, m, gamma = int(n), int(m), int(gamma)
    except ValueError:
        raise ValueError(
            f"malformed header {header!r}, expected 'n m gamma family multi'"
        ) from None
    if flag not in ("true", "false"):
        raise ValueError(f"malformed multi flag {flag!r}, expected 'true' or 'false'")
    allow_multi = flag == "true"
    spec = DesignSpec(n=n, m=m, gamma=gamma, family=family, allow_multi=allow_multi)
    # Only the non-blank lines are parsed, one chunk of lines at a time, and a
    # chunk's strings are dropped once it parses: the i-th non-blank line,
    # like edge i, is on file line np.flatnonzero(nonblank)[i] + 2.
    nonblank = bytearray()
    parts = []
    edges = 0
    while True:
        chunk = list(map(str.strip, islice(it, _EDGE_LIST_CHUNK)))
        last = len(chunk) < _EDGE_LIST_CHUNK
        nonblank += bytes(map(bool, chunk))
        if not all(chunk):
            chunk = list(filter(None, chunk))
        rows = _rows(chunk)
        if rows is None:
            # Each line parses or not on its own, so bisect: chunk[lo:hi] holds the first bad line.
            lo, hi = 0, len(chunk)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if _rows(chunk[lo:mid]) is None else (mid, hi)
            line = np.flatnonzero(np.frombuffer(nonblank, dtype=bool))[edges + lo] + 2
            raise ValueError(f"line {line}: expected an integer 'agent query multiplicity' triple")
        del chunk
        parts.append(rows.T)
        edges += len(rows)
        if last:
            break
    nonblank = np.frombuffer(nonblank, dtype=bool)
    agent_arr, query_arr, mult_arr = np.concatenate(parts, axis=1)
    del parts

    # Each edge against the one before it; the first edge steps by 1.
    step_a = np.diff(agent_arr, prepend=agent_arr[:1] - 1)
    step_q = np.diff(query_arr, prepend=query_arr[:1] - 1)
    rules = [
        (f"agent outside 0..{n - 1}", (agent_arr < 0) | (agent_arr >= n)),
        (f"query outside 0..{m - 1}", (query_arr < 0) | (query_arr >= m)),
        ("multiplicity must be at least 1", mult_arr < 1),
        ("multiplicity above 1 under multi=false", (mult_arr > 1) & (not allow_multi)),
        ("repeats the line before", (step_a == 0) & (step_q == 0)),
        ("precedes the line before", (step_a < 0) | ((step_a == 0) & (step_q < 0))),
    ]
    for rule, bad in rules:
        if bad.any():
            line = np.flatnonzero(nonblank)[np.argmax(bad)] + 2
            raise ValueError(f"line {line}: {rule}")

    # The rules above make the triples canonical: they are the graph's arrays.
    graph = PoolingGraph(n, m, gamma, agent_arr, query_arr, mult_arr)
    # Regular families fix each query's degree; doubly regular splits m * gamma evenly over agents.
    degree_rules = []
    if family != "bernoulli":
        degree_rules.append(("query", graph.query_degrees, gamma, gamma, f"gamma={gamma}"))
    if family == "doubly_regular":
        low, extra = divmod(m * gamma, n)
        want = f"{low} or {low + 1}" if extra else f"{low}"
        degree_rules.append(("agent", graph.agent_degrees, low, low + (extra > 0), want))
    for end, deg, low, high, want in degree_rules:
        off = np.flatnonzero((deg < low) | (deg > high))
        if off.size:
            raise ValueError(f"{family} {end} {off[0]} has degree {deg[off[0]]}, expected {want}")
    return spec, graph


def _rows(lines: list[str]) -> np.ndarray | None:
    """``(E, 3)`` int64 rows of non-blank ``lines``; None unless each is three int64s."""
    if not lines:  # loadtxt warns on an input without data
        return np.empty((0, 3), dtype=np.int64)
    try:  # comments=None: '#' is a bad field; max_rows (never reached) presizes the rows
        rows = np.loadtxt(lines, dtype=np.int64, comments=None, ndmin=2, max_rows=len(lines))
    except ValueError:
        return None
    return rows if rows.shape[1] == 3 else None
