"""Independent slow-path oracles shared by the unit and acceptance tests.

Everything here recomputes quantities from first principles (dict loops,
closed forms via scipy/mpmath) so the fast numpy paths are checked against
code that shares none of their structure.
"""
from __future__ import annotations

import math
from collections import Counter, defaultdict

import numpy as np
import scipy.stats

import pooledsim.designs as designs
from pooledsim.designs import PoolingGraph, SimplificationError
from pooledsim.experiment import TrialConfig
from pooledsim.model import BernoulliPrior, ChannelMatrix, FixedPrior


def is_simple(graph: PoolingGraph) -> bool:
    """True when no (agent, query) pair carries more than one edge."""
    return bool((graph.edge_mult == 1).all())


def same_graph(a: PoolingGraph, b: PoolingGraph) -> bool:
    """True when both graphs have the same sizes, gamma and edge arrays."""
    fields = ("n_agents", "n_queries", "gamma", "agent_starts", "edge_queries", "edge_mult")
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in fields)


def graph_from_pairs(n: int, m: int, gamma: int, pairs) -> PoolingGraph:
    """Canonical graph of an ``(E, 2)`` listing of (agent, query) pairs.

    A repeated pair becomes one edge with its count as multiplicity.  An
    index outside ``0..n-1`` or ``0..m-1`` raises ValueError.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if ((pairs < 0) | (pairs >= (n, m))).any():
        raise ValueError("pair index out of range")
    keys, mult = np.unique(pairs[:, 0] * m + pairs[:, 1], return_counts=True)
    return PoolingGraph(n, m, gamma, np.searchsorted(keys, np.arange(n + 1) * m), keys % m, mult)


def one_sided_graph(n: int, m: int, gamma: int, multi: bool, rng) -> PoolingGraph:
    """A graph whose every query draws ``gamma`` agents and whose agent degrees are free.

    This is the shape of the retired one-sided regular family: simple rows
    draw without replacement, multi rows with it.  No remaining family makes
    multi-edges with uneven agent degrees, so tests build it from pairs.
    """
    if multi:
        members = rng.integers(0, n, (m, gamma))
    else:
        members = np.argsort(rng.random((m, n)), axis=1)[:, :gamma]
    pairs = np.column_stack([members.ravel(), np.repeat(np.arange(m), gamma)])
    return graph_from_pairs(n, m, gamma, pairs)


def variant_graph(family: str, multi: bool, n: int, m: int, gamma: int, rng) -> PoolingGraph:
    """``generate``'s graph of a design family, or a ``one_sided_graph`` for ``one_sided_regular``."""
    if family == "one_sided_regular":
        return one_sided_graph(n, m, gamma, multi, rng)
    return designs.generate(designs.DesignSpec(n, m, gamma, family, multi), rng)


def write_edge_list_reference(stream, graph: PoolingGraph, family: str, allow_multi: bool) -> None:
    """The former edge-list writer: one f-string and one ``stream.write`` per edge."""
    multi = "true" if allow_multi else "false"
    stream.write(f"{graph.n_agents} {graph.n_queries} {graph.gamma} {family} {multi}\n")
    for agent, query, mult in zip(
        graph.edge_agents.tolist(), graph.edge_queries.tolist(), graph.edge_mult.tolist()
    ):
        stream.write(f"{agent} {query} {mult}\n")


def _is_int64(field: str) -> bool:
    """True for ASCII decimal digits with an optional sign whose value fits in int64."""
    digits = field[1:] if field[:1] in ("+", "-") else field
    return digits.isascii() and digits.isdigit() and -(2**63) <= int(field) < 2**63


def read_edge_list_reference(lines):
    """The README's edge-list rules, one line at a time in plain Python.

    Returns ``(spec, triples)``, the ``(agent, query, multiplicity)`` triples
    in file order, or raises the ValueError that ``read_edge_list`` raises:
    the first line that is not three integers, then the first line that
    breaks each rule in turn, then the first query and the first agent whose
    degree passes int64, then the first query and the first agent whose degree
    is off.  Degrees are exact Python sums.
    """
    lines = iter(lines)
    header = next(lines, None)
    if header is None:
        raise ValueError("empty edge-list input")
    fields = header.split()
    if len(fields) != 5 or not all(map(_is_int64, fields[:3])):
        raise ValueError(f"malformed header {header!r}, expected 'n m gamma family multi'")
    n, m, gamma = map(int, fields[:3])
    family, flag = fields[3:]
    if flag not in ("true", "false"):
        raise ValueError(f"malformed multi flag {flag!r}, expected 'true' or 'false'")
    spec = designs.DesignSpec(n, m, gamma, family, flag == "true")

    numbered = []  # (file line, agent, query, multiplicity)
    for number, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        fields = line.split()
        # numpy's reader ends a row at either line-end character
        if "\n" in line or "\r" in line or len(fields) != 3 or not all(map(_is_int64, fields)):
            raise ValueError(
                f"line {number}: expected an integer 'agent query multiplicity' triple"
            )
        numbered.append((number, *map(int, fields)))

    rules = [
        f"agent outside 0..{n - 1}",
        f"query outside 0..{m - 1}",
        "multiplicity must be at least 1",
        "multiplicity above 1 under multi=false",
        "repeats the line before",
        "precedes the line before",
    ]
    first = {}  # rule -> the first line that breaks it
    before = None
    for number, agent, query, mult in numbered:
        breaks = [
            not 0 <= agent < n,
            not 0 <= query < m,
            mult < 1,
            mult > 1 and flag == "false",
            (agent, query) == before,
            before is not None and (agent, query) < before,
        ]
        for rule, bad in zip(rules, breaks):
            if bad:
                first.setdefault(rule, number)
        before = (agent, query)
    for rule in rules:
        if rule in first:
            raise ValueError(f"line {first[rule]}: {rule}")

    query_degree = [0] * m
    agent_degree = [0] * n
    for _, agent, query, mult in numbered:
        query_degree[query] += mult
        agent_degree[agent] += mult
    for end, degrees in (("query", query_degree), ("agent", agent_degree)):
        for index, degree in enumerate(degrees):
            if degree >= 2**63:
                raise ValueError(f"{end} {index} has degree {degree}, above the int64 maximum")
    if family == "doubly_regular":
        low, extra = divmod(m * gamma, n)
        agent_want = f"{low} or {low + 1}" if extra else f"{low}"
        ends = [
            ("query", query_degree, {gamma}, f"gamma={gamma}"),
            ("agent", agent_degree, {low, low + (extra > 0)}, agent_want),
        ]
        for end, degrees, allowed, want in ends:
            for index, degree in enumerate(degrees):
                if degree not in allowed:
                    raise ValueError(f"{family} {end} {index} has degree {degree}, expected {want}")
    return spec, [triple[1:] for triple in numbered]


def parse_sweep_config_reference(text: str):
    """The README's sweep-config rules, one line at a time in plain Python.

    Returns ``(trial, m_grid, families, trials, raw)`` as ``parse_sweep_config``
    resolves them, or raises the ValueError whose message it raises.  A line
    ends at LF, CRLF or CR, as a text file reads it, and ``#`` starts a
    comment.  The first bad line wins; within a line the rules run in order:
    no ``=``, an unknown key, a repeated key, an empty value, a value that
    does not parse.  Then come the missing keys, the design of each family,
    the prior, the channel and the rest of the trial configuration, and
    ``trials``.
    """
    readers = {
        "n": int, "k": int, "gamma": int, "trials": int, "seed": int,
        "p": float, "s11": float, "s01": float, "epsilon": float,
        "m_grid": _m_grid_reference, "families": _families_reference,
    }
    raw, values = {}, {}
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for number, line in enumerate(lines, start=1):
        content = line.partition("#")[0].strip()
        if content == "":
            continue
        if "=" not in content:
            raise ValueError(f"line {number}: expected 'key = value', got {line.strip()!r}")
        key, value = (part.strip() for part in content.split("=", 1))
        if key not in readers:
            raise ValueError(f"line {number}: unknown key {key!r}")
        if key in raw:
            raise ValueError(f"line {number}: duplicate key {key!r}")
        if value == "":
            raise ValueError(f"line {number}: key {key!r} has no value")
        try:
            values[key] = readers[key](value)
        except ValueError as err:
            raise ValueError(f"line {number}: key {key!r}: {err}") from None
        raw[key] = value

    for key in ("n", "gamma", "epsilon", "trials", "seed", "m_grid", "families"):
        if key not in raw:
            raise ValueError(f"missing required key {key!r}")
    n, gamma, m_grid, families = values["n"], values["gamma"], values["m_grid"], values["families"]
    specs = [designs.DesignSpec(n, m_grid[0], gamma, name, multi) for name, multi in families]
    if ("k" in values) == ("p" in values):
        raise ValueError("exactly one of k and p must be set")
    prior = FixedPrior(values["k"]) if "k" in values else BernoulliPrior(values["p"])
    channel = ChannelMatrix(values.get("s11", 1.0), values.get("s01", 0.0))
    trial = TrialConfig(specs[0], prior, channel, values["epsilon"], values["seed"])
    if values["trials"] < 1:
        raise ValueError(f"trials must be at least 1, got {values['trials']}")
    return trial, m_grid, families, values["trials"], raw


def _m_grid_reference(text: str) -> list[int]:
    """``start:stop:step`` (stop included) or a comma list; every count at least 1, none twice."""
    if ":" in text:
        if text.count(":") != 2:
            raise ValueError(f"m_grid range must be start:stop:step, got {text!r}")
        start, stop, step = (int(part) for part in text.split(":"))
        if step < 1 or stop < start:
            raise ValueError(f"m_grid range {text!r} is empty or has non-positive step")
        grid = []
        while start <= stop:
            grid.append(start)
            start += step
    else:
        grid = [int(item) for item in text.split(",") if item.strip() != ""]
    if grid == [] or any(m < 1 for m in grid):
        raise ValueError(f"m_grid must list at least one query count, all >= 1, got {text!r}")
    if len(grid) != len(set(grid)):
        raise ValueError(f"m_grid repeats a query count, got {text!r}")
    return grid


def _families_reference(text: str) -> list[tuple[str, bool]]:
    """Comma-separated ``family`` or ``family/variant`` items; empty items are skipped.

    Blanks around an item and around its ``/`` are ignored; a ``/`` must be
    followed by a variant.
    """
    families = []
    for item in text.split(","):
        item = item.strip()
        if item == "":
            continue
        if "/" in item:
            name, variant = (part.strip() for part in item.split("/", 1))
        else:
            name, variant = item, "simple"
        if name not in designs.FAMILIES:
            raise ValueError(
                f"unknown family {name!r} in families (expected one of {designs.FAMILIES})"
            )
        if variant not in ("simple", "multi"):
            raise ValueError(f"family variant must be 'simple' or 'multi', got {variant!r}")
        if name == "bernoulli" and variant == "multi":
            raise ValueError(f"family {name!r} has no multi variant")
        if (name, variant == "multi") in families:
            raise ValueError(f"families repeats {name}/{variant}")
        families.append((name, variant == "multi"))
    if families == []:
        raise ValueError("families must list at least one design family")
    return families


def bernoulli_dense_reference(spec, rng: np.random.Generator) -> PoolingGraph:
    """The former Bernoulli sampler: one uniform per (query, agent) cell.

    Each cell is an edge with probability gamma / n, in chunks of whole query
    rows; the pairs are then canonicalised by :func:`graph_from_pairs`.
    """
    chunk_cells = 8_000_000
    p_edge = spec.gamma / spec.n
    agents_parts: list[np.ndarray] = []
    queries_parts: list[np.ndarray] = []
    rows_per_chunk = max(1, chunk_cells // spec.n)
    for start in range(0, spec.m, rows_per_chunk):
        rows = min(rows_per_chunk, spec.m - start)
        mask = rng.random((rows, spec.n)) < p_edge
        q_idx, a_idx = np.nonzero(mask)
        agents_parts.append(a_idx)
        queries_parts.append(q_idx + start)
    agents = np.concatenate(agents_parts)
    queries = np.concatenate(queries_parts)
    return graph_from_pairs(spec.n, spec.m, spec.gamma, np.column_stack([agents, queries]))


def skip_keys_reference(cells: int, p_edge: float, block: int, rng: np.random.Generator) -> np.ndarray:
    """The former skip sampler: every block of gaps drawn by ``rng.geometric``."""
    keys = np.cumsum(rng.geometric(p_edge, size=block)) - 1
    while keys[-1] < cells:
        keys = np.concatenate([keys, keys[-1] + np.cumsum(rng.geometric(p_edge, size=block))])
    return keys[: np.searchsorted(keys, cells)]


def read_bit(bit: int, channel, rng: np.random.Generator) -> int:
    """One read of a single bit through the channel; independent across calls."""
    prob = channel.s11 if bit else channel.s01
    return int(rng.random() < prob)


def per_read_results(graph: PoolingGraph, truth, channel, rng: np.random.Generator) -> np.ndarray:
    """The former noisy query stage: one uniform per edge copy, in sorted-edge order.

    Every copy of a multi-edge reads its agent's bit independently, and a
    query's result counts its copies that read one.
    """
    agents = np.repeat(graph.edge_agents, graph.edge_mult)
    queries = np.repeat(graph.edge_queries, graph.edge_mult)
    read_prob = np.where(truth.bits[agents] == 1, channel.s11, channel.s01)
    weights = rng.random(agents.size) < read_prob
    return np.bincount(queries, weights=weights, minlength=graph.n_queries).astype(np.int64)


def simplify(graph: PoolingGraph, rng: np.random.Generator) -> PoolingGraph:
    """Remove the multi-edges of any graph by ``designs._repair_slots`` swaps.

    The edge instances are regrouped query-major into an ``(m, gamma)``
    member matrix, with each query's agents in ascending order, and repaired
    by the same row-wise routine as the doubly regular generator.  The matrix
    needs every query to have the same degree; a non-simple graph whose query
    degrees differ raises ValueError.  A graph that no simple graph with its
    degrees fits raises SimplificationError once the swap budget is spent.
    """
    if is_simple(graph):
        return graph
    degrees = graph.query_degrees
    if int(degrees.min()) != int(degrees.max()):
        raise ValueError(
            f"swap repair needs equal query degrees, got degrees from {int(degrees.min())} "
            f"to {int(degrees.max())}"
        )
    slot_agent = np.repeat(graph.edge_agents, graph.edge_mult)
    slot_query = np.repeat(graph.edge_queries, graph.edge_mult)
    members = slot_agent[np.argsort(slot_query, kind="stable")]
    members = members.reshape(graph.n_queries, int(degrees[0]))
    repaired = designs._repair_slots(members, graph.n_agents, rng)
    pairs = np.column_stack([repaired.ravel(), np.sort(slot_query)])
    return graph_from_pairs(graph.n_agents, graph.n_queries, graph.gamma, pairs)


def _agent_edges(graph: PoolingGraph) -> tuple[Counter, dict[int, set[int]]]:
    """Per agent: edge copies (multiplicities summed) and the set of distinct queries."""
    copies: Counter = Counter()
    queries: dict[int, set[int]] = defaultdict(set)
    for agent, query, mult in zip(
        graph.edge_agents.tolist(), graph.edge_queries.tolist(), graph.edge_mult.tolist()
    ):
        assert mult >= 1
        copies[agent] += mult
        queries[agent].add(query)
    return copies, queries


def naive_scores(graph: PoolingGraph, results) -> list[float]:
    """Per-agent score via explicit dict loops over the edge multiset."""
    _, queries = _agent_edges(graph)
    return [float(sum(results[q] for q in queries[i])) for i in range(graph.n_agents)]


def naive_centers(graph: PoolingGraph, p: float, channel) -> list[float]:
    """Per-agent center: (gamma * distinct queries - edge copies) * Pr(a read is one)."""
    copies, queries = _agent_edges(graph)
    read_one = p * channel.s11 + (1 - p) * channel.s01
    return [
        (graph.gamma * len(queries[i]) - copies[i]) * read_one for i in range(graph.n_agents)
    ]


def naive_thresholds(graph: PoolingGraph, p: float, channel, m: int) -> list[float]:
    """Per-agent cutoff: edge copies times the optimal mix of the read means s01 and s11."""
    copies, _ = _agent_edges(graph)
    read_one = p * channel.s11 + (1 - p) * channel.s01
    rate = (channel.s11 - channel.s01) ** 2 / (2 * graph.n_agents * read_one)
    fraction = 0.5 + math.log(1 / p) / (2 * rate * m)
    mix = (1 - fraction) * channel.s01 + fraction * channel.s11
    return [copies[i] * mix for i in range(graph.n_agents)]


def naive_recovery(bits, estimate) -> tuple[int, float]:
    """Hamming distance and overlap (true ones hit, over true ones; 1.0 without ones)."""
    hamming = hits = ones = 0
    for bit, guess in zip(bits.tolist(), estimate.tolist()):
        hamming += bit != guess
        ones += bit
        hits += bit and guess
    return hamming, hits / ones if ones else 1.0


def naive_noiseless_results(graph: PoolingGraph, bits) -> list[int]:
    """Noise-free query results: multiplicity-weighted sums of incident bits."""
    totals = Counter()
    for agent, query, mult in zip(
        graph.edge_agents.tolist(), graph.edge_queries.tolist(), graph.edge_mult.tolist()
    ):
        totals[query] += mult * int(bits[agent])
    return [totals.get(q, 0) for q in range(graph.n_queries)]


def naive_decode(scores, centers, thresholds) -> list[int]:
    return [1 if s - c > t else 0 for s, c, t in zip(scores, centers, thresholds)]


def expected_score(graph: PoolingGraph, bits, agent: int, channel, expected_distinct=None):
    """Closed-form expected score of one agent on the configuration-model ensemble.

    ``expected_distinct`` replaces the realized distinct degree when averaging
    over regenerated graphs; by default the realized value is used (fixed
    graph, noise resampled).
    """
    degrees = graph.agent_degrees
    own_degree = int(degrees[agent])
    distinct = (
        float(graph.distinct_agent_degrees[agent])
        if expected_distinct is None
        else float(expected_distinct)
    )
    population = int(degrees.sum()) - own_degree
    positives = int(sum(d for d, b in zip(degrees.tolist(), bits) if b) ) - own_degree * int(
        bits[agent]
    )
    draws = graph.gamma * distinct - own_degree
    neighborhood = draws * (
        positives / population * channel.s11 + (population - positives) / population * channel.s01
    )
    own = own_degree * (channel.s11 if bits[agent] else channel.s01)
    return neighborhood + own


def stratified_hypergeometric_chi2(
    x_values: np.ndarray,
    strata: np.ndarray,
    population: int,
    positives: int,
    draws_for_stratum,
    min_expected: float = 5.0,
) -> float:
    """Chi-square p-value of samples against per-stratum hypergeometric laws.

    ``draws_for_stratum`` maps a stratum label to the number of draws; within
    each stratum the law is Hypergeom(population, positives, draws).  See
    :func:`stratified_chi2`.
    """

    def pmf_for_stratum(label):
        draws = draws_for_stratum(label)
        return scipy.stats.hypergeom.pmf(np.arange(draws + 1), population, positives, draws)

    return stratified_chi2(x_values, strata, pmf_for_stratum, min_expected)


def stratified_chi2(
    x_values: np.ndarray, strata: np.ndarray, pmf_for_stratum, min_expected: float = 5.0
) -> float:
    """Chi-square p-value of samples against a law per stratum.

    ``pmf_for_stratum`` maps a stratum label to its law's pmf on 0, 1, ....
    Cells with small expected counts are pooled into their neighbours.
    Degrees of freedom: (cells - 1) summed over strata.
    """
    total_stat = 0.0
    total_dof = 0
    for label in np.unique(strata):
        sample = x_values[strata == label]
        pmf = pmf_for_stratum(label)
        observed = np.bincount(sample, minlength=pmf.size).astype(float)
        expected = pmf * sample.size
        if observed.size > expected.size:
            # observations beyond the law's support: keep them, with ~zero
            # expectation, so the statistic fails loudly
            expected = np.concatenate(
                [expected, np.full(observed.size - expected.size, 1e-12)]
            )
        obs_cells, exp_cells = _pool_cells(observed, expected, min_expected)
        if len(obs_cells) < 2:
            continue
        total_stat += float(
            sum((o - e) ** 2 / e for o, e in zip(obs_cells, exp_cells))
        )
        total_dof += len(obs_cells) - 1
    if total_dof == 0:
        return 1.0
    return float(scipy.stats.chi2.sf(total_stat, total_dof))


def _pool_cells(observed, expected, min_expected):
    """Merge adjacent cells until every expected count reaches the minimum."""
    obs_cells: list[float] = []
    exp_cells: list[float] = []
    acc_obs = 0.0
    acc_exp = 0.0
    for obs, exp in zip(observed, expected):
        acc_obs += obs
        acc_exp += exp
        if acc_exp >= min_expected:
            obs_cells.append(acc_obs)
            exp_cells.append(acc_exp)
            acc_obs = 0.0
            acc_exp = 0.0
    if acc_exp > 0 and obs_cells:
        obs_cells[-1] += acc_obs
        exp_cells[-1] += acc_exp
    return obs_cells, exp_cells


def regenerated_score_samples(seed: int, samples: int):
    """Score-law sampling fixture: regenerate a small doubly regular multigraph.

    Fixed setting: n=30 agents of degree 2, m=10 queries of degree 6, a fixed
    truth with 8 one-bits, no noise.  Returns the held-out agent-0 statistic
    (score minus the own contribution), the per-sample distinct degree of
    agent 0, and the hypergeometric parameters (population, positives).
    """
    n, m, gamma, k = 30, 10, 6, 8
    degree = 2
    rng = np.random.default_rng(seed)
    bits = np.zeros(n, dtype=np.int64)
    bits[rng.choice(n, size=k, replace=False)] = 1

    stub_owner = np.repeat(np.arange(n), degree)  # 60 agent-side stubs
    total = stub_owner.size
    # one permutation per sample: stub in slot s -> query s // gamma
    perms = np.argsort(rng.random((samples, total)), axis=1)
    owners = stub_owner[perms]  # (samples, total)
    one_flags = bits[owners]
    query_sums = one_flags.reshape(samples, m, gamma).sum(axis=2)

    slots0 = np.argsort(owners == 0, axis=1, kind="stable")[:, -degree:]
    queries0 = slots0 // gamma
    q_first = queries0[:, 0]
    q_second = queries0[:, 1]
    rows = np.arange(samples)
    scores = query_sums[rows, q_first] + np.where(
        q_first == q_second, 0, query_sums[rows, q_second]
    )
    distinct0 = np.where(q_first == q_second, 1, 2)
    x_values = scores - degree * int(bits[0])

    population = degree * n - degree
    positives = int(bits.sum() * degree) - degree * int(bits[0])
    return x_values, distinct0, population, positives, degree, gamma


def clashes_reference(values, index=()) -> list[bool]:
    """Per value: does it occur twice in ``values``, or count above 0 in the overlay ``index``?

    ``index`` is ``(base, added, removed)``: a key's count is its copies in
    ``base`` and ``added`` less its copies in ``removed``, tallied by Counter.
    """
    seen = Counter(values)
    held: Counter = Counter()
    if index:
        base, added, removed = (list(part) for part in index)
        held.update(base + added)
        held.subtract(removed)
    return [seen[value] > 1 or held[value] > 0 for value in values]


def _multiset_counts(base_sorted: np.ndarray, delta: dict[int, int], keys: np.ndarray) -> np.ndarray:
    """Current multiplicity of each key: static sorted snapshot plus overlay."""
    left = np.searchsorted(base_sorted, keys, side="left")
    right = np.searchsorted(base_sorted, keys, side="right")
    counts = (right - left).astype(np.int64)
    if delta:
        adj = np.fromiter((delta.get(int(k), 0) for k in keys), dtype=np.int64, count=keys.size)
        counts += adj
    return counts


def repair_slots_reference(
    slot_agent: np.ndarray,
    slot_query: np.ndarray,
    n_queries: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Swap repair over a global (agent, query) key sort plus a dict overlay.

    The original implementation of ``designs._repair_slots``, kept as the
    slow path the row-wise repair must match: same agent column, same number
    of draws from ``rng``.  It reads the attempt budget factor from
    ``pooledsim.designs`` so a monkeypatched budget applies to both.  Like
    the fast path it does not check its precondition: input that no simple
    graph fits spends the budget and raises SimplificationError.
    """
    slot_agent = slot_agent.copy()
    total = slot_agent.size
    m = np.int64(n_queries)
    budget = designs._MAX_SWAP_FACTOR * total
    attempts = 0

    keys = slot_agent * m + slot_query
    order = np.argsort(keys, kind="stable")
    base_sorted = keys[order]
    delta: dict[int, int] = {}

    # One repair slot per surplus copy of each duplicated pair.
    dup = np.zeros(total, dtype=bool)
    dup[1:] = base_sorted[1:] == base_sorted[:-1]
    pending = order[dup]

    while pending.size:
        if attempts >= budget:
            raise SimplificationError(
                f"no simple graph reached within {budget} attempted swaps"
            )
        attempts += pending.size
        partners = rng.integers(0, total, size=pending.size)
        u = slot_agent[pending]
        a = slot_query[pending]
        v = slot_agent[partners]
        b = slot_query[partners]
        new_ub = u * m + b
        new_va = v * m + a

        ok = (u != v) & (a != b)
        ok &= _multiset_counts(base_sorted, delta, new_ub) == 0
        ok &= _multiset_counts(base_sorted, delta, new_va) == 0
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
            s_idx = pending[applied]
            t_idx = partners[applied]
            old_ua = u[applied] * m + a[applied]
            old_vb = v[applied] * m + b[applied]
            slot_agent[s_idx] = v[applied]
            slot_agent[t_idx] = u[applied]
            for arr, step in ((old_ua, -1), (old_vb, -1), (new_ub[applied], 1), (new_va[applied], 1)):
                for key in arr.tolist():
                    delta[key] = delta.get(key, 0) + step

        remaining = pending[~ok]
        if remaining.size:
            # Partner-side rewires can shrink a pair's multiplicity, so cap the
            # surviving repair slots at (current multiplicity - 1) per pair.
            rem_keys = slot_agent[remaining] * m + slot_query[remaining]
            ord2 = np.argsort(rem_keys, kind="stable")
            rem_sorted = remaining[ord2]
            keys_sorted = rem_keys[ord2]
            uniq, run_start, run_len = np.unique(keys_sorted, return_index=True, return_counts=True)
            surplus = np.maximum(_multiset_counts(base_sorted, delta, uniq) - 1, 0)
            keep_len = np.minimum(run_len, surplus)
            pos_in_run = np.arange(rem_sorted.size) - np.repeat(run_start, run_len)
            pending = rem_sorted[pos_in_run < np.repeat(keep_len, run_len)]
        else:
            pending = remaining

    return slot_agent
