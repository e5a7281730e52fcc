import io
import math
import warnings

import numpy as np
import pytest
import scipy.stats
from scipy.special import gammaln

import pooledsim.designs
from oracles import (
    _pool_cells,
    bernoulli_dense_reference,
    graph_from_pairs,
    is_simple,
    repair_slots_reference,
    same_graph,
    simplify,
    skip_keys_reference,
    write_edge_list_reference,
)
from pooledsim.channel import QueryOutcomes
from pooledsim.decoder import compute_score_vector
from pooledsim.designs import (
    DesignSpec,
    PoolingGraph,
    SimplificationError,
    generate,
    read_edge_list,
    write_edge_list,
)
from pooledsim.experiment import FAMILY_STREAM_IDS
from pooledsim.model import ChannelMatrix


def log_choose(n, k):
    return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)


def membership_probability(total_stubs, agent_stubs, gamma):
    """Exact Pr(agent in a fixed query) under the configuration model."""
    return 1.0 - np.exp(
        log_choose(total_stubs - agent_stubs, gamma) - log_choose(total_stubs, gamma)
    )


# ---------------------------------------------------------------- DesignSpec


def test_design_spec_validation():
    with pytest.raises(ValueError):
        DesignSpec(n=10, m=5, gamma=11, family="bernoulli")
    with pytest.raises(ValueError):
        DesignSpec(n=10, m=5, gamma=11, family="one_sided_regular", allow_multi=False)
    with pytest.raises(ValueError):
        DesignSpec(n=10, m=5, gamma=2, family="bernoulli", allow_multi=True)
    with pytest.raises(ValueError):
        DesignSpec(n=10, m=5, gamma=2, family="unknown")
    with pytest.raises(ValueError):
        DesignSpec(n=0, m=5, gamma=2, family="bernoulli")
    # multi-edge regular designs may exceed n agents per query
    DesignSpec(n=2, m=1, gamma=4, family="doubly_regular", allow_multi=True)


# ------------------------------------------------------ balanced degree split


def degree_split(n, m, gamma, rng):
    """Agent degrees of a multi-edge doubly regular design: the balanced split itself."""
    spec = DesignSpec(n=n, m=m, gamma=gamma, family="doubly_regular", allow_multi=True)
    return generate(spec, rng).agent_degrees


def test_degree_sequence_forced_examples():
    rng = np.random.default_rng(0)
    seq = degree_split(5, 2, 3, rng)
    assert sorted(seq.tolist()) == [1, 1, 1, 1, 2]
    assert int(seq.sum()) == 6

    seq = degree_split(4, 2, 2, rng)
    assert seq.tolist() == [1, 1, 1, 1]

    seq = degree_split(3, 3, 2, rng)
    assert seq.tolist() == [2, 2, 2]


def test_degree_sequence_randomized_grid():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 50))
        m = int(rng.integers(1, 50))
        gamma = int(rng.integers(1, 50))
        seq = degree_split(n, m, gamma, rng)
        assert int(seq.sum()) == m * gamma
        assert int(seq.max() - seq.min()) <= 1
        assert seq.mean() == pytest.approx(m * gamma / n)


def test_degree_sequence_surplus_agents_are_random():
    # The +1 degrees must not be pinned to the first indices.
    rng = np.random.default_rng(3)
    hits = np.zeros(5)
    for _ in range(2000):
        seq = degree_split(5, 2, 3, rng)  # one agent gets degree 2
        hits[np.argmax(seq)] += 1
    # each agent should carry the surplus about 400 times; 5 sigma ~ 90
    assert hits.min() > 250
    assert hits.max() < 550


# ----------------------------------------------------- doubly regular family


def test_doubly_regular_degree_one_agents():
    rng = np.random.default_rng(1)
    spec = DesignSpec(n=4, m=2, gamma=2, family="doubly_regular", allow_multi=True)
    graph = generate(spec, rng)
    assert int(graph.edge_mult.sum()) == 4
    assert graph.query_degrees.tolist() == [2, 2]
    assert graph.agent_degrees.tolist() == [1, 1, 1, 1]
    assert is_simple(graph)


def test_doubly_regular_forced_totals_single_query():
    rng = np.random.default_rng(2)
    spec = DesignSpec(n=2, m=1, gamma=4, family="doubly_regular", allow_multi=True)
    graph = generate(spec, rng)
    assert int(graph.edge_mult.sum()) == 4
    assert graph.query_degrees.tolist() == [4]
    assert int(graph.agent_degrees.sum()) == 4


def test_doubly_regular_matches_degree_sequence_every_time():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        m = int(rng.integers(1, 20))
        gamma = int(rng.integers(1, 15))
        spec = DesignSpec(n=n, m=m, gamma=gamma, family="doubly_regular", allow_multi=True)
        graph = generate(spec, rng)
        assert (graph.query_degrees == gamma).all()
        degs = graph.agent_degrees
        assert int(degs.sum()) == m * gamma
        assert int(degs.max() - degs.min()) <= 1


def test_doubly_regular_membership_probability_oracle():
    # Pr(agent 0 in query 0) has the exact hypergeometric-style closed form
    # 1 - C(total - deg_0, gamma) / C(total, gamma).
    rng = np.random.default_rng(20260809)
    spec = DesignSpec(n=100, m=50, gamma=10, family="doubly_regular", allow_multi=True)
    generations = 10**4
    hits = 0
    for _ in range(generations):
        graph = generate(spec, rng)
        hits += bool(np.any((graph.edge_agents == 0) & (graph.edge_queries == 0)))
    p_exact = membership_probability(total_stubs=500, agent_stubs=5, gamma=10)
    assert abs(hits / generations - p_exact) < 0.01


def test_doubly_regular_exchangeable_membership():
    # With m * gamma divisible by n all agents play identical roles, so the
    # per-cell membership counts are uniform.  Negative association makes the
    # plain chi-square conservative here.
    rng = np.random.default_rng(8)
    spec = DesignSpec(n=6, m=4, gamma=3, family="doubly_regular", allow_multi=True)
    generations = 10**4
    counts = np.zeros((6, 4))
    for _ in range(generations):
        graph = generate(spec, rng)
        counts[graph.edge_agents, graph.edge_queries] += 1
    _, pvalue = scipy.stats.chisquare(counts.ravel())
    assert pvalue > 0.01


# --------------------------------------------------------- one-sided family


def test_one_sided_single_agent_queries():
    rng = np.random.default_rng(4)
    spec = DesignSpec(n=5, m=3, gamma=1, family="one_sided_regular", allow_multi=False)
    graph = generate(spec, rng)
    assert graph.query_degrees.tolist() == [1, 1, 1]
    assert int(graph.agent_degrees.sum()) == 3


def test_one_sided_simple_full_subset():
    rng = np.random.default_rng(4)
    spec = DesignSpec(n=3, m=1, gamma=3, family="one_sided_regular", allow_multi=False)
    graph = generate(spec, rng)
    assert graph.edge_agents.tolist() == [0, 1, 2]
    assert is_simple(graph)


def test_one_sided_regular_query_degrees():
    rng = np.random.default_rng(14)
    for multi in (False, True):
        spec = DesignSpec(n=12, m=9, gamma=7, family="one_sided_regular", allow_multi=multi)
        graph = generate(spec, rng)
        assert (graph.query_degrees == 7).all()
        if not multi:
            assert is_simple(graph)


def test_one_sided_multi_self_pair_rate():
    # A pair query drawn with replacement repeats its first agent w.p. 1/n.
    rng = np.random.default_rng(16)
    spec = DesignSpec(n=10, m=1000, gamma=2, family="one_sided_regular", allow_multi=True)
    self_pairs = 0
    total = 0
    for _ in range(10):
        graph = generate(spec, rng)
        self_pairs += int(np.count_nonzero(graph.edge_mult == 2))
        total += graph.n_queries
    assert abs(self_pairs / total - 0.1) < 0.01


# ----------------------------------------------------------- bernoulli family


def test_bernoulli_complete_graph():
    rng = np.random.default_rng(6)
    spec = DesignSpec(n=4, m=2, gamma=4, family="bernoulli")
    graph = generate(spec, rng)
    assert int(graph.edge_mult.sum()) == 8
    assert (graph.query_degrees == 4).all()
    assert (graph.agent_degrees == 2).all()


def test_bernoulli_mean_query_degree():
    rng = np.random.default_rng(9)
    spec = DesignSpec(n=100, m=100, gamma=10, family="bernoulli")
    total = 0.0
    generations = 1000
    for _ in range(generations):
        graph = generate(spec, rng)
        total += graph.query_degrees.mean()
    assert abs(total / generations - 10.0) < 0.1


def bernoulli_query_degrees(sampler, spec, seed, generations):
    rng = np.random.default_rng(seed)
    return np.concatenate([sampler(spec, rng).query_degrees for _ in range(generations)])


def test_bernoulli_query_degrees_are_binomial():
    # The cells are independent, so the per-query degrees are iid Binomial(n, gamma / n).
    spec = DesignSpec(n=200, m=500, gamma=20, family="bernoulli")
    degrees = bernoulli_query_degrees(generate, spec, seed=41, generations=40)
    observed = np.bincount(degrees, minlength=spec.n + 1).astype(float)
    expected = scipy.stats.binom.pmf(np.arange(spec.n + 1), spec.n, spec.gamma / spec.n)
    obs_cells, exp_cells = _pool_cells(observed, expected * degrees.size, 5.0)
    _, pvalue = scipy.stats.chisquare(obs_cells, exp_cells)
    assert pvalue > 0.001


def test_bernoulli_query_degrees_match_dense_reference():
    spec = DesignSpec(n=200, m=500, gamma=20, family="bernoulli")
    skips = bernoulli_query_degrees(generate, spec, seed=42, generations=40)
    dense = bernoulli_query_degrees(bernoulli_dense_reference, spec, seed=43, generations=40)
    # clip the sparse tails into the end cells so the chi-square approximation is sound
    lo, hi = scipy.stats.binom.ppf([0.001, 0.999], spec.n, spec.gamma / spec.n).astype(int)
    table = [np.bincount(np.clip(d, lo, hi) - lo, minlength=hi - lo + 1) for d in (skips, dense)]
    _, pvalue, _, _ = scipy.stats.chi2_contingency(table)
    assert pvalue > 0.001


def test_bernoulli_cell_frequencies():
    # Every (agent, query) cell, the first and the last key included, is an
    # edge with probability gamma / n.
    spec = DesignSpec(n=5, m=4, gamma=2, family="bernoulli")
    draws = 5000
    counts = np.zeros((spec.n, spec.m), dtype=np.int64)
    for seed in range(draws):
        graph = generate(spec, np.random.default_rng(seed))
        counts[graph.edge_agents, graph.edge_queries] += 1
    p_edge = spec.gamma / spec.n
    stat = float((((counts - draws * p_edge) ** 2) / (draws * p_edge * (1 - p_edge))).sum())
    assert scipy.stats.chi2.sf(stat, counts.size) > 0.001


def test_bernoulli_one_agent_per_query_is_canonical():
    spec = DesignSpec(n=50, m=30, gamma=1, family="bernoulli")
    rng = np.random.default_rng(45)
    generations = 2000
    edges = 0
    for _ in range(generations):
        graph = generate(spec, rng)
        keys = graph.edge_agents * spec.m + graph.edge_queries
        assert (np.diff(keys) > 0).all()
        assert ((0 <= keys) & (keys < spec.n * spec.m)).all()
        assert (graph.edge_mult == 1).all()
        edges += graph.edge_agents.size
    # m * gamma = 30 expected edges per graph; sd of the mean is about 0.12
    assert abs(edges / generations - 30.0) < 0.5


@pytest.mark.parametrize("block", [1, 3, 50])
def test_bernoulli_keys_do_not_depend_on_the_block_size(block):
    # Small blocks drive the top-up path: the keys must be those of one big block.
    spec = DesignSpec(n=60, m=40, gamma=30, family="bernoulli")
    for seed in range(5):
        graph = generate(spec, np.random.default_rng(seed))
        keys = pooledsim.designs._skip_keys(
            spec.n * spec.m, spec.gamma / spec.n, block, np.random.default_rng(seed)
        )
        assert keys.tolist() == (graph.edge_agents * spec.m + graph.edge_queries).tolist()


@pytest.mark.parametrize(
    "p_edge",
    [1e-6, 0.05, 0.1, np.nextafter(1 / 3, 0), 1 / 3, 0.5, 1.0],
    ids=["1e-6", "0.05", "0.1", "below-1/3", "1/3", "0.5", "1"],
)
def test_skip_keys_match_the_geometric_reference(p_edge):
    # Below 1/3 the gaps are numpy's inversion done in one vector pass, at and
    # above it they are rng.geometric's own: either way the keys, their dtype
    # and the generator state after match the rng.geometric sampler's.  A
    # 7-gap block runs the top-up loop; one block of 10^5 expected keys
    # reaches far into the exponential tail.
    for mean, blocks, seeds in [(200, (7, 300), 5), (10**5, (10**5 + 1900,), 2)]:
        cells = math.ceil(mean / p_edge)
        for block in blocks:
            for seed in range(seeds):
                fast_rng, slow_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                fast = pooledsim.designs._skip_keys(cells, p_edge, block, fast_rng)
                slow = skip_keys_reference(cells, p_edge, block, slow_rng)
                assert fast.dtype == slow.dtype
                assert np.array_equal(fast, slow)
                assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


# ------------------------------------------------------------------ simplify


def test_simplify_keeps_simple_graph_unchanged():
    graph = graph_from_pairs(3, 2, 2, [(0, 0), (1, 0), (1, 1), (2, 1)])
    rng = np.random.default_rng(0)
    assert simplify(graph, rng) is graph


def test_simplify_forced_four_cycle():
    graph = graph_from_pairs(2, 2, 2, [(0, 0), (0, 0), (1, 1), (1, 1)])
    out = simplify(graph, np.random.default_rng(12))
    assert is_simple(out)
    assert out.edge_agents.tolist() == [0, 0, 1, 1]
    assert out.edge_queries.tolist() == [0, 1, 0, 1]
    assert out.edge_mult.tolist() == [1, 1, 1, 1]


def test_simplify_rejects_oversized_queries():
    graph = graph_from_pairs(2, 1, 4, [(0, 0), (0, 0), (1, 0), (1, 0)])
    with pytest.raises(ValueError):
        simplify(graph, np.random.default_rng(0))


def test_simplify_rejects_oversaturated_agents():
    # agent 0 has three edge instances but only two queries exist
    graph = graph_from_pairs(3, 2, 2, [(0, 0), (0, 0), (0, 1), (1, 1)])
    with pytest.raises(ValueError):
        simplify(graph, np.random.default_rng(0))


def test_simplify_preserves_degrees_over_many_runs():
    rng = np.random.default_rng(77)
    spec = DesignSpec(n=100, m=50, gamma=10, family="doubly_regular", allow_multi=True)
    successes = 0
    for _ in range(1000):
        graph = generate(spec, rng)
        out = simplify(graph, rng)
        assert is_simple(out)
        assert np.array_equal(out.agent_degrees, graph.agent_degrees)
        assert np.array_equal(out.query_degrees, graph.query_degrees)
        successes += 1
    assert successes == 1000


def test_simplify_rejects_unequal_query_degrees():
    # a non-simple graph with query degrees 3 and 1 has no (m, gamma) matrix
    graph = graph_from_pairs(3, 2, 2, [(0, 0), (0, 0), (1, 0), (2, 1)])
    with pytest.raises(ValueError, match="equal query degrees, got degrees from 1 to 3"):
        simplify(graph, np.random.default_rng(0))


# ------------------------------------------- swap repair against its oracle


def shuffled_members(n, m, gamma, seed):
    """The (m, gamma) member matrix the doubly regular generator hands to the repair."""
    spec = DesignSpec(n=n, m=m, gamma=gamma, family="doubly_regular", allow_multi=True)
    return pooledsim.designs._doubly_regular_members(spec, np.random.default_rng(seed))


def repair_outcome(repair, seed):
    """Repaired agent column (or the error message) and the generator state after."""
    rng = np.random.default_rng(seed)
    try:
        out = repair(rng).ravel().tolist()
    except SimplificationError as exc:
        out = str(exc)
    return out, rng.bit_generator.state


def assert_repairs_agree(members, n, seed):
    m, gamma = members.shape
    fast = repair_outcome(
        lambda rng: pooledsim.designs._repair_slots(members.copy(), n, rng), seed
    )
    slot_query = np.repeat(np.arange(m, dtype=np.int64), gamma)
    slow = repair_outcome(
        lambda rng: repair_slots_reference(members.ravel(), slot_query, n, m, rng), seed
    )
    assert fast == slow


@pytest.mark.parametrize(
    "n, m, gamma, seeds",
    [
        (2, 3, 1, 20),
        (2, 2, 2, 20),
        (8, 6, 6, 20),  # gamma = 3n/4: dense rows
        (40, 30, 30, 10),
        (1000, 300, 100, 3),  # the figure point
        (10**4, 1000, 500, 2),
        (10**4, 5938, 500, 2),  # the soundness point: a batch rewrites nearly every row
        (65_536, 65_536, 4, 3),  # n * m = 2**32: uint32 keys up to 2**32 - 1
        (65_536, 65_537, 4, 3),  # n * m just past 2**32: int64 keys
        (131_072, 9, 32_769, 1),  # n * gamma alone past 2**32: int64 keys
    ],
)
def test_repair_slots_matches_reference(n, m, gamma, seeds):
    for seed in range(seeds):
        assert_repairs_agree(shuffled_members(n, m, gamma, seed), n, seed + 10**6)


@pytest.mark.parametrize("fraction", [0.0, math.inf], ids=["fold-every-batch", "never-fold"])
@pytest.mark.parametrize("n, m, gamma, seeds", [(8, 6, 6, 20), (40, 30, 30, 10)])
def test_repair_slots_matches_reference_whether_the_overlay_folds(
    monkeypatch, fraction, n, m, gamma, seeds
):
    monkeypatch.setattr(pooledsim.designs, "_MAX_OVERLAY_FRACTION", fraction)
    test_repair_slots_matches_reference(n, m, gamma, seeds)


def test_repair_slots_matches_reference_when_budget_is_spent(monkeypatch):
    monkeypatch.setattr(pooledsim.designs, "_MAX_SWAP_FACTOR", 0)
    members = shuffled_members(40, 30, 30, 5)
    with pytest.raises(SimplificationError):
        pooledsim.designs._repair_slots(members.copy(), 40, np.random.default_rng(0))
    assert_repairs_agree(members, 40, 0)


@pytest.mark.parametrize(
    "n, members",
    [
        (2, [[0, 0, 1, 1]]),  # a query with more edges than agents
        (3, [[0, 0], [0, 1]]),  # agent 0 has three edges but only two queries exist
    ],
)
def test_repair_slots_matches_reference_on_infeasible_input(n, members):
    members = np.array(members, dtype=np.int64)
    m, gamma = members.shape
    slot_query = np.repeat(np.arange(m, dtype=np.int64), gamma)
    with pytest.raises(ValueError) as slow:
        repair_slots_reference(members.ravel(), slot_query, n, m, np.random.default_rng(0))
    with pytest.raises(ValueError, match=str(slow.value)):
        pooledsim.designs._repair_slots(members, n, np.random.default_rng(0))


def test_generate_doubly_regular_simple_variant_is_simple():
    rng = np.random.default_rng(15)
    spec = DesignSpec(n=30, m=20, gamma=12, family="doubly_regular", allow_multi=False)
    graph = generate(spec, rng)
    assert is_simple(graph)
    assert (graph.query_degrees == 12).all()
    assert graph.distinct_agent_degrees.tolist() == graph.agent_degrees.tolist()


MEMBERS_OF = {
    "doubly_regular": pooledsim.designs._doubly_regular_members,
    "one_sided_regular": pooledsim.designs._one_sided_members,
}


@pytest.mark.parametrize("family", sorted(MEMBERS_OF))
@pytest.mark.parametrize(
    "n, m, gamma",
    [
        (60, 40, 30),
        (1000, 300, 100),
        (10, 8, 10),  # gamma = n: full rows (np.tile for one-sided)
        (1, 3, 1),
    ],
)
def test_simple_generate_sorts_like_unique(family, n, m, gamma):
    # A simple design's keys are all distinct, so a sort gives np.unique's arrays.
    spec = DesignSpec(n=n, m=m, gamma=gamma, family=family)
    for seed in range(5):
        graph = generate(spec, np.random.default_rng(seed))
        members = MEMBERS_OF[family](spec, np.random.default_rng(seed))
        keys, mult = np.unique(members * m + np.arange(m)[:, None], return_counts=True)
        agents, queries = np.divmod(keys, m)
        for got, want in zip(
            (graph.edge_agents, graph.edge_queries, graph.edge_mult), (agents, queries, mult)
        ):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert (graph.edge_mult == 1).all()


# The pair keys are below n * max(m, gamma): these points sit at n * m = 2**32
# (uint32 keys up to 2**32 - 1), just past it, and where n * gamma alone
# passes it.  The one-sided simple sampler draws n * m uniforms, 4.3e9 at
# the first two points, so that family runs only at the last.
WIDE_KEY_POINTS = [
    ("doubly_regular", 65_536, 65_536, 4, np.uint32),
    ("doubly_regular", 65_536, 65_537, 4, np.int64),
    ("doubly_regular", 131_072, 9, 32_769, np.int64),
    ("one_sided_regular", 131_072, 9, 32_769, np.int64),
]


@pytest.mark.parametrize("family, n, m, gamma, key", WIDE_KEY_POINTS)
def test_simple_generate_sorts_like_unique_at_wide_keys(family, n, m, gamma, key):
    assert pooledsim.designs._key_dtype(n, m, gamma) is key
    test_simple_generate_sorts_like_unique(family, n, m, gamma)


@pytest.mark.parametrize("family", sorted(MEMBERS_OF))
@pytest.mark.parametrize("n, m, gamma", sorted({point[1:4] for point in WIDE_KEY_POINTS}))
def test_multi_generate_counts_like_unique(family, n, m, gamma):
    spec = DesignSpec(n=n, m=m, gamma=gamma, family=family, allow_multi=True)
    graph = generate(spec, np.random.default_rng(1))
    members = MEMBERS_OF[family](spec, np.random.default_rng(1))
    keys, mult = np.unique(members * m + np.arange(m)[:, None], return_counts=True)
    assert (mult > 1).any()
    for got, want in zip(
        (graph.edge_agents, graph.edge_queries, graph.edge_mult), (*np.divmod(keys, m), mult)
    ):
        assert got.dtype == want.dtype and not got.flags.writeable
        assert np.array_equal(got, want)


def test_repeated_marks_what_unique_counts_twice():
    rng = np.random.default_rng(3)
    for values in (rng.integers(0, 5, 40), rng.integers(0, 10**6, 2000), np.arange(7), [4]):
        values = np.asarray(values, dtype=np.int64)
        _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
        assert np.array_equal(pooledsim.designs._repeated(values), counts[inverse] > 1)


# ----------------------------------------------------------- distinct degrees


def test_distinct_degrees_simple_graph():
    graph = graph_from_pairs(3, 2, 2, [(0, 0), (1, 0), (1, 1), (2, 1)])
    assert graph.distinct_agent_degrees.tolist() == graph.agent_degrees.tolist()


def test_distinct_degrees_collapses_multiplicity():
    graph = graph_from_pairs(2, 1, 3, [(0, 0), (0, 0), (0, 0)])
    assert graph.agent_degrees.tolist() == [3, 0]
    assert graph.distinct_agent_degrees.tolist() == [1, 0]


def test_distinct_degree_ratio_dense_multigraph():
    rng = np.random.default_rng(10)
    spec = DesignSpec(n=1000, m=100, gamma=100, family="doubly_regular", allow_multi=True)
    graph = generate(spec, rng)
    avg_degree = 100 * 100 / 1000
    ratio = graph.distinct_agent_degrees.mean() / avg_degree
    assert 0.9 <= ratio <= 1.0
    # matches m * p_c / avg_degree from the exact membership probability
    p_exact = membership_probability(total_stubs=10**4, agent_stubs=10, gamma=100)
    assert ratio == pytest.approx(100 * p_exact / avg_degree, abs=0.01)


# ------------------------------------------------------------------ edge list


def test_edge_list_round_trip_and_header():
    rng = np.random.default_rng(21)
    spec = DesignSpec(n=4, m=2, gamma=2, family="doubly_regular", allow_multi=False)
    graph = generate(spec, rng)
    buf = io.StringIO()
    write_edge_list(buf, graph, spec.family, spec.allow_multi)
    text = buf.getvalue()
    assert text.splitlines()[0] == "4 2 2 doubly_regular false"
    spec_back, graph_back = read_edge_list(io.StringIO(text))
    assert spec_back == spec
    assert same_graph(graph_back, graph)

    # a header-only file is a Bernoulli design without edges
    spec_back, graph_back = read_edge_list(["3 2 1 bernoulli false"])
    assert spec_back == DesignSpec(n=3, m=2, gamma=1, family="bernoulli")
    assert graph_back.edge_mult.dtype == np.int64
    assert graph_back.agent_degrees.tolist() == [0, 0, 0]


def test_edge_list_round_trip_with_multiplicities():
    graph = graph_from_pairs(3, 2, 3, [(0, 0), (0, 0), (1, 0), (2, 1), (2, 1), (2, 1)])
    buf = io.StringIO()
    write_edge_list(buf, graph, "one_sided_regular", True)
    text = buf.getvalue()
    blank = text.replace("\n", "\n \t\n", 2)  # whitespace-only lines in the body
    first_edge_end = text.index("\n", text.index("\n") + 1)
    inputs = [
        io.StringIO(text),
        io.StringIO(blank),
        io.StringIO(text.replace("\n", "\r\n")),  # CRLF line ends
        blank.splitlines(),  # lines without terminators, one of them blank
        # lines of Unicode whitespace only: NBSP, form feed, vertical tab, U+3000, U+2028
        *(io.StringIO(text.replace("\n", f"\n{space}\n", 2)) for space in "\xa0\f\v\u3000\u2028"),
        io.StringIO(text.replace("\n", "\r\n\r\n", 3)),  # CRLF blank lines
        io.StringIO(text[:first_edge_end] + "\xa0" + text[first_edge_end:]),  # NBSP after a triple
    ]
    for lines in inputs:
        spec_back, graph_back = read_edge_list(lines)
        assert spec_back.allow_multi
        assert same_graph(graph_back, graph)
        assert not graph_back.edge_mult.flags.writeable


def edge_list_lines(writer, graph, family="one_sided_regular", allow_multi=True):
    # Lines with their ends: pytest compares lists by their first difference,
    # where a diff of two long strings would take minutes.
    buf = io.StringIO()
    writer(buf, graph, family, allow_multi)
    return buf.getvalue().splitlines(keepends=True)


@pytest.mark.parametrize("family, multi", sorted(FAMILY_STREAM_IDS))
def test_write_edge_list_matches_reference_writer(family, multi):
    # About 10^5 edges at the largest point: more than one 65,536-edge chunk.
    for n, m, gamma, seed in [(7, 5, 3, 0), (120, 40, 30, 1), (4000, 1000, 100, 2)]:
        spec = DesignSpec(n=n, m=m, gamma=gamma, family=family, allow_multi=multi)
        graph = generate(spec, np.random.default_rng(seed))
        assert edge_list_lines(write_edge_list, graph, family, multi) == edge_list_lines(
            write_edge_list_reference, graph, family, multi
        )


# Agents and queries that cross the 9 -> 10 and 99 -> 100 digit widths, agent 0,
# multiplicities of two digits and the int64 maximum, and a graph without edges.
WRITER_GRAPHS = {
    "digit-widths": graph_from_pairs(
        101, 101, 2, [(0, 0), (0, 9), (9, 10), (10, 99), (99, 100), (100, 0), (100, 100)]
    ),
    "wide-multiplicities": PoolingGraph(
        3, 2, 1, np.array([0, 1, 2]), np.array([1, 0, 1]),
        np.array([10, np.iinfo(np.int64).max, 99]),
    ),
    "zero-agent-and-query": PoolingGraph(1, 1, 1, np.array([0]), np.array([0]), np.array([1])),
    "no-edges": PoolingGraph(3, 2, 1, *(np.empty(0, dtype=np.int64) for _ in range(3))),
}


@pytest.mark.parametrize("name", sorted(WRITER_GRAPHS))
def test_write_edge_list_matches_reference_on_digit_edge_cases(name):
    graph = WRITER_GRAPHS[name]
    lines = edge_list_lines(write_edge_list, graph)
    assert lines == edge_list_lines(write_edge_list_reference, graph)
    assert len(lines) == len(graph.edge_mult) + 1


def test_write_edge_list_crosses_a_chunk_boundary():
    # 70,000 edges: one full 65,536-edge chunk and a partial one, with queries
    # of one, two and three digits on both sides of the boundary.
    agents, queries = np.divmod(np.arange(70_000), 1000)
    mult = 1 + queries % 13
    graph = PoolingGraph(70, 1000, 1000, agents, queries, mult)
    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(len(text))
            return super().write(text)

    stream = Recorder()
    write_edge_list(stream, graph, "one_sided_regular", True)
    lines = stream.getvalue().splitlines(keepends=True)
    assert lines == edge_list_lines(write_edge_list_reference, graph)
    assert len(writes) == 3  # the header and two chunks


def test_read_edge_list_skips_blank_lines_without_warnings():
    # Under warnings-as-errors numpy must not warn about the blank lines, and a
    # bad line after blank ones is still reported by its line in the file.
    body = ["0 0 1", "", "  ", "1 0 1", "\t", "2 1 1", ""]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, graph = read_edge_list(["3 2 1 bernoulli false", *body])
        assert graph.edge_agents.tolist() == [0, 1, 2]
        assert graph.edge_queries.tolist() == [0, 0, 1]
        for bad, message in [("2 x 1", "expected an integer"), ("2 5 1", r"query outside 0\.\.1")]:
            lines = ["3 2 1 bernoulli false", *body[:5], bad, *body[6:]]
            with pytest.raises(ValueError, match=f"^line 7: {message}"):
                read_edge_list(lines)
        _, graph = read_edge_list(["3 2 1 bernoulli false", "", " "])
        assert len(graph.edge_mult) == 0


@pytest.mark.parametrize(
    "text, message",
    [
        ("4 2 2 doubly_regular\n", "malformed header"),
        ("", "empty edge-list input"),
        (
            "2 1 2 one_sided_regular false\n0 0 2\n",
            "line 2: multiplicity above 1 under multi=false",
        ),
        ("2 1 2 one_sided_regular true\n0 0 2\n1 0 0\n", "line 3: multiplicity must be at least 1"),
        ("2 1 2 one_sided_regular true\n0 0 1\n0 0 1\n", "line 3: repeats the line before"),
        ("2 1 2 one_sided_regular false\n\n1 0 1\n0 0 1\n", "line 4: precedes the line before"),
        ("3 2 2 doubly_regular false\n0 0 1\n1 0 1\n1 1 1\n", "query 1 has degree 1, expected gamma=2"),
        (
            "3 2 2 one_sided_regular false\n0 0 1\n1 0 1\n1 1 1\n",
            "^one_sided_regular query 1 has degree 1, expected gamma=2$",
        ),
        (
            "3 2 2 doubly_regular false\n0 0 1\n0 1 1\n1 0 1\n1 1 1\n",
            "^doubly_regular agent 2 has degree 0, expected 1 or 2$",
        ),
        ("2 2 1 doubly_regular false\n0 0 1\n0 1 1\n", "^doubly_regular agent 0 has degree 2, expected 1$"),
        ("2 1 2 one_sided_regular false\n0 0 1\n5 0 1\n", r"line 3: agent outside 0\.\.1"),
        ("x 1 2 one_sided_regular true\n", "malformed header"),
        ("2 1 2 one_sided_regular true\n\n0 x 1\n", "line 3: expected an integer"),
        ("2 1 2 one_sided_regular true\n0 0 1.0\n", "line 2: expected an integer"),
        (
            "2 1 2 bernoulli false\n99999999999999999999 0 1\n",
            "line 2: expected an integer 'agent query multiplicity' triple",
        ),
        ("2 1 2 one_sided_regular true\n0 0 1\n1 0 1 # x\n", "line 3: expected an integer"),
        ("2 1 2 one_sided_regular true\n0 0 1\n\n1 0\n", "line 4: expected an integer"),
        ("2 1 2 one_sided_regular true\n0 0 1\n1 0 1 1\n", "line 3: expected an integer"),
        # Python's int() reads 1_0 as 10; the edge-list format takes ASCII digits only
        ("20 1 2 one_sided_regular true\n1_0 0 1\n", "line 2: expected an integer"),
    ],
    ids=[
        "no-multi-flag", "empty", "multi-false", "mult-zero", "duplicate", "unsorted", "dr-degree",
        "one-sided-degree", "dr-agent-degree", "dr-agent-degree-exact",
        "agent-range", "header-non-integer", "query-non-integer", "mult-non-integer",
        "int64-overflow", "comment", "two-fields", "four-fields", "underscore-digits",
    ],
)
def test_edge_list_rejects_malformed_header(text, message):
    with pytest.raises(ValueError, match=message):
        read_edge_list(io.StringIO(text))


# Body lines of a valid 4-agent, 3-query file; None marks a blank line.
LOCATOR_BODY = ["0 0 1", None, "0 2 1", "1 1 1", "  ", "2 0 1", None, None, "3 1 1", "3 2 1"]
# More than one 65,536-line parse chunk (agents 0..3, each in queries 0..16999),
# with blank lines on both sides of the chunk boundary.
LONG_LOCATOR_BODY = [f"{agent} {query} 1" for agent in range(4) for query in range(17_000)]
LONG_LOCATOR_BODY[65_533:65_533] = ["", "  ", ""]  # body lines 65,533..65,535
LONG_LOCATOR_BODY[65_537:65_537] = ["", "\t"]  # body lines 65,537 and 65,538


@pytest.mark.parametrize("field, message", [("x", "expected an integer"), ("4", "agent outside")])
def test_edge_list_locates_each_bad_line(field, message):
    for target, line in enumerate(LOCATOR_BODY):
        if line is None or not line.strip():
            continue
        body = [
            "" if text is None else (f"{field} {text.split(' ', 1)[1]}" if i == target else text)
            for i, text in enumerate(LOCATOR_BODY)
        ]
        text = "4 3 1 one_sided_regular false\n" + "\n".join(body) + "\n"
        with pytest.raises(ValueError, match=f"^line {target + 2}: {message}"):
            read_edge_list(io.StringIO(text))

    # The long body takes the bisection deeper, and into the second chunk.
    for target in (0, 4321, 65_536, 65_539, len(LONG_LOCATOR_BODY) - 1):
        body = list(LONG_LOCATOR_BODY)
        body[target] = f"{field} {body[target].split(' ', 1)[1]}"
        text = "4 17000 4 one_sided_regular false\n" + "\n".join(body) + "\n"
        with pytest.raises(ValueError, match=f"^line {target + 2}: {message}"):
            read_edge_list(io.StringIO(text))


def test_edge_list_degrees_are_exact_int64():
    above_2_53 = 2**53 + 1
    with pytest.raises(ValueError, match=f"has degree {above_2_53}, expected gamma=1$"):
        read_edge_list(["1 1 1 doubly_regular true", f"0 0 {above_2_53}"])

    top = np.iinfo(np.int64).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, graph = read_edge_list([f"1 1 {top} doubly_regular true", f"0 0 {top}"])
    assert graph.query_degrees.tolist() == [top]
    assert graph.agent_degrees.tolist() == [top]
    assert graph.distinct_agent_degrees.tolist() == [1]


def test_edge_list_agent_degrees_survive_a_wrapping_running_sum():
    # A running sum of the multiplicities would pass 2**63 at agent 2; each
    # agent's sum must still be the agent's own multiplicity.
    top = np.iinfo(np.int64).max
    lines = [f"3 2 {top} one_sided_regular true", f"0 0 {top}", f"2 1 {top}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, graph = read_edge_list(lines)
        assert graph.agent_degrees.tolist() == [top, 0, top]
        assert graph.distinct_agent_degrees.tolist() == [1, 0, 1]


# ------------------------------------------------------------- agent offsets

# Sparse Bernoulli graphs leave agents without edges, agent 0 and agent n - 1
# among them; the listed pairs leave agents 0, 2, 4 and 6 edgeless and repeat
# the pair (1, 0); the DR/multi graph has multi-edges.  The edgeless graph has
# E = 0; the last-agent graph leaves agents 1, 2 and 4 edgeless and gives
# agent 5, the last, a multi-edge.
OFFSET_GRAPHS = {
    "bernoulli-sparse": lambda: generate(
        DesignSpec(n=50, m=3, gamma=1, family="bernoulli"), np.random.default_rng(4)
    ),
    "bernoulli-figure": lambda: generate(
        DesignSpec(n=1000, m=30, gamma=10, family="bernoulli"), np.random.default_rng(5)
    ),
    "edgeless": lambda: graph_from_pairs(5, 3, 2, []),
    "last-agent-with-edges": lambda: graph_from_pairs(
        6, 3, 2, [(0, 1), (3, 0), (3, 2), (5, 0), (5, 2), (5, 2)]
    ),
    "pairs-with-gaps": lambda: graph_from_pairs(
        7, 4, 2, [(1, 0), (1, 0), (1, 3), (3, 1), (5, 0), (5, 2), (5, 3)]
    ),
    "doubly-regular-multi": lambda: generate(
        DesignSpec(n=40, m=25, gamma=12, family="doubly_regular", allow_multi=True),
        np.random.default_rng(8),
    ),
}


@pytest.mark.parametrize("name", sorted(OFFSET_GRAPHS))
def test_agent_offsets_match_scatter_oracles(name):
    graph = OFFSET_GRAPHS[name]()
    n, m = graph.n_agents, graph.n_queries
    distinct = np.bincount(graph.edge_agents, minlength=n)
    if name.startswith(("bernoulli", "pairs")):
        assert distinct[0] == distinct[-1] == 0 and (distinct[1:-1] == 0).any()
    if name.endswith("multi"):
        assert (graph.edge_mult > 1).any()
    if name == "edgeless":
        assert graph.edge_agents.size == 0
    if name == "last-agent-with-edges":
        assert distinct[-1] > 0 and (distinct[1:-1] == 0).any() and graph.edge_mult[-1] > 1
    degrees = np.zeros(n, dtype=np.int64)
    np.add.at(degrees, graph.edge_agents, graph.edge_mult)
    starts = np.concatenate([[0], np.cumsum(distinct)])
    for got, want in (
        (graph.agent_starts, starts),
        (graph.agent_degrees, degrees),
        (graph.distinct_agent_degrees, distinct),
    ):
        assert got.dtype == np.int64 and not got.flags.writeable
        assert np.array_equal(got, want)

    results = np.random.default_rng(1).integers(0, 3 * graph.gamma, m)
    scores = np.zeros(n)
    np.add.at(scores, graph.edge_agents, results[graph.edge_queries].astype(np.float64))
    # p = 0.99 keeps the threshold defined at these small m.
    vector = compute_score_vector(graph, QueryOutcomes(results), 0.99, ChannelMatrix.identity(), m)
    assert vector.scores.dtype == np.float64
    assert np.array_equal(vector.scores, scores)
