import io

import numpy as np
import pytest
import scipy.stats
from scipy.special import gammaln

import pooledsim.designs
from oracles import repair_slots_reference
from pooledsim.designs import (
    DesignSpec,
    PoolingGraph,
    SimplificationError,
    degree_sequence,
    distinct_degrees,
    generate,
    generate_bernoulli,
    generate_doubly_regular,
    generate_one_sided,
    read_edge_list,
    simplify,
    theoretical_gamma_window,
    write_edge_list,
)


def graph_from_pairs(n, m, gamma, pairs):
    agents = np.array([a for a, _ in pairs], dtype=np.int64)
    queries = np.array([q for _, q in pairs], dtype=np.int64)
    return PoolingGraph.from_pairs(n, m, gamma, agents, queries)


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


# ----------------------------------------------------------- degree_sequence


def test_degree_sequence_forced_examples():
    rng = np.random.default_rng(0)
    seq = degree_sequence(5, 2, 3, rng)
    assert sorted(seq.degrees.tolist()) == [1, 1, 1, 1, 2]
    assert int(seq.degrees.sum()) == 6

    seq = degree_sequence(4, 2, 2, rng)
    assert seq.degrees.tolist() == [1, 1, 1, 1]

    seq = degree_sequence(3, 3, 2, rng)
    assert seq.degrees.tolist() == [2, 2, 2]


def test_degree_sequence_randomized_grid():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 50))
        m = int(rng.integers(1, 50))
        gamma = int(rng.integers(1, 50))
        seq = degree_sequence(n, m, gamma, rng)
        assert int(seq.degrees.sum()) == m * gamma
        assert int(seq.degrees.max() - seq.degrees.min()) <= 1
        assert seq.average == pytest.approx(m * gamma / n)


def test_degree_sequence_surplus_agents_are_random():
    # The +1 degrees must not be pinned to the first indices.
    rng = np.random.default_rng(3)
    hits = np.zeros(5)
    for _ in range(2000):
        seq = degree_sequence(5, 2, 3, rng)  # one agent gets degree 2
        hits[np.argmax(seq.degrees)] += 1
    # each agent should carry the surplus about 400 times; 5 sigma ~ 90
    assert hits.min() > 250
    assert hits.max() < 550


# ----------------------------------------------------- doubly regular family


def test_doubly_regular_degree_one_agents():
    rng = np.random.default_rng(1)
    spec = DesignSpec(n=4, m=2, gamma=2, family="doubly_regular", allow_multi=True)
    graph = generate_doubly_regular(spec, rng)
    assert graph.total_reads == 4
    assert graph.query_degrees.tolist() == [2, 2]
    assert graph.agent_degrees.tolist() == [1, 1, 1, 1]
    assert graph.is_simple


def test_doubly_regular_forced_totals_single_query():
    rng = np.random.default_rng(2)
    spec = DesignSpec(n=2, m=1, gamma=4, family="doubly_regular", allow_multi=True)
    graph = generate(spec, rng)
    assert graph.total_reads == 4
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
    graph = generate_one_sided(spec, rng)
    assert graph.query_degrees.tolist() == [1, 1, 1]
    assert int(graph.agent_degrees.sum()) == 3


def test_one_sided_simple_full_subset():
    rng = np.random.default_rng(4)
    spec = DesignSpec(n=3, m=1, gamma=3, family="one_sided_regular", allow_multi=False)
    graph = generate(spec, rng)
    assert graph.edge_agents.tolist() == [0, 1, 2]
    assert graph.is_simple


def test_one_sided_regular_query_degrees():
    rng = np.random.default_rng(14)
    for multi in (False, True):
        spec = DesignSpec(n=12, m=9, gamma=7, family="one_sided_regular", allow_multi=multi)
        graph = generate(spec, rng)
        assert (graph.query_degrees == 7).all()
        if not multi:
            assert graph.is_simple


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
    graph = generate_bernoulli(spec, rng)
    assert graph.total_reads == 8
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


# ------------------------------------------------------------------ simplify


def test_simplify_keeps_simple_graph_unchanged():
    graph = graph_from_pairs(3, 2, 2, [(0, 0), (1, 0), (1, 1), (2, 1)])
    rng = np.random.default_rng(0)
    assert simplify(graph, rng) is graph


def test_simplify_forced_four_cycle():
    graph = graph_from_pairs(2, 2, 2, [(0, 0), (0, 0), (1, 1), (1, 1)])
    out = simplify(graph, np.random.default_rng(12))
    assert out.is_simple
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
        assert out.is_simple
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
    """The (m, gamma) member matrix generate_doubly_regular hands to the repair."""
    rng = np.random.default_rng(seed)
    degrees = degree_sequence(n, m, gamma, rng).degrees
    stubs = rng.permutation(np.repeat(np.arange(n, dtype=np.int64), degrees))
    return stubs.reshape(m, gamma)


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
    ],
)
def test_repair_slots_matches_reference(n, m, gamma, seeds):
    for seed in range(seeds):
        assert_repairs_agree(shuffled_members(n, m, gamma, seed), n, seed + 10**6)


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
    assert graph.is_simple
    assert (graph.query_degrees == 12).all()
    assert graph.distinct_agent_degrees.tolist() == graph.agent_degrees.tolist()


# ----------------------------------------------------------- distinct degrees


def test_distinct_degrees_simple_graph():
    graph = graph_from_pairs(3, 2, 2, [(0, 0), (1, 0), (1, 1), (2, 1)])
    assert distinct_degrees(graph).tolist() == graph.agent_degrees.tolist()


def test_distinct_degrees_collapses_multiplicity():
    graph = graph_from_pairs(2, 1, 3, [(0, 0), (0, 0), (0, 0)])
    assert graph.agent_degrees.tolist() == [3, 0]
    assert distinct_degrees(graph).tolist() == [1, 0]


def test_distinct_degree_ratio_dense_multigraph():
    rng = np.random.default_rng(10)
    spec = DesignSpec(n=1000, m=100, gamma=100, family="doubly_regular", allow_multi=True)
    graph = generate(spec, rng)
    avg_degree = 100 * 100 / 1000
    ratio = distinct_degrees(graph).mean() / avg_degree
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
    assert graph_back == graph


def test_edge_list_round_trip_with_multiplicities():
    graph = graph_from_pairs(3, 2, 4, [(0, 0), (0, 0), (1, 0), (2, 1), (2, 1), (2, 1)])
    buf = io.StringIO()
    write_edge_list(buf, graph, "one_sided_regular", True)
    spec_back, graph_back = read_edge_list(io.StringIO(buf.getvalue()))
    assert spec_back.allow_multi
    assert graph_back == graph


def test_edge_list_rejects_malformed_header():
    with pytest.raises(ValueError):
        read_edge_list(io.StringIO("4 2 2 doubly_regular\n"))
    with pytest.raises(ValueError):
        read_edge_list(io.StringIO(""))


# ------------------------------------------------------------- gamma window


def test_generators_reject_mismatched_family():
    rng = np.random.default_rng(0)
    spec = DesignSpec(n=5, m=2, gamma=2, family="doubly_regular")
    with pytest.raises(ValueError):
        generate_bernoulli(spec, rng)
    with pytest.raises(ValueError):
        generate_one_sided(spec, rng)
    with pytest.raises(ValueError):
        generate_doubly_regular(
            DesignSpec(n=5, m=2, gamma=2, family="bernoulli"), rng
        )


def test_theoretical_gamma_window_monotone_in_m():
    lo1, hi1 = theoretical_gamma_window(n=1000, m=100, p=0.01)
    lo2, hi2 = theoretical_gamma_window(n=1000, m=400, p=0.01)
    assert lo2 < lo1
    assert hi1 == hi2
    assert hi1 == pytest.approx(1000**0.95)
