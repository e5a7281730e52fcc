import numpy as np
import pytest
import scipy.stats

from oracles import (
    graph_from_pairs,
    naive_noiseless_results,
    per_read_results,
    read_bit,
    variant_graph,
)
from pooledsim.channel import effective_p, run_queries
from pooledsim.designs import FAMILIES, DesignSpec, generate
from pooledsim.model import BernoulliPrior, ChannelMatrix, GroundTruth, sample_ground_truth


def test_read_bit_identity_channel():
    rng = np.random.default_rng(0)
    ident = ChannelMatrix.identity()
    assert all(read_bit(1, ident, rng) == 1 for _ in range(100))
    assert all(read_bit(0, ident, rng) == 0 for _ in range(100))


def test_read_bit_always_flips_ones():
    # s11 = 0 violates the ChannelMatrix invariant (s11 - s01 > 0), so the
    # all-flip read is exercised through a bare stand-in object.
    from types import SimpleNamespace

    rng = np.random.default_rng(0)
    flip = SimpleNamespace(s11=0.0, s01=0.0)
    assert all(read_bit(1, flip, rng) == 0 for _ in range(100))
    with pytest.raises(ValueError):
        ChannelMatrix(s11=0.0, s01=0.0)


def test_read_bit_binomial_rate():
    rng = np.random.default_rng(31)
    chan = ChannelMatrix(s11=0.9, s01=0.05)
    reads = sum(read_bit(1, chan, rng) for _ in range(10**5))
    # 4 sigma band around 0.9 with 1e5 reads
    assert abs(reads / 10**5 - 0.9) < 0.004


def test_run_queries_identity_sums_incident_bits():
    graph = graph_from_pairs(3, 1, 3, [(0, 0), (1, 0), (2, 0)])
    truth = GroundTruth(np.array([1, 0, 1]))
    out = run_queries(graph, truth, ChannelMatrix.identity(), np.random.default_rng(0))
    assert out.results.tolist() == [2]


def test_run_queries_counts_multiplicity():
    # agent 0 has bit one and sits twice in query 0
    graph = graph_from_pairs(2, 1, 2, [(0, 0), (0, 0), (1, 0)])
    truth = GroundTruth(np.array([1, 0]))
    out = run_queries(graph, truth, ChannelMatrix.identity(), np.random.default_rng(0))
    assert out.results.tolist() == [2]


@pytest.mark.parametrize("s11, s01", [(1.0, 0.0), (0.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
def test_run_queries_deterministic_channels_are_exact_member_sums(s11, s01):
    # Only the identity is a valid ChannelMatrix; the other three are
    # stand-ins.  Multi-edges count once per copy.
    from types import SimpleNamespace

    spec = DesignSpec(n=40, m=25, gamma=12, family="doubly_regular", allow_multi=True)
    graph = generate(spec, np.random.default_rng(8))
    assert (graph.edge_mult > 1).any()
    truth = sample_ground_truth(40, BernoulliPrior(0.4), np.random.default_rng(9))
    rng = np.random.default_rng(10)
    state = rng.bit_generator.state
    out = run_queries(graph, truth, SimpleNamespace(s11=s11, s01=s01), rng)
    read = np.where(truth.bits == 1, s11, s01).astype(np.int64)
    expected = np.zeros(graph.n_queries, dtype=np.int64)
    np.add.at(expected, graph.edge_queries, graph.edge_mult * read[graph.edge_agents])
    assert out.results.tolist() == expected.tolist()
    assert rng.bit_generator.state == state


# A noiseless query reads only the edges of agents whose bit is one.
NOISELESS_CASES = {
    "no-ones": (DesignSpec(n=40, m=25, gamma=12, family="doubly_regular", allow_multi=True),
                lambda n: np.zeros(n, dtype=np.int8)),
    "all-ones": (DesignSpec(n=40, m=25, gamma=12, family="doubly_regular", allow_multi=True),
                 lambda n: np.ones(n, dtype=np.int8)),
    "edgeless-ones": (DesignSpec(n=60, m=4, gamma=2, family="bernoulli"),
                      lambda n: (np.arange(n) % 2).astype(np.int8)),
}


@pytest.mark.parametrize("case", sorted(NOISELESS_CASES))
def test_run_queries_noiseless_edge_cases_match_per_read_oracle(case):
    spec, make_bits = NOISELESS_CASES[case]
    graph = generate(spec, np.random.default_rng(8))
    bits = make_bits(spec.n)
    if case == "edgeless-ones":
        one_degrees = graph.distinct_agent_degrees[bits == 1]
        assert (one_degrees == 0).any() and (one_degrees > 0).any()
    rng = np.random.default_rng(10)
    state = rng.bit_generator.state
    out = run_queries(graph, GroundTruth(bits), ChannelMatrix.identity(), rng)
    assert out.results.dtype == np.int64
    assert out.results.tolist() == naive_noiseless_results(graph, bits)
    assert rng.bit_generator.state == state
    if case == "no-ones":
        assert not out.results.any()


def test_run_queries_rejects_truth_of_wrong_length():
    graph = graph_from_pairs(3, 1, 3, [(0, 0), (1, 0), (2, 0)])
    truth = GroundTruth(np.array([1, 0]))
    with pytest.raises(ValueError, match="truth has 2 agents but graph has 3"):
        run_queries(graph, truth, ChannelMatrix.identity(), np.random.default_rng(0))


def test_run_queries_z_channel_mean():
    # One query of five one-bits through a Z-channel with s11 = 0.8; resampling
    # the noise 1e5 times is the same as 1e5 identical queries.
    resamples = 10**5
    pairs = [(a, q) for q in range(resamples) for a in range(5)]
    graph = graph_from_pairs(5, resamples, 5, pairs)
    truth = GroundTruth(np.ones(5, dtype=np.int8))
    chan = ChannelMatrix(s11=0.8, s01=0.0)
    out = run_queries(graph, truth, chan, np.random.default_rng(5))
    mean = out.results.mean()
    # binomial mean 4.0, 4 sigma ~ 0.011; spec tolerance 0.03
    assert abs(mean - 4.0) < 0.03


# The one-sided rows add multi-edges under uneven agent degrees (oracles.one_sided_graph).
VARIANTS = [(f, multi) for f in (*FAMILIES, "one_sided_regular") for multi in (False, True)
            if f != "bernoulli" or not multi]


@pytest.mark.parametrize("s11, s01", [(0.7, 0.0), (0.7, 0.2), (0.95, 0.02)])
@pytest.mark.parametrize("family, multi", VARIANTS)
def test_run_queries_results_within_query_multiplicity(family, multi, s11, s01):
    rng = np.random.default_rng(99)
    graph = variant_graph(family, multi, 30, 12, 8, rng)
    truth = sample_ground_truth(30, BernoulliPrior(0.5), rng)
    out = run_queries(graph, truth, ChannelMatrix(s11=s11, s01=s01), rng)
    assert (out.results >= 0).all()
    assert (out.results <= graph.query_degrees).all()
    if s01 == 0.0:
        # without false positives a query reads at most its one-bit copies
        assert (out.results <= naive_noiseless_results(graph, truth.bits)).all()


# The per-query binomials and the per-read oracle must give each query the same law.
ORACLE_GRAPHS = {
    "dr-multi": DesignSpec(n=40, m=25, gamma=12, family="doubly_regular", allow_multi=True),
    "bernoulli-edgeless": DesignSpec(n=60, m=10, gamma=6, family="bernoulli"),
}


def _pooled_columns(table: np.ndarray, min_total: int = 10) -> np.ndarray:
    """Merge adjacent value columns until each holds at least min_total samples."""
    cells, acc = [], np.zeros(2, dtype=np.int64)
    for column in table.T:
        acc = acc + column
        if acc.sum() >= min_total:
            cells.append(acc)
            acc = np.zeros(2, dtype=np.int64)
    if cells:
        cells[-1] = cells[-1] + acc
    return np.array(cells).T


@pytest.mark.parametrize("s11, s01", [(0.8, 0.0), (0.85, 0.1)])
@pytest.mark.parametrize("case", sorted(ORACLE_GRAPHS))
def test_run_queries_matches_per_read_oracle_in_law(case, s11, s01):
    spec = ORACLE_GRAPHS[case]
    graph = generate(spec, np.random.default_rng(8))
    truth = GroundTruth((np.arange(spec.n) % 2).astype(np.int8))
    if case == "dr-multi":
        assert (graph.edge_mult > 1).any()
    else:
        assert (graph.distinct_agent_degrees[truth.bits == 1] == 0).any()
    chan = ChannelMatrix(s11=s11, s01=s01)
    rng = np.random.default_rng(77)
    resamples = 2000
    fast = np.stack([run_queries(graph, truth, chan, rng).results for _ in range(resamples)])
    slow = np.stack([per_read_results(graph, truth, chan, rng) for _ in range(resamples)])
    stat, dof = 0.0, 0
    for q in range(graph.n_queries):
        width = int(graph.query_degrees[q]) + 1
        table = np.stack([np.bincount(fast[:, q], minlength=width),
                          np.bincount(slow[:, q], minlength=width)])
        table = _pooled_columns(table)
        if table.shape[1] < 2:
            continue
        stat += scipy.stats.chi2_contingency(table, correction=False)[0]
        dof += table.shape[1] - 1
    assert dof > graph.n_queries
    assert scipy.stats.chi2.sf(stat, dof) > 0.01


def test_noiseless_consistency_over_random_graphs():
    rng = np.random.default_rng(123)
    ident = ChannelMatrix.identity()
    for _ in range(25):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(1, 30))
        gamma = int(rng.integers(1, 2 * n))
        spec = DesignSpec(n=n, m=m, gamma=gamma, family="doubly_regular", allow_multi=True)
        graph = generate(spec, rng)
        truth = sample_ground_truth(n, BernoulliPrior(0.3), rng)
        out = run_queries(graph, truth, ident, rng)
        assert int(out.results.sum()) == int((graph.agent_degrees * truth.bits).sum())


def test_mean_query_result_matches_effective_p():
    # Fixed doubly regular graph, Bernoulli(p) truths, noisy channel: the mean
    # query result over queries and resamples approaches gamma * p_S.
    rng = np.random.default_rng(2024)
    n, m, gamma, p = 200, 100, 20, 0.3
    chan = ChannelMatrix(s11=0.85, s01=0.1)
    spec = DesignSpec(n=n, m=m, gamma=gamma, family="doubly_regular", allow_multi=True)
    graph = generate(spec, rng)
    total = 0.0
    resamples = 1000
    for _ in range(resamples):
        truth = sample_ground_truth(n, BernoulliPrior(p), rng)
        total += run_queries(graph, truth, chan, rng).results.mean()
    mean = total / resamples
    expected = gamma * effective_p(p, chan)
    # per-query variance is below gamma * p_S; 4 sigma over m * resamples draws
    # (queries within a resample are correlated, so pad by the per-resample count)
    sigma = np.sqrt(gamma * effective_p(p, chan) / resamples)
    assert abs(mean - expected) < 4 * sigma


def test_effective_p_examples():
    ident = ChannelMatrix.identity()
    assert effective_p(0.37, ident) == pytest.approx(0.37)
    chan = ChannelMatrix(s11=0.9, s01=0.1)
    assert effective_p(0.0, chan) == pytest.approx(0.1)
    assert effective_p(0.5, chan) == pytest.approx(0.5)  # 0.1 + 0.5 * 0.8
    with pytest.raises(ValueError):
        effective_p(1.5, chan)


def _ball_coloring_samples(samples, rng, order):
    """Count lime-or-orange balls among 6 drawn from 20 (8 red, 12 blue).

    order='draw_first': draw, then color the sample (reds lime w.p. 0.7,
    blues orange w.p. 0.2).  order='color_first': color the whole population,
    then draw.  Both must yield the same distribution.
    """
    n_balls, n_red, n_draw, p_lime, q_orange = 20, 8, 6, 0.7, 0.2
    is_red = np.zeros(n_balls, dtype=bool)
    is_red[:n_red] = True
    perm = np.argsort(rng.random((samples, n_balls)), axis=1)
    drawn_red = is_red[perm[:, :n_draw]]
    if order == "draw_first":
        red_in_sample = drawn_red.sum(axis=1)
        lime = rng.binomial(red_in_sample, p_lime)
        orange = rng.binomial(n_draw - red_in_sample, q_orange)
        return lime + orange
    colors = np.where(is_red, p_lime, q_orange)
    colored = rng.random((samples, n_balls)) < colors
    drawn_colored = np.take_along_axis(colored, perm[:, :n_draw], axis=1)
    return drawn_colored.sum(axis=1)


def ball_coloring_chi2_pvalue(seed, samples=10**5):
    rng = np.random.default_rng(seed)
    first = _ball_coloring_samples(samples, rng, "draw_first")
    second = _ball_coloring_samples(samples, rng, "color_first")
    values = np.arange(7)
    table = np.stack(
        [
            np.bincount(first, minlength=7),
            np.bincount(second, minlength=7),
        ]
    )
    # pool sparse tail cells so the chi-square approximation is sound
    while table.shape[1] > 2 and table[:, -1].sum() < 10:
        table[:, -2] += table[:, -1]
        table = table[:, :-1]
    _, pvalue, _, _ = scipy.stats.chi2_contingency(table)
    return pvalue


def test_ball_coloring_orders_are_equivalent():
    assert ball_coloring_chi2_pvalue(seed=2026) > 0.01
