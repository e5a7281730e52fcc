import math

import numpy as np
import pytest
import scipy.stats

from oracles import (
    expected_score,
    graph_from_pairs,
    naive_decode,
    naive_noiseless_results,
    naive_scores,
    regenerated_score_samples,
    stratified_chi2,
    stratified_hypergeometric_chi2,
)
from pooledsim.channel import QueryOutcomes, run_queries
from pooledsim.decoder import (
    DegenerateChannelError,
    ThresholdUndefinedError,
    compute_score_vector,
    counting_bound,
    decode,
    entropy,
    rate_constant,
    required_queries,
    threshold_fraction,
)
from pooledsim.designs import DesignSpec, generate
from pooledsim.model import ChannelMatrix, GroundTruth

IDENT = ChannelMatrix.identity()
M_LARGE = 10**9  # defines the threshold for every graph below


def scores_of(graph, outcomes):
    return compute_score_vector(graph, outcomes, 0.5, IDENT, M_LARGE).scores


def centers_of(graph, p):
    outcomes = QueryOutcomes(np.zeros(graph.n_queries, dtype=np.int64))
    return compute_score_vector(graph, outcomes, p, IDENT, M_LARGE).centers


def degree_graph(n, degrees):
    """n agents with gamma 5; agent i sits in queries 0 .. degrees[i] - 1, the rest in none."""
    pairs = [(i, q) for i, deg in enumerate(degrees) for q in range(deg)]
    return graph_from_pairs(n, max(degrees), 5, pairs)


# -------------------------------------------------------------------- scores


def test_compute_scores_indicator_semantics():
    # query a1 counts once for x1 despite the double edge
    graph = graph_from_pairs(2, 2, 2, [(0, 0), (0, 0), (0, 1), (1, 1)])
    psi = scores_of(graph, QueryOutcomes(np.array([2, 1])))
    assert psi.tolist() == [3.0, 1.0]


def test_compute_scores_isolated_agent():
    graph = graph_from_pairs(3, 1, 2, [(0, 0), (1, 0)])
    psi = scores_of(graph, QueryOutcomes(np.array([5])))
    assert psi.tolist() == [5.0, 5.0, 0.0]


def test_compute_scores_complete_bipartite():
    pairs = [(a, q) for a in range(3) for q in range(2)]
    graph = graph_from_pairs(3, 2, 3, pairs)
    truth = GroundTruth(np.array([1, 0, 0]))
    out = run_queries(graph, truth, IDENT, np.random.default_rng(0))
    assert out.results.tolist() == [1, 1]
    psi = scores_of(graph, out)
    assert psi.tolist() == [2.0, 2.0, 2.0]


def test_compute_scores_dimension_mismatch():
    graph = graph_from_pairs(2, 2, 1, [(0, 0), (1, 1)])
    with pytest.raises(ValueError, match="outcomes cover 3 queries but graph has 2"):
        scores_of(graph, QueryOutcomes(np.array([1, 2, 3])))


# ------------------------------------------------------------------- centers


def test_center_simple_graph_reduction():
    # simple graph: distinct degree equals degree, so C_i = deg * (gamma-1) * p
    graph = graph_from_pairs(3, 2, 2, [(0, 0), (1, 0), (1, 1), (2, 1)])
    centers = centers_of(graph, 0.25)
    expected = graph.agent_degrees * (2 - 1) * 0.25
    assert np.allclose(centers, expected)


def test_center_arithmetic_example():
    # deg = distinct = 3, gamma = 5, p = 0.1, identity: (15 - 3) * 0.1 = 1.2
    centers = centers_of(degree_graph(1, [3]), 0.1)
    assert centers[0] == pytest.approx(1.2)


@pytest.mark.parametrize("p", [-0.1, 1.5])
def test_center_rejects_prior_outside_unit_interval(p):
    with pytest.raises(ValueError, match=rf"p must lie in \[0, 1\], got {p}"):
        centers_of(degree_graph(1, [3]), p)


# ---------------------------------------------------------------- rate and alpha


def test_rate_constant_examples():
    assert rate_constant(1000, 0.01, IDENT) == pytest.approx(0.05)
    assert rate_constant(1000, 0.1, IDENT) == pytest.approx(0.005)
    chan = ChannelMatrix(s11=0.9, s01=0.1)
    assert rate_constant(100, 0.5, chan) == pytest.approx(0.0064)


def test_rate_constant_degenerate_channel():
    chan = ChannelMatrix(s11=0.9, s01=0.0)
    with pytest.raises(DegenerateChannelError):
        rate_constant(100, 0.0, chan)


def test_threshold_fraction_examples():
    assert threshold_fraction(0.05, 1000, 1.0) == pytest.approx(0.5)
    value = threshold_fraction(0.005, 5119, 0.1)
    assert value == pytest.approx(0.5 + math.log(10) / (2 * 0.005 * 5119))
    assert value == pytest.approx(0.54498, abs=5e-6)


def test_threshold_fraction_boundary_rejected():
    p = 0.1
    rate = 0.005
    m = math.log(1 / p) / rate  # exactly on the boundary
    with pytest.raises(ThresholdUndefinedError):
        threshold_fraction(rate, m, p)
    with pytest.raises(ThresholdUndefinedError):
        threshold_fraction(rate, int(m) - 10, p)


def thresholds_of(n, degrees, rate, m, p):
    """Thresholds of the first agents of a ``degree_graph``; n must give the rate ``rate``."""
    assert rate_constant(n, p, IDENT) == pytest.approx(rate)
    graph = degree_graph(n, degrees)
    outcomes = QueryOutcomes(np.zeros(graph.n_queries, dtype=np.int64))
    return compute_score_vector(graph, outcomes, p, IDENT, m).thresholds[: len(degrees)]


def test_decision_threshold_examples():
    # huge m: the correction vanishes and the cutoff sits at the midpoint
    assert thresholds_of(100, [10], rate=0.05, m=10**9, p=0.1)[0] == pytest.approx(
        5.0, abs=1e-4
    )
    value = thresholds_of(1000, [10], rate=0.005, m=5119, p=0.1)[0]
    assert value == pytest.approx(5.44981, abs=5e-5)


def test_decision_threshold_form_equivalence():
    # deg*(s01 + a*(s11-s01)) == deg*(s11 - (1-a)*(s11-s01)) for random inputs
    rng = np.random.default_rng(3)
    for _ in range(200):
        s01 = rng.uniform(0, 0.9)
        s11 = rng.uniform(s01 + 1e-6, 1.0)
        deg = rng.integers(1, 100)
        a = rng.uniform(0, 1)
        left = deg * (s01 + a * (s11 - s01))
        right = deg * (s11 - (1 - a) * (s11 - s01))
        assert left == pytest.approx(right, rel=1e-12, abs=1e-12)


def test_decision_threshold_vectorized_over_degrees():
    degs = np.array([2, 3, 5])
    vals = thresholds_of(100, degs.tolist(), rate=0.01, m=1000, p=0.5)
    frac = threshold_fraction(0.01, 1000, 0.5)
    assert np.allclose(vals, degs * frac)


# --------------------------------------------------------------------- decode


def test_decode_direct_comparison():
    psi = np.array([3.0, 1.0, 1.0, 1.0])
    centers = np.array([0.75, 0.25, 0.25, 0.25])
    thresholds = np.array([1.6, 0.9, 0.9, 0.9])
    assert decode(psi, centers, thresholds).tolist() == [1, 0, 0, 0]


def test_decode_ties_go_to_zero():
    psi = np.array([2.0])
    centers = np.array([0.5])
    thresholds = np.array([1.5])  # centered score exactly equals the cutoff
    assert decode(psi, centers, thresholds).tolist() == [0]


def test_decode_monotone_in_scores():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(1, 20))
        psi = rng.normal(size=n)
        centers = rng.normal(size=n)
        thresholds = rng.normal(size=n)
        base = decode(psi, centers, thresholds)
        bumped = psi.copy()
        pos = int(rng.integers(0, n))
        bumped[pos] += rng.uniform(0, 5)
        after = decode(bumped, centers, thresholds)
        assert after[pos] >= base[pos]
        mask = np.arange(n) != pos
        assert np.array_equal(after[mask], base[mask])


def test_decode_pipeline_matches_naive_replay():
    # 1000 seeded noiseless trials: the vectorized pipeline must agree with a
    # dict-loop reimplementation on every estimate, hence on the success rate.
    n, m, gamma, k = 12, 8, 6, 2
    p = k / n
    spec = DesignSpec(n=n, m=m, gamma=gamma, family="doubly_regular", allow_multi=False)
    rate = rate_constant(n, p, IDENT)
    rng = np.random.default_rng(20260401)
    fast_successes = 0
    naive_successes = 0
    for _ in range(1000):
        graph = generate(spec, rng)
        bits = np.zeros(n, dtype=np.int8)
        bits[rng.choice(n, size=k, replace=False)] = 1
        truth = GroundTruth(bits)
        out = run_queries(graph, truth, IDENT, rng)
        assert out.results.tolist() == naive_noiseless_results(graph, bits)

        vector = compute_score_vector(graph, out, p, IDENT, m)
        fast = decode(vector.scores, vector.centers, vector.thresholds)

        slow_scores = naive_scores(graph, out.results.tolist())
        slow_centers = [
            (gamma * int(graph.distinct_agent_degrees[i]) - int(graph.agent_degrees[i])) * p
            for i in range(n)
        ]
        frac = threshold_fraction(rate, m, p)
        slow_thresholds = [int(graph.agent_degrees[i]) * frac for i in range(n)]
        slow = naive_decode(slow_scores, slow_centers, slow_thresholds)
        assert fast.tolist() == slow
        fast_successes += int(np.array_equal(fast, bits))
        naive_successes += int(slow == bits.tolist())
    assert fast_successes == naive_successes


# ----------------------------------------------------------------- exponents


def test_error_exponents_frozen_values():
    report = required_queries(1000, 0.1, 0.1, 0.1, IDENT)
    assert report.rate == pytest.approx(0.005, rel=1e-12) and report.m_min == 5119
    fp_exp, fn_exp = report.fp_exponent, report.fn_exponent
    lm = 0.005 * 5119
    log10 = math.log(10)
    assert fp_exp == pytest.approx(0.25 * lm + 0.5 * log10 + log10**2 / (4 * lm), rel=1e-12)
    assert fp_exp == pytest.approx(7.6018, abs=5e-4)
    assert fn_exp == pytest.approx(5.2992, abs=5e-4)
    # sufficiency cross-checks from the optimization
    assert fp_exp >= math.log(2000)
    assert fn_exp >= math.log(200)
    assert report.fp_tail == pytest.approx(2 * 0.9 * math.exp(-fp_exp) / 0.01)
    assert report.fn_tail == pytest.approx(2 * math.exp(-fn_exp) / 0.1)


def test_error_exponents_identity_sums_to_rate_m():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(10, 10**5))
        p = float(rng.uniform(0.01, 0.99))
        s01 = float(rng.uniform(0, 0.5))
        s11 = float(rng.uniform(s01 + 0.05, 1.0))
        eps, delta = rng.uniform(0.01, 0.9, size=2)
        report = required_queries(n, p, float(eps), float(delta), ChannelMatrix(s11=s11, s01=s01))
        fp_exp, fn_exp = report.fp_exponent, report.fn_exponent
        total = fp_exp + fn_exp + 2 * math.sqrt(fp_exp * fn_exp)
        assert total == pytest.approx(report.rate * report.m_min, rel=1e-9)


def test_tails_below_delta_at_m_min_grid():
    rng = np.random.default_rng(99)
    for _ in range(50):
        n = int(rng.integers(10, 10**5))
        p = float(rng.uniform(0.001, 0.5))
        eps = float(rng.uniform(0.01, 0.9))
        delta = float(rng.uniform(0.01, 0.9))
        s01 = float(rng.uniform(0, 0.5))
        s11 = float(rng.uniform(s01 + 0.05, 1.0))
        report = required_queries(n, p, eps, delta, ChannelMatrix(s11=s11, s01=s01))
        assert report.fp_tail <= delta + 1e-9
        assert report.fn_tail <= delta + 1e-9


# -------------------------------------------------------------------- bounds


def test_required_queries_frozen_example():
    report = required_queries(1000, 0.1, 0.1, 0.1, IDENT)
    assert report.m_min == 5119
    assert report.bound == pytest.approx(5118.25, abs=0.01)
    assert report.m_floor == math.floor(math.log(10) / 0.005) + 1
    assert report.m_min >= report.m_floor
    assert 0.5 < report.threshold_fraction < 1.0


def test_required_queries_noiseless_reduction():
    # With p = k/n and no noise, the bound equals the sparse form
    # 2k (ln(n/k) + 2 ln(2/(eps delta)) + 2 sqrt(ln(2/(eps delta)) ln(2n/(eps delta k)))).
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(20, 10**6))
        k = int(rng.integers(1, n // 2))
        eps = float(rng.uniform(0.01, 0.99))
        delta = float(rng.uniform(0.01, 0.99))
        report = required_queries(n, k / n, eps, delta, IDENT)
        lt = math.log(2 / (eps * delta))
        sparse_form = 2 * k * (
            math.log(n / k) + 2 * lt + 2 * math.sqrt(lt * math.log(2 * n / (eps * delta * k)))
        )
        assert report.bound == pytest.approx(sparse_form, rel=1e-9)


def test_required_queries_near_vacuous_targets():
    report = required_queries(1000, 0.1, 1 - 1e-9, 1 - 1e-9, IDENT)
    assert report.m_min > report.m_floor


def test_required_queries_rejects_degenerate_p():
    with pytest.raises(ValueError):
        required_queries(1000, 0.0, 0.1, 0.1, IDENT)
    with pytest.raises(ValueError):
        required_queries(1000, 1.0, 0.1, 0.1, IDENT)


# ------------------------------------------------------- entropy and counting


def test_entropy_values():
    assert entropy(0.5) == pytest.approx(math.log(2), rel=1e-12)
    assert entropy(0.0) == 0.0
    assert entropy(1.0) == 0.0
    assert entropy(0.01) == pytest.approx(0.0560015, abs=5e-7)


def test_counting_bound_values():
    assert counting_bound(10**4, 100) == pytest.approx(2 * 10**4 * entropy(0.01), rel=1e-12)
    assert counting_bound(10**4, 100) == pytest.approx(1120.03, abs=0.01)
    assert counting_bound(100, 10) == pytest.approx(65.017, abs=0.01)


def test_counting_bound_sqrt_n_cancels_logs():
    for n in (49, 144, 10**4):
        k = int(math.isqrt(n))
        assert counting_bound(n, k) == pytest.approx(2 * n * entropy(k / n), rel=1e-12)


def test_counting_bound_rejects_tiny_k():
    with pytest.raises(ValueError):
        counting_bound(100, 1)
    with pytest.raises(ValueError):
        counting_bound(100, 100)


@pytest.mark.parametrize(
    "fn, args, message",
    [
        (rate_constant, (0, 0.1, IDENT), r"n must be at least 1, got 0"),
        (threshold_fraction, (1.0, 10, 0.0), r"p must lie in \(0, 1\], got 0.0"),
        (threshold_fraction, (1.0, 10, 1.5), r"p must lie in \(0, 1\], got 1.5"),
        (decode, ([1, 2], [0, 0], [0]), "scores, centers and thresholds must have equal length"),
        (decode, (np.ones(4), np.zeros((4, 1)), np.zeros(4)),
         r"centers must be a one-dimensional vector, got shape \(4, 1\)"),
        (decode, (1.0, [0.0], [0.0]), r"scores must be a one-dimensional vector, got shape \(\)"),
        (decode, (np.ones(4), np.zeros(4), np.zeros((2, 2))),
         r"thresholds must be a one-dimensional vector, got shape \(2, 2\)"),
        (required_queries, (1000, 0.1, 0.0, 0.1, IDENT), r"epsilon must lie in \(0, 1\), got 0.0"),
        (required_queries, (1000, 0.1, 1.0, 0.1, IDENT), r"epsilon must lie in \(0, 1\), got 1.0"),
        (required_queries, (1000, 0.1, 0.1, 0.0, IDENT), r"delta must lie in \(0, 1\), got 0.0"),
        (required_queries, (1000, 0.1, 0.1, 1.0, IDENT), r"delta must lie in \(0, 1\), got 1.0"),
        (entropy, (-0.1,), r"alpha must lie in \[0, 1\], got -0.1"),
        (entropy, (1.5,), r"alpha must lie in \[0, 1\], got 1.5"),
    ],
    ids=["rate-n", "fraction-p0", "fraction-p1.5", "decode-lengths", "decode-column-centers",
         "decode-scalar-scores", "decode-square-thresholds", "bound-eps0", "bound-eps1",
         "bound-delta0", "bound-delta1", "entropy-neg", "entropy-above-1"],
)
def test_input_checks_name_the_bad_argument(fn, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        fn(*args)


# ------------------------------------------------------------ score-law oracle


def test_score_law_matches_hypergeometric_once():
    x_values, strata, population, positives, degree, gamma = regenerated_score_samples(
        seed=424242, samples=10**5
    )
    pvalue = stratified_hypergeometric_chi2(
        x_values,
        strata,
        population,
        positives,
        draws_for_stratum=lambda d: int(gamma * d - degree),
    )
    assert pvalue > 0.01


# Criterion 4's setting: DR/multi, n=30, m=10, gamma=6, every agent of
# degree m * gamma / n = 2, and one truth with k=8 one-bits.
LAW_N, LAW_M, LAW_GAMMA, LAW_K, LAW_DEGREE = 30, 10, 6, 8, 2


def package_score_samples(channel, p, samples=2 * 10**4):
    """Agent 0's score and distinct degree (its stratum), one design seed per sample.

    Each sample runs generate, run_queries and compute_score_vector.  Scores
    do not depend on p; it only has to keep the threshold defined at m = 10.
    """
    bits = np.zeros(LAW_N, dtype=np.int8)
    bits[np.random.default_rng(515).choice(LAW_N, size=LAW_K, replace=False)] = 1
    truth = GroundTruth(bits)
    spec = DesignSpec(LAW_N, LAW_M, LAW_GAMMA, family="doubly_regular", allow_multi=True)
    x_values = np.empty(samples, dtype=np.int64)
    strata = np.empty(samples, dtype=np.int64)
    for seed in range(samples):
        rng = np.random.default_rng([515, seed])
        graph = generate(spec, rng)
        outcomes = run_queries(graph, truth, channel, rng)
        x_values[seed] = compute_score_vector(graph, outcomes, p, channel, LAW_M).scores[0]
        strata[seed] = graph.distinct_agent_degrees[0]
    return x_values, strata, int(bits[0])


def test_score_law_through_the_package_matches_hypergeometric():
    # Criterion 4's held-out agent-0 statistic.  p = 0.05 keeps the threshold
    # defined at m = 10, where p = k / n does not.
    x_values, strata, own_bit = package_score_samples(IDENT, 0.05)
    x_values -= LAW_DEGREE * own_bit
    pvalue = stratified_hypergeometric_chi2(
        x_values,
        strata,
        population=LAW_DEGREE * (LAW_N - 1),
        positives=LAW_DEGREE * (LAW_K - own_bit),
        draws_for_stratum=lambda d: int(LAW_GAMMA * d - LAW_DEGREE),
    )
    assert pvalue > 0.01


def test_score_law_through_the_package_under_a_noisy_channel():
    # Agent 0's d distinct queries hold gamma * d reads: its own 2 * b0
    # one-reads, and H ~ Hypergeom(2(n - 1), 2(k - b0), gamma * d - 2) more.
    # Each one-read returns 1 with probability s11, each zero-read with s01,
    # so the score is Bin(H + 2 b0, s11) + Bin(gamma * d - H - 2 b0, s01).
    # Under this channel the threshold at m = 10 is defined only for p >= 0.94.
    channel = ChannelMatrix(s11=0.7, s01=0.2)
    x_values, strata, own_bit = package_score_samples(channel, 0.95)
    own = LAW_DEGREE * own_bit

    def pmf_for_stratum(d):
        reads = int(LAW_GAMMA * d)
        draws = reads - LAW_DEGREE
        others = scipy.stats.hypergeom.pmf(
            np.arange(draws + 1), LAW_DEGREE * (LAW_N - 1), LAW_DEGREE * (LAW_K - own_bit), draws
        )
        pmf = np.zeros(reads + 1)
        for h, weight in enumerate(others):
            ones = h + own
            pmf += weight * np.convolve(
                scipy.stats.binom.pmf(np.arange(ones + 1), ones, channel.s11),
                scipy.stats.binom.pmf(np.arange(reads - ones + 1), reads - ones, channel.s01),
            )
        return pmf

    assert stratified_chi2(x_values, strata, pmf_for_stratum) > 0.01


def test_expected_score_identity_over_regenerated_graphs():
    # Mean score over regenerated graphs and noise matches the closed form
    # with the exact expected distinct degree.
    n, m, gamma, k = 30, 10, 6, 8
    chan = ChannelMatrix(s11=0.8, s01=0.15)
    rng = np.random.default_rng(11)
    bits = np.zeros(n, dtype=np.int8)
    bits[rng.choice(n, size=k, replace=False)] = 1
    truth = GroundTruth(bits)
    spec = DesignSpec(n=n, m=m, gamma=gamma, family="doubly_regular", allow_multi=True)

    reps = 4000
    agent = 0
    samples = np.empty(reps)
    graph = None
    for r in range(reps):
        graph = generate(spec, rng)
        out = run_queries(graph, truth, chan, rng)
        samples[r] = scores_of(graph, out)[agent]

    # exact expected distinct degree of agent 0: m * Pr(agent in a query)
    from scipy.special import gammaln

    total = 2 * n
    log_miss = (
        gammaln(total - 2 + 1) - gammaln(gamma + 1) - gammaln(total - 2 - gamma + 1)
        - (gammaln(total + 1) - gammaln(gamma + 1) - gammaln(total - gamma + 1))
    )
    expected_distinct = m * (1.0 - math.exp(log_miss))
    analytic = expected_score(graph, bits, agent, chan, expected_distinct=expected_distinct)
    stderr = samples.std(ddof=1) / math.sqrt(reps)
    assert abs(samples.mean() - analytic) < 4 * stderr


def test_separation_identity_on_fixed_graph():
    # On a fixed graph the two conditional score means differ by exactly
    # deg * (s11 - s01); check analytically and by noise resampling.
    rng = np.random.default_rng(13)
    spec = DesignSpec(n=20, m=8, gamma=5, family="doubly_regular", allow_multi=True)
    graph = generate(spec, rng)
    chan = ChannelMatrix(s11=0.85, s01=0.2)
    agent = 3
    bits_one = np.zeros(20, dtype=np.int8)
    bits_one[[1, 5, agent]] = 1
    bits_zero = bits_one.copy()
    bits_zero[agent] = 0

    gap_analytic = expected_score(graph, bits_one, agent, chan) - expected_score(
        graph, bits_zero, agent, chan
    )
    assert gap_analytic == pytest.approx(
        int(graph.agent_degrees[agent]) * (chan.s11 - chan.s01), rel=1e-9
    )

    reps = 5000
    means = []
    for bits in (bits_one, bits_zero):
        truth = GroundTruth(bits)
        vals = np.empty(reps)
        for r in range(reps):
            out = run_queries(graph, truth, chan, rng)
            vals[r] = scores_of(graph, out)[agent]
        means.append((vals.mean(), vals.std(ddof=1) / math.sqrt(reps)))
    empirical_gap = means[0][0] - means[1][0]
    stderr = math.hypot(means[0][1], means[1][1])
    assert abs(empirical_gap - gap_analytic) < 4 * stderr
