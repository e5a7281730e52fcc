"""Property tests over small random designs: edge-list round trip, repair invariants,
and the decoding and recovery stages against per-agent loops.

``derandomize`` makes every run draw the same examples, and ``database=None``
keeps Hypothesis from writing a ``.hypothesis/`` directory.
"""
import io
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    is_simple,
    naive_centers,
    naive_recovery,
    naive_scores,
    naive_thresholds,
    same_graph,
)
from pooledsim.channel import run_queries
from pooledsim.decoder import compute_score_vector, decode, rate_constant
from pooledsim.designs import DesignSpec, generate, read_edge_list, write_edge_list
from pooledsim.experiment import FAMILY_STREAM_IDS
from pooledsim.model import BernoulliPrior, ChannelMatrix, eps_recovery, sample_ground_truth

reproducible = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@st.composite
def design_specs(draw, variants=tuple(FAMILY_STREAM_IDS), max_n=12, max_m=8):
    family, multi = draw(st.sampled_from(variants))
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    gamma = draw(st.integers(1, 2 * n if multi else n))
    return DesignSpec(n=n, m=m, gamma=gamma, family=family, allow_multi=multi)


@reproducible
@given(spec=design_specs(), seed=st.integers(0, 2**32 - 1))
def test_edge_list_round_trip_every_variant(spec, seed):
    graph = generate(spec, np.random.default_rng(seed))
    buf = io.StringIO()
    write_edge_list(buf, graph, spec.family, spec.allow_multi)
    spec_back, graph_back = read_edge_list(io.StringIO(buf.getvalue()))
    assert spec_back == spec
    assert same_graph(graph_back, graph)


@reproducible
@given(
    spec=design_specs(variants=[("doubly_regular", False)], max_n=24, max_m=16),
    seed=st.integers(0, 2**32 - 1),
)
def test_repaired_doubly_regular_design_invariants(spec, seed):
    graph = generate(spec, np.random.default_rng(seed))
    assert (graph.query_degrees == spec.gamma).all()
    degrees = graph.agent_degrees
    assert int(degrees.sum()) == spec.m * spec.gamma
    assert int(degrees.max() - degrees.min()) <= 1
    assert is_simple(graph)


@reproducible
@given(
    spec=design_specs(),
    seed=st.integers(0, 2**32 - 1),
    p=st.floats(0.05, 0.95),
    channel=st.sampled_from(
        [ChannelMatrix.identity(), ChannelMatrix.z_channel(0.3), ChannelMatrix(s11=0.9, s01=0.2)]
    ),
    extra_queries=st.integers(1, 200),
)
def test_score_vector_and_recovery_match_per_agent_loops(spec, seed, p, channel, extra_queries):
    rng = np.random.default_rng(seed)
    graph = generate(spec, rng)
    truth = sample_ground_truth(spec.n, BernoulliPrior(p), rng)
    outcomes = run_queries(graph, truth, channel, rng)
    # m just above the floor ln(1/p) / rate keeps the threshold fraction away from 1/2
    m = math.floor(math.log(1 / p) / rate_constant(spec.n, p, channel)) + extra_queries
    vector = compute_score_vector(graph, outcomes, p, channel, m)
    assert vector.scores.tolist() == naive_scores(graph, outcomes.results.tolist())
    np.testing.assert_allclose(vector.centers, naive_centers(graph, p, channel), rtol=1e-12)
    np.testing.assert_allclose(
        vector.thresholds, naive_thresholds(graph, p, channel, m), rtol=1e-12
    )
    estimate = decode(vector.scores, vector.centers, vector.thresholds)
    report = eps_recovery(truth, estimate, epsilon=0.25)
    assert (report.hamming, report.overlap) == naive_recovery(truth.bits, estimate)
