"""Property tests over small random designs: edge-list round trip, repair invariants.

``derandomize`` makes every run draw the same examples, and ``database=None``
keeps Hypothesis from writing a ``.hypothesis/`` directory.
"""
import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import is_simple, same_graph
from pooledsim.designs import DesignSpec, generate, read_edge_list, write_edge_list
from pooledsim.experiment import FAMILY_STREAM_IDS

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
