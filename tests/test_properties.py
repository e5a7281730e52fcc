"""Property tests over small random designs: edge-list round trip, repair invariants,
and the decoding and recovery stages against per-agent loops and under agent and query
relabelling.

``derandomize`` makes every run draw the same examples, and ``database=None``
keeps Hypothesis from writing a ``.hypothesis/`` directory.
"""
import io
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pooledsim.designs
from oracles import (
    graph_from_pairs,
    is_simple,
    naive_centers,
    naive_recovery,
    naive_scores,
    naive_thresholds,
    parse_sweep_config_reference,
    read_edge_list_reference,
    same_graph,
)
from pooledsim.channel import run_queries
from pooledsim.cli import ConfigError, parse_sweep_config
from pooledsim.decoder import compute_score_vector, decode, rate_constant
from pooledsim.designs import DesignSpec, generate, read_edge_list, write_edge_list
from pooledsim.experiment import FAMILY_STREAM_IDS
from pooledsim.model import (
    BernoulliPrior,
    ChannelMatrix,
    GroundTruth,
    eps_recovery,
    sample_ground_truth,
)

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


# What the edge-list mutations insert.  Line 0 is the header, whose integers
# must follow the body's rule.
BLANKS = ["\n", "  \n", "\t\n", "\r\n", " \r\n", "\xa0\n", "\u3000\n", "\u2028\n"]
SEPARATORS = ["\xa0", "\t", "  ", "\u2028", "\x1c", "\x0b", ",", "_", "\n", "\r"]
TRAILS = [" ", "\xa0", "\u2028", "\r", " #", "#", " 1", ".0", "\x85"]
FOREIGN_DIGITS = [
    str.maketrans("0123456789", "".join(map(chr, range(start, start + 10))))
    for start in (0x660, 0xFF10, 0x966)  # Arabic-Indic, fullwidth, Devanagari
]
HEADER_TAILS = [
    "bernoulli true", "doubly_regular maybe", "one_sided_regular true", "one_sided_regular false",
    "doubly_regular false", "doubly_regular true", "unknown false", "bernoulli TRUE",
]


def spelling(value: int, choice: int) -> str:
    """One of the spellings of ``value`` that only some integer parsers read, or another value."""
    digits = str(abs(value))
    sign = "-" if value < 0 else ""
    options = [
        f"0{value}" if value >= 0 else f"-0{digits}", f"+{value}" if value >= 0 else str(value),
        f"-{value}", f"{sign}{digits[0]}_{digits[1:] or 0}", f"{value}.0", f"{value}#", "#",
        f"{value}e0", str(value + 2**63), str(-(2**63)),
        *(f"{sign}{digits.translate(table)}" for table in FOREIGN_DIGITS),
    ]
    return options[choice % len(options)]


def respell(line: str, field: int, spell) -> str:
    """``line`` with its ``field``-th integer field replaced by ``spell(value)``."""
    end = len(line) - len(line.rstrip("\r\n"))
    fields = line[: len(line) - end].split(" ")
    field %= min(3, len(fields))
    try:
        fields[field] = spell(int(fields[field]))
    except ValueError:  # an earlier mutation made the field no integer
        return line
    return " ".join(fields) + line[len(line) - end :]


def mutate(lines: list[str], kind: str, at: int, to: int, choice: int) -> list[str]:
    """A copy of ``lines`` (with their ends) changed by one mutation, at line ``at`` or ``to``."""
    lines = list(lines)
    at %= len(lines)
    to = 1 + to % len(lines)  # body positions only
    if kind == "blank":
        lines.insert(to, BLANKS[choice % len(BLANKS)])
    elif kind == "crlf":
        lines[at] = lines[at].rstrip("\n") + "\r\n"
    elif kind == "swap" and to < len(lines):
        lines[at], lines[to] = lines[to], lines[at]
    elif kind == "repeat":
        lines.insert(to, lines[at])
    elif kind == "delete" and len(lines) > 1:
        del lines[to % (len(lines) - 1) + 1]
    elif kind == "bump":  # off by one: out of range, multiplicities, degrees, header sizes
        lines[at] = respell(lines[at], choice, lambda value: str(value + (-1) ** choice))
    elif kind in ("spell", "spell-header"):
        at = 0 if kind == "spell-header" else at
        lines[at] = respell(lines[at], choice, lambda value: spelling(value, choice // 3))
    elif kind == "header":
        tail = HEADER_TAILS[choice % len(HEADER_TAILS)]
        lines[0] = " ".join([*lines[0].split()[:3], tail]) + "\n"
    elif kind == "separator":
        lines[at] = lines[at].replace(" ", SEPARATORS[choice % len(SEPARATORS)], 1)
    elif kind == "trail":
        text = lines[at].rstrip("\r\n")
        lines[at] = text + TRAILS[choice % len(TRAILS)] + lines[at][len(text) :]
    return lines


@st.composite
def mutated_edge_lists(draw):
    spec = draw(design_specs())
    graph = generate(spec, np.random.default_rng(draw(st.integers(0, 2**16))))
    buf = io.StringIO()
    write_edge_list(buf, graph, spec.family, spec.allow_multi)
    lines = buf.getvalue().splitlines(keepends=True)
    kinds = ["blank", "crlf", "swap", "repeat", "delete", "bump", "spell", "spell-header", "header",
             "separator", "trail"]
    mutations = st.tuples(
        st.sampled_from(kinds), st.integers(0, 63), st.integers(0, 63), st.integers(0, 399)
    )
    for mutation in draw(st.lists(mutations, max_size=4)):
        lines = mutate(lines, *mutation)
    return lines


def parse_outcome(parse, stream):
    """``(spec, triples)`` of an accepted edge list, or the message it is rejected with."""
    try:
        spec, graph = parse(stream)
    except ValueError as err:
        return str(err)
    if isinstance(graph, list):
        return spec, graph
    columns = (graph.edge_agents, graph.edge_queries, graph.edge_mult)
    return spec, list(zip(*(col.tolist() for col in columns)))


@settings(reproducible, max_examples=500)
@given(lines=mutated_edge_lists(), block=st.integers(1, 8))
def test_read_edge_list_matches_reference_parser(lines, block):
    # The text as a stream, read a few characters at a time, so that
    # blocks end inside lines and between the \r and \n of a CRLF end.
    text = "".join(lines)
    with mock.patch.object(pooledsim.designs, "_EDGE_LIST_BLOCK", block):
        got = parse_outcome(read_edge_list, io.StringIO(text))
    assert got == parse_outcome(read_edge_list_reference, io.StringIO(text))


# What the sweep-config mutations insert or set.
CONFIG_LINES = [
    "bogus = 1", "K = 3", "m grid = 50", " = 5", "n", "n 60", "# a comment", "#n = 5", "", " \t",
    "p = 0.05", "k = 3", "s01 = 0.1", "p_for_threshold = 0.2", "trials =", "seed = # none",
]
CONFIG_VALUES = [
    "0", "-1", "nan", "inf", "1e3", "abc", "0.5", "2", "1_0", str(2**64), "7", "100", "# x"
]
GRID_PIECES = [
    "0", "1", "20", "40", "-5", "a", ":", ",", " ", "1_0", "+7", "20,20", "9:3:1", "5:50:0"
]
FAMILY_ITEMS = [
    "bernoulli", "bernoulli/multi", "bernoulli/", "doubly_regular", "doubly_regular/simple",
    "doubly_regular/multi", "one_sided_regular/multi", "one_sided_regular/x", "bogus", "", " ",
    "a/b/c", "doubly_regular / multi",
]
CONFIG_BREAKS = ["\x0c", "\x0b", "\x85", "\u2028", "\x1c", "\r", "\r\n", "#", "="]


def mutate_config(lines: list[str], kind: str, at: int, choice: int) -> list[str]:
    """A copy of the config ``lines`` changed by one mutation at line ``at``."""
    lines = list(lines)
    at %= len(lines) or 1
    if kind == "insert":
        lines.insert(at, CONFIG_LINES[choice % len(CONFIG_LINES)])
    elif kind == "repeat" and lines:
        lines.insert(choice % len(lines), lines[at])
    elif kind == "delete" and lines:
        del lines[at]
    elif kind == "comment" and lines:
        lines[at] = f"# {lines[at]}" if choice % 2 else f"{lines[at]}  # note"
    elif kind == "value" and lines:
        lines[at] = f"{lines[at].partition('=')[0]}= {CONFIG_VALUES[choice % len(CONFIG_VALUES)]}"
    elif kind == "break" and lines:
        cut = choice % (len(lines[at]) + 1)
        lines[at] = lines[at][:cut] + CONFIG_BREAKS[choice % len(CONFIG_BREAKS)] + lines[at][cut:]
    elif kind in ("m_grid", "families"):
        pieces, count = (GRID_PIECES, 5) if kind == "m_grid" else (FAMILY_ITEMS, 3)
        items = [pieces[(choice >> (4 * i)) % len(pieces)] for i in range(1 + choice % count)]
        line = f"{kind} = " + ("".join(items) if kind == "m_grid" else ",".join(items))
        lines = [line if old.startswith(kind) else old for old in lines]
    return lines


@st.composite
def sweep_config_texts(draw):
    n = draw(st.integers(2, 40))
    grid = draw(st.sampled_from(["20:60:20", "20,40", "30", "10:10:5"]))
    families = draw(st.sampled_from(
        ["doubly_regular/simple, bernoulli", "bernoulli, doubly_regular/multi",
         "doubly_regular/multi"]
    ))
    prior = draw(st.sampled_from([f"k = {draw(st.integers(1, n - 1))}", "p = 0.1"]))
    lines = [
        f"n = {n}", f"gamma = {draw(st.integers(1, n))}", prior, "epsilon = 0.25",
        f"trials = {draw(st.integers(1, 5))}", f"seed = {draw(st.integers(0, 2**64 - 1))}",
        f"m_grid = {grid}", f"families = {families}",
    ]
    lines = draw(st.permutations(lines))
    kinds = ["insert", "repeat", "delete", "comment", "value", "break", *["m_grid", "families"] * 2]
    mutations = st.tuples(st.sampled_from(kinds), st.integers(0, 63), st.integers(0, 2**20))
    for mutation in draw(st.lists(mutations, min_size=1, max_size=4)):
        lines = mutate_config(lines, *mutation)
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


@settings(reproducible, max_examples=500)
@given(text=sweep_config_texts())
def test_parse_sweep_config_matches_reference_parser(text):
    # The parser must raise ConfigError; any other exception fails the test.
    try:
        config = parse_sweep_config(text)
        got = config.trial, config.m_grid, config.families, config.trials_per_point, config.raw
    except ConfigError as err:
        got = str(err)
    try:
        expected = parse_sweep_config_reference(text)
    except ValueError as err:
        expected = str(err)
    assert got == expected


@reproducible
@given(
    spec=design_specs(variants=[("doubly_regular", False)], max_n=24, max_m=16),
    seed=st.integers(0, 2**32 - 1),
)
def test_repaired_doubly_regular_design_invariants(spec, seed):
    repair = pooledsim.designs._repair_slots

    def checked_repair(members, n_agents, rng):
        # the precondition the repair does not check itself
        assert members.shape[1] <= n_agents
        assert np.bincount(members.ravel(), minlength=n_agents).max() <= members.shape[0]
        return repair(members, n_agents, rng)

    with mock.patch.object(pooledsim.designs, "_repair_slots", checked_repair):
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


@st.composite
def relabelled_graphs(draw, axis=0, max_n=12, max_m=8):
    """A listed graph, a truth on its agents, and a permutation of its agents (``axis=0``)
    or of its queries (``axis=1``).

    The pairs may repeat (multi-edges) and leave any agent edgeless, the
    first and the last included; gamma may equal n.
    """
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)), max_size=40))
    graph = graph_from_pairs(n, m, draw(st.integers(1, n)), pairs)
    bits = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int8)
    perm = np.array(draw(st.permutations(range((n, m)[axis]))), dtype=np.int64)
    return graph, bits, perm


@reproducible
@given(
    relabelled=relabelled_graphs(),
    seed=st.integers(0, 2**32 - 1),
    p=st.floats(0.05, 0.95),
    channel=st.sampled_from(
        [ChannelMatrix.identity(), ChannelMatrix.z_channel(0.2), ChannelMatrix(s11=0.9, s01=0.05)]
    ),
    extra_queries=st.integers(1, 200),
)
def test_relabelling_agents_permutes_scores_and_decisions(
    relabelled, seed, p, channel, extra_queries
):
    # Agent a of the graph is agent perm[a] of the moved graph, rebuilt from
    # the moved triples.  The queries are unchanged, so the per-query draws are too.
    graph, bits, perm = relabelled
    n, m = graph.n_agents, graph.n_queries
    moved_pairs = np.column_stack([perm[graph.edge_agents], graph.edge_queries])
    moved = graph_from_pairs(n, m, graph.gamma, np.repeat(moved_pairs, graph.edge_mult, axis=0))
    moved_bits = np.empty_like(bits)
    moved_bits[perm] = bits
    m_decode = math.floor(math.log(1 / p) / rate_constant(n, p, channel)) + extra_queries
    runs = []
    for g, b in ((graph, bits), (moved, moved_bits)):
        rng = np.random.default_rng(seed)
        outcomes = run_queries(g, GroundTruth(b), channel, rng)
        vector = compute_score_vector(g, outcomes, p, channel, m_decode)
        decisions = decode(vector.scores, vector.centers, vector.thresholds)
        runs.append((outcomes.results, vector, decisions, rng.bit_generator.state))
    (results, vector, decisions, state), moved_run = runs
    moved_results, moved_vector, moved_decisions, moved_state = moved_run
    assert np.array_equal(moved_results, results)
    assert moved_state == state
    for name in ("scores", "centers", "thresholds"):
        assert np.array_equal(getattr(moved_vector, name)[perm], getattr(vector, name)), name
    assert np.array_equal(moved_decisions[perm], decisions)


@reproducible
@given(
    relabelled=relabelled_graphs(axis=1),
    seed=st.integers(0, 2**32 - 1),
    p=st.floats(0.05, 0.95),
    extra_queries=st.integers(1, 200),
)
def test_relabelling_queries_permutes_results_and_keeps_scores(relabelled, seed, p, extra_queries):
    # Query q of the graph is query perm[q] of the moved graph.  Under the
    # identity channel a result is its query's one-count whatever the draws.
    graph, bits, perm = relabelled
    n, m = graph.n_agents, graph.n_queries
    channel = ChannelMatrix.identity()
    moved_pairs = np.column_stack([graph.edge_agents, perm[graph.edge_queries]])
    moved = graph_from_pairs(n, m, graph.gamma, np.repeat(moved_pairs, graph.edge_mult, axis=0))
    m_decode = math.floor(math.log(1 / p) / rate_constant(n, p, channel)) + extra_queries
    runs = []
    for g in (graph, moved):
        outcomes = run_queries(g, GroundTruth(bits), channel, np.random.default_rng(seed))
        vector = compute_score_vector(g, outcomes, p, channel, m_decode)
        decisions = decode(vector.scores, vector.centers, vector.thresholds)
        runs.append((outcomes.results, vector, decisions))
    (results, vector, decisions), (moved_results, moved_vector, moved_decisions) = runs
    assert np.array_equal(moved_results[perm], results)
    for name in ("scores", "centers", "thresholds"):
        assert np.array_equal(getattr(moved_vector, name), getattr(vector, name)), name
    assert np.array_equal(moved_decisions, decisions)
