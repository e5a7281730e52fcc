"""The benchmark's own tests: tiny end-to-end runs, and every check rejecting a corrupted output.

Run from the root of the checkout:  python -m pytest perfbench
"""
from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import load  # noqa: E402
import run  # noqa: E402
from checks import CheckFailed  # noqa: E402
from common import PARAMS  # noqa: E402

import pooledsim as ps  # noqa: E402
from pooledsim.cli import main as cli_main  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


# ------------------------------------------------------------------ end to end


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(report) == ["attempted", "correct", "failed", "metrics"]
    assert report["correct"], proc.stderr
    assert report["attempted"] >= 1 and report["failed"] == 0
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in report["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if trace == "0":
        assert all(m["value"] > 0 for m in report["metrics"].values())


def test_benchmark_json_matches_the_command():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "soundness", "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ------------------------------------------------------------------ soundness


def test_m_min_closed_form():
    checks.check_m_min(5938, 10_000, 0.01, 0.1, 0.1, 1.0, 0.0)
    checks.check_m_min(5119, 1000, 0.1, 0.1, 0.1, 1.0, 0.0)  # the README's example
    with pytest.raises(CheckFailed):
        checks.check_m_min(5937, 10_000, 0.01, 0.1, 0.1, 1.0, 0.0)


def _trial():
    config = ps.TrialConfig(
        design=ps.DesignSpec(n=1000, m=594, gamma=100, family="doubly_regular"),
        prior=ps.FixedPrior(10), channel=ps.ChannelMatrix.identity(), epsilon=0.1, base_seed=5)
    return ps.run_trial_detailed(config, 594, 0)


def test_recovery_recount_rejects_a_flipped_estimate_bit():
    detail = _trial()
    r = detail.result
    args = (detail.truth.bits, detail.estimate, 10, 0.1)
    checks.check_recovery(*args, r.hamming, r.overlap, r.eps_ok)
    flipped = detail.estimate.copy()
    flipped[int(np.flatnonzero(detail.truth.bits)[0])] ^= 1
    with pytest.raises(CheckFailed, match="hamming"):
        checks.check_recovery(detail.truth.bits, flipped, 10, 0.1, r.hamming, r.overlap, r.eps_ok)
    with pytest.raises(CheckFailed, match="overlap"):
        checks.check_recovery(*args, r.hamming, r.overlap - 0.1, r.eps_ok)
    with pytest.raises(CheckFailed, match="eps_ok"):
        checks.check_recovery(*args, r.hamming, r.overlap, not r.eps_ok)
    with pytest.raises(CheckFailed, match="one-bits"):
        checks.check_recovery(*args[:2], 11, 0.1, r.hamming, r.overlap, r.eps_ok)


def test_soundness_errors_report_a_flipped_estimate_bit(tmp_path):
    detail = _trial()
    sound = load.Soundness(PARAMS["tiny"]["soundness"], 3, tmp_path)
    assert sound.m == 594
    op = {"label": "dr_simple", "ms": 1.0, "trials": 1, "error": None, "result": detail.result,
          "truth": detail.truth.bits, "estimate": detail.estimate}
    sound.ops = [op]
    assert sound.errors() == []
    flipped = detail.estimate.copy()
    flipped[0] ^= 1
    sound.ops = [{**op, "estimate": flipped}]
    assert any("hamming" in e for e in sound.errors())


def test_dr_failures_binomial_tail():
    checks.check_dr_failures(0, 12, 0.1)
    checks.check_dr_failures(3, 12, 0.1)
    with pytest.raises(CheckFailed):
        checks.check_dr_failures(9, 12, 0.1)


# ------------------------------------------------------------------ figure CSV

FIGURE = dict(n=1000, k=6, gamma=100, s11=0.8, s01=0.0)
GRID = [50, 100, 150]


def _sweep_csv(tmp_path, families=("doubly_regular/simple",), trials=4):
    from common import sweep_config_text

    pairs = [(f.split("/")[0], f.endswith("multi")) for f in families]
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(sweep_config_text({**FIGURE, "eps": 0.25}, pairs, 11, GRID, trials))
    out = tmp_path / "out.csv"
    assert cli_main(["sweep", "--config", str(cfg), "--output", str(out), "--workers", "1"]) == 0
    return out.read_text(encoding="utf-8"), pairs


def _check_csv(text, pairs, trials=4):
    checks.check_sweep_csv(text, **FIGURE, families=pairs, grid=GRID, trials=trials, seed=11,
                           m_floor=checks.closed_form_m_floor(1000, 0.006, 0.8, 0.0))


def _edit(text, line, column, value):
    lines = text.split("\n")
    fields = lines[line].split(",")
    fields[column] = value
    lines[line] = ",".join(fields)
    return "\n".join(lines)


def test_m_floor_closed_form():
    report = ps.required_queries(1000, 0.006, 0.25, 0.1, ps.ChannelMatrix(0.8, 0.0))
    assert checks.closed_form_m_floor(1000, 0.006, 0.8, 0.0) == report.m_floor == 77


def test_sweep_csv_accepts_the_program_output(tmp_path):
    text, pairs = _sweep_csv(tmp_path, ("doubly_regular/simple", "bernoulli"))
    _check_csv(text, pairs)


@pytest.mark.parametrize("line, column, value, match", [
    (0, 3, "K", "header"),
    (1, 8, "100", "order"),
    (2, 2, "999", "n/k/gamma"),
    (2, 4, "0.01", "p/s11/s01"),
    (2, 10, "0.3", "count over"),
    (1, 14, "0", "failures"),
    (2, 14, "1", "failures"),
    (2, 11, "0.1", "Wilson"),
    (3, 12, "1.0", "Wilson"),
    (2, 13, "1.5", "mean_overlap"),
])
def test_sweep_csv_rejects_an_edited_row(tmp_path, line, column, value, match):
    text, pairs = _sweep_csv(tmp_path)
    with pytest.raises(CheckFailed, match=match):
        _check_csv(_edit(text, line, column, value), pairs)


def test_sweep_csv_rejects_swapped_rows_and_missing_rows(tmp_path):
    text, pairs = _sweep_csv(tmp_path)
    lines = text.split("\n")
    lines[2], lines[3] = lines[3], lines[2]
    with pytest.raises(CheckFailed, match="order"):
        _check_csv("\n".join(lines), pairs)
    with pytest.raises(CheckFailed, match="rows"):
        _check_csv("\n".join(text.split("\n")[:-2]) + "\n", pairs)


def test_sweep_csv_rejects_success_falling_with_m(tmp_path):
    text, pairs = _sweep_csv(tmp_path)
    low, high = checks.wilson(4, 4)
    text = _edit(text, 2, 10, "1.0")
    text = _edit(text, 2, 11, repr(low))
    text = _edit(text, 2, 12, repr(high))
    low, high = checks.wilson(0, 4)
    text = _edit(text, 3, 10, "0.0")
    text = _edit(text, 3, 11, repr(low))
    text = _edit(text, 3, 12, repr(high))
    with pytest.raises(CheckFailed, match="largest m"):
        _check_csv(text, pairs)


def test_identical_outputs():
    checks.check_identical(b"a,b\n", b"a,b\n", "csv")
    with pytest.raises(CheckFailed):
        checks.check_identical(b"a,b\n", b"a,c\n", "csv")


# ------------------------------------------------------------------ edge lists

EDGE = dict(n=1000, m=100, gamma=50)


def _edge_text(family="doubly_regular", multi=False, seed=9):
    spec = ps.DesignSpec(**EDGE, family=family, allow_multi=multi)
    graph = ps.generate(spec, np.random.default_rng(seed))
    stream = io.StringIO()
    ps.write_edge_list(stream, graph, family, multi)
    return stream.getvalue(), graph


def _check_edges(text, family="doubly_regular", multi=False):
    return checks.check_edge_list(text, **EDGE, family=family, multi=multi)


@pytest.mark.parametrize("family, multi", [("doubly_regular", False), ("doubly_regular", True),
                                           ("bernoulli", False)])
def test_edge_list_accepts_the_program_output(family, multi):
    text, graph = _edge_text(family, multi)
    triples = _check_edges(text, family, multi)
    checks.check_same_graph(triples, graph.edge_agents, graph.edge_queries, graph.edge_mult, "x")


def _lines(text):
    return text.rstrip("\n").split("\n")


def _join(lines):
    return "\n".join(lines) + "\n"


def test_edge_list_rejects_an_unsorted_line():
    lines = _lines(_edge_text()[0])
    lines[5], lines[6] = lines[6], lines[5]
    with pytest.raises(CheckFailed, match="sorted"):
        _check_edges(_join(lines))


def test_edge_list_rejects_a_duplicate_line():
    lines = _lines(_edge_text()[0])
    lines[6] = lines[5]
    with pytest.raises(CheckFailed, match="sorted"):
        _check_edges(_join(lines))


def test_edge_list_rejects_a_line_that_is_not_integers():
    lines = _lines(_edge_text()[0])
    lines[4] = lines[4].replace(" ", " x", 1)
    with pytest.raises(CheckFailed, match="parse"):
        _check_edges(_join(lines))


def test_edge_list_rejects_a_wrong_header():
    lines = _lines(_edge_text()[0])
    lines[0] = lines[0].replace("false", "true")
    with pytest.raises(CheckFailed, match="header"):
        _check_edges(_join(lines))


def test_edge_list_rejects_a_multi_edge_in_a_simple_design():
    lines = _lines(_edge_text()[0])
    agent, query, _ = lines[1].split()
    lines[1] = f"{agent} {query} 2"
    with pytest.raises(CheckFailed, match="multiplicity"):
        _check_edges(_join(lines))


def test_edge_list_rejects_a_wrong_query_degree():
    lines = _lines(_edge_text()[0])
    del lines[1]
    with pytest.raises(CheckFailed, match="query degree"):
        _check_edges(_join(lines))


def test_edge_list_rejects_unbalanced_agent_degrees():
    # move agent 0's first query to the last agent: query degrees stay gamma
    text, graph = _edge_text()
    triples = np.stack([graph.edge_agents, graph.edge_queries, graph.edge_mult], axis=1)
    moved = int(triples[0, 1])
    assert not ((triples[:, 0] == 999) & (triples[:, 1] == moved)).any()
    triples[0, 0] = 999
    triples = triples[np.lexsort((triples[:, 1], triples[:, 0]))]
    body = "".join(f"{a} {q} {m}\n" for a, q, m in triples.tolist())
    with pytest.raises(CheckFailed, match="agent degrees"):
        _check_edges(_lines(text)[0] + "\n" + body)


def test_edge_list_rejects_a_bernoulli_edge_count_far_from_m_gamma():
    lines = _lines(_edge_text("bernoulli")[0])
    with pytest.raises(CheckFailed, match="5 sigma"):
        _check_edges(_join(lines[: len(lines) // 2]), "bernoulli")


def test_edgelist_errors_report_a_changed_file_and_another_read_back(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))  # for the CLI processes
    edges = load.EdgeList(PARAMS["tiny"]["edgelist"], 3, tmp_path)
    edges.round(0)
    assert [op["error"] for op in edges.ops] == [None] * 3
    assert edges.errors() == []
    path = edges.ops[0]["file"]
    lines = _lines(path.read_text(encoding="utf-8"))
    lines[5], lines[6] = lines[6], lines[5]
    path.write_text(_join(lines), encoding="utf-8")
    edges.ops[1]["digest"] = "0" * 64
    errors = edges.errors()
    assert len(errors) == 2
    assert "sorted" in errors[0] and "another graph" in errors[1]


def test_figure_errors_report_an_edited_csv(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))  # for the CLI processes
    figure = load.Figure(PARAMS["tiny"]["figure"], 3, tmp_path)
    figure.round(0)
    assert [op["error"] for op in figure.ops] == [None] * 3
    assert figure.errors() == []
    csv = figure.ops[2]["csv"]
    csv.write_text(_edit(csv.read_text(encoding="utf-8"), 1, 14, "0"), encoding="utf-8")
    errors = figure.errors()
    assert len(errors) == 1 and "failures" in errors[0]


def test_round_trip_rejects_another_graph():
    text, graph = _edge_text()
    _, other = _edge_text(seed=10)
    triples = _check_edges(text)
    with pytest.raises(CheckFailed, match="differs"):
        checks.check_same_graph(triples, other.edge_agents, other.edge_queries, other.edge_mult,
                                "x")
    assert checks.graph_digest(graph.edge_agents, graph.edge_queries, graph.edge_mult) != \
        checks.graph_digest(other.edge_agents, other.edge_queries, other.edge_mult)


# ------------------------------------------------------------------ traced stage checks


def _stages(channel):
    spec = ps.DesignSpec(n=1000, m=594, gamma=100, family="doubly_regular", allow_multi=True)
    rng = np.random.default_rng(4)
    truth = ps.sample_ground_truth(1000, ps.FixedPrior(10), rng)
    graph = ps.generate(spec, rng)
    outcomes = ps.run_queries(graph, truth, channel, rng)
    vector = ps.compute_score_vector(graph, outcomes, 0.01, channel, 594)
    return truth, graph, outcomes.results, vector


def test_scores_match_the_incidence_product():
    _, graph, results, vector = _stages(ps.ChannelMatrix.identity())
    args = (graph.edge_agents, graph.edge_queries, 1000, 594, results)
    checks.check_scores(*args, vector.scores)
    bad = vector.scores.copy()
    bad[3] += 1
    with pytest.raises(CheckFailed, match="scores"):
        checks.check_scores(*args, bad)


def test_thresholds_match_the_closed_form():
    _, graph, _, vector = _stages(ps.ChannelMatrix.identity())
    args = (graph.edge_agents, graph.edge_mult, 1000, 594, 0.01, 1.0, 0.0)
    checks.check_thresholds(*args, vector.thresholds)
    with pytest.raises(CheckFailed, match="thresholds"):
        checks.check_thresholds(*args, vector.thresholds * 1.001)


@pytest.mark.parametrize("s11", [1.0, 0.8])
def test_query_results_against_member_sums(s11):
    truth, graph, results, _ = _stages(ps.ChannelMatrix(s11, 0.0))
    args = (graph.edge_agents, graph.edge_queries, graph.edge_mult, truth.bits, 594, s11, 0.0)
    checks.check_query_sums(*args, results)
    bad = results.copy()
    bad[int(np.argmax(results))] += 1
    with pytest.raises(CheckFailed, match="member sums"):
        checks.check_query_sums(*args, bad)


def test_stage_estimate_against_run_trial_detailed():
    detail = _trial()
    checks.check_same_estimate(detail.estimate, detail.estimate.copy(), "x")
    flipped = detail.estimate.copy()
    flipped[7] ^= 1
    with pytest.raises(CheckFailed, match="differs"):
        checks.check_same_estimate(flipped, detail.estimate, "x")
    with pytest.raises(CheckFailed, match="differs"):
        checks.check_same_estimate(flipped, None, "x")
