import numpy as np
import pytest

import pooledsim.experiment
from pooledsim.decoder import required_queries
from pooledsim.designs import DesignSpec, SimplificationError
from pooledsim.experiment import (
    TrialConfig,
    derive_seed,
    run_sweep,
    run_trial,
    run_trial_detailed,
    wilson_interval,
)
from pooledsim.model import BernoulliPrior, ChannelMatrix, FixedPrior

IDENT = ChannelMatrix.identity()


def make_config(**overrides):
    defaults = dict(
        design=DesignSpec(n=100, m=100, gamma=10, family="doubly_regular", allow_multi=False),
        prior=FixedPrior(5),
        channel=IDENT,
        epsilon=0.2,
        base_seed=20260809,
    )
    defaults.update(overrides)
    return TrialConfig(**defaults)


# ----------------------------------------------------------------- seeding


def test_derive_seed_deterministic():
    assert derive_seed(42, [1, 2, 3]) == derive_seed(42, [1, 2, 3])
    assert derive_seed(42, []) == derive_seed(42, [])


def test_derive_seed_empty_indices_is_pure_finalizer():
    # base -> finalizer(base): same base, same output; distinct bases differ
    seen = {derive_seed(base, []) for base in range(1000)}
    assert len(seen) == 1000


def test_derive_seed_collision_scan():
    rng = np.random.default_rng(1)
    bases = rng.integers(0, 2**63, size=10**4)
    collisions = sum(
        derive_seed(int(b), [0]) == derive_seed(int(b), [1]) for b in bases
    )
    assert collisions == 0


def test_derive_seed_orderings_matter():
    assert derive_seed(7, [1, 2]) != derive_seed(7, [2, 1])
    assert derive_seed(7, [0]) != derive_seed(7, [])
    assert 0 <= derive_seed(7, [5]) < 2**64


# ------------------------------------------------------------------ wilson


def test_wilson_interval_brackets_rate():
    for successes, trials in ((0, 100), (5, 100), (50, 100), (100, 100), (3, 7)):
        low, high = wilson_interval(successes, trials)
        rate = successes / trials
        assert 0.0 <= low <= rate <= high <= 1.0 + 1e-12


def test_wilson_interval_narrows_with_trials():
    low1, high1 = wilson_interval(5, 10)
    low2, high2 = wilson_interval(50, 100)
    assert (high2 - low2) < (high1 - low1)


# --------------------------------------------------------------- run_trial


def test_run_trial_deterministic():
    config = make_config()
    first = run_trial(config, 150, 3)
    second = run_trial(config, 150, 3)
    assert first == second


def test_run_trial_well_above_bound_recovers():
    # m = 400 is several times the closed-form bound at these parameters, so
    # every seeded trial must achieve eps-recovery.
    config = make_config()
    report = required_queries(100, 0.05, 0.2, 0.2, IDENT)
    assert report.m_min < 400
    results = [run_trial(config, 400, index) for index in range(20)]
    assert all(r.eps_ok for r in results)
    assert all(r.failure is None for r in results)


def test_run_trial_below_m_floor_is_tagged_not_raised():
    config = make_config()
    report = required_queries(100, 0.05, 0.2, 0.2, IDENT)
    result = run_trial(config, report.m_floor - 1, 0)
    assert result.failure == "threshold_undefined"
    assert not result.success90
    assert not result.eps_ok
    assert result.overlap == 0.0


def test_run_trial_below_m_floor_builds_no_design(monkeypatch):
    config = make_config()
    m = required_queries(100, 0.05, 0.2, 0.2, IDENT).m_floor - 1
    expected = run_trial_detailed(config, m, 0)

    def no_design(*args, **kwargs):
        raise AssertionError("a design was generated for an undefined threshold")

    monkeypatch.setattr(pooledsim.experiment, "generate", no_design)
    detail = run_trial_detailed(config, m, 0)
    assert detail.result == expected.result
    assert detail.result.failure == "threshold_undefined"
    assert detail.result.hamming == detail.truth.ones
    assert np.array_equal(detail.truth.bits, expected.truth.bits)
    assert detail.scores is None and detail.estimate is None


def test_run_trial_simplification_failure_is_tagged_not_raised(monkeypatch):
    def no_simple_design(*args, **kwargs):
        raise SimplificationError("forced for the test")

    monkeypatch.setattr(pooledsim.experiment, "generate", no_simple_design)
    detail = run_trial_detailed(make_config(), 400, 0)
    assert detail.result.failure == "simplification_failed"
    assert not detail.result.success90 and not detail.result.eps_ok
    assert detail.result.hamming == detail.truth.ones == 5
    assert detail.scores is None and detail.estimate is None


def test_run_trial_detailed_exposes_arrays():
    config = make_config()
    detail = run_trial_detailed(config, 400, 0)
    assert detail.scores is not None
    assert detail.scores.size == 100
    assert detail.centers.size == 100
    assert detail.thresholds.size == 100
    assert detail.estimate.size == 100
    assert detail.truth.ones == 5


def test_run_trial_p_for_threshold_defaults_to_k_over_n():
    config = make_config()
    assert config.resolved_p() == pytest.approx(0.05)
    config2 = make_config(p_for_threshold=0.02)
    assert config2.resolved_p() == pytest.approx(0.02)
    config3 = make_config(prior=BernoulliPrior(0.07))
    assert config3.resolved_p() == pytest.approx(0.07)


def test_trial_config_rejects_degenerate_priors():
    with pytest.raises(ValueError):
        make_config(prior=FixedPrior(0))  # resolved p = 0
    with pytest.raises(ValueError):
        make_config(epsilon=0.0)


# --------------------------------------------------------------- run_sweep


def test_run_sweep_row_shape_and_order():
    config = make_config()
    rows = run_sweep(
        config,
        m_grid=[200, 100],
        families=[("doubly_regular", False), ("bernoulli", False)],
        trials_per_point=5,
    )
    keys = [(r.family, r.multi, r.m) for r in rows]
    assert keys == [
        ("bernoulli", False, 100),
        ("bernoulli", False, 200),
        ("doubly_regular", False, 100),
        ("doubly_regular", False, 200),
    ]
    for row in rows:
        assert row.trials == 5
        assert row.success_rate == row.successes / 5
        assert row.ci_low <= row.success_rate <= row.ci_high


def test_run_sweep_success_rate_arithmetic():
    config = make_config()
    rows = run_sweep(config, [400], [("doubly_regular", False)], trials_per_point=3)
    assert len(rows) == 1
    assert rows[0].success_rate == pytest.approx(rows[0].successes / 3)


def test_run_sweep_counts_failures_as_non_success():
    config = make_config()
    rows = run_sweep(config, [10], [("doubly_regular", False)], trials_per_point=4)
    (row,) = rows
    assert row.failures == 4  # m = 10 is below the threshold floor
    assert row.successes == 0
    assert row.success_rate == 0.0


def test_run_sweep_parallel_matches_serial():
    config = make_config(design=DesignSpec(n=50, m=50, gamma=5,
                                           family="doubly_regular", allow_multi=False),
                         prior=FixedPrior(3), epsilon=0.3)
    serial = run_sweep(config, [120, 60], [("doubly_regular", False), ("one_sided_regular", True)],
                       trials_per_point=6, workers=1)
    parallel = run_sweep(config, [120, 60], [("doubly_regular", False), ("one_sided_regular", True)],
                         trials_per_point=6, workers=3)
    assert serial == parallel


@pytest.mark.parametrize("trials, pool_size", [(1, None), (3, 3)])
def test_run_sweep_pool_has_no_more_workers_than_tasks(monkeypatch, trials, pool_size):
    # The stub maps serially, so no process is started whatever is requested.
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    config = make_config()
    serial = run_sweep(config, [100], [("doubly_regular", False)], trials_per_point=trials)
    monkeypatch.setattr(pooledsim.experiment, "ProcessPoolExecutor", SerialPool)
    capped = run_sweep(
        config, [100], [("doubly_regular", False)], trials_per_point=trials, workers=5000
    )
    assert pools == ([] if pool_size is None else [pool_size])
    assert capped == serial


def test_run_sweep_adding_grid_points_keeps_existing_trials():
    config = make_config()
    small = run_sweep(config, [150], [("doubly_regular", False)], trials_per_point=8)
    large = run_sweep(config, [150, 300], [("doubly_regular", False)], trials_per_point=8)
    small_row = small[0]
    matching = [r for r in large if r.m == 150][0]
    assert small_row == matching


def test_run_sweep_success_monotone_in_m():
    # Success climbs through the transition; allow one CI-overlap violation.
    config = make_config(
        design=DesignSpec(n=200, m=50, gamma=20, family="doubly_regular", allow_multi=False),
        prior=FixedPrior(4),
        epsilon=0.25,
        base_seed=515151,
    )
    m_grid = [60, 120, 180, 240, 300]
    rows = run_sweep(config, m_grid, [("doubly_regular", False)], trials_per_point=40)
    rates = [r.success_rate for r in rows]
    violations = 0
    for earlier, later in zip(rows, rows[1:]):
        if later.success_rate < earlier.success_rate and later.ci_high < earlier.ci_low:
            violations += 1
    assert violations <= 1
    assert rates[-1] > rates[0]


def test_run_sweep_rejects_bad_family():
    config = make_config()
    with pytest.raises(ValueError):
        run_sweep(config, [100], [("bernoulli", True)], trials_per_point=2)
    with pytest.raises(ValueError):
        run_sweep(config, [], [("bernoulli", False)], trials_per_point=2)


@pytest.mark.parametrize(
    "m_grid, families",
    [([100, 100], [("doubly_regular", False)]),
     ([100], [("doubly_regular", False), ("doubly_regular", False)])],
    ids=["m", "family"],
)
def test_run_sweep_rejects_repeated_sweep_points(m_grid, families):
    with pytest.raises(ValueError, match="must not repeat a sweep point"):
        run_sweep(make_config(), m_grid, families, trials_per_point=3)
