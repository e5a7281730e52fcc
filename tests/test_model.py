import re

import numpy as np
import pytest

from pooledsim.model import (
    BernoulliPrior,
    ChannelMatrix,
    FixedPrior,
    GroundTruth,
    eps_recovery,
    sample_ground_truth,
)


def test_fixed_prior_empty_support():
    rng = np.random.default_rng(0)
    truth = sample_ground_truth(5, FixedPrior(0), rng)
    assert truth.ones == 0
    assert truth.bits.tolist() == [0, 0, 0, 0, 0]


def test_fixed_prior_full_support():
    rng = np.random.default_rng(0)
    truth = sample_ground_truth(5, FixedPrior(5), rng)
    assert truth.ones == 5
    assert truth.bits.tolist() == [1, 1, 1, 1, 1]


def test_fixed_prior_exact_count():
    rng = np.random.default_rng(123)
    for k in (1, 3, 7, 50):
        truth = sample_ground_truth(100, FixedPrior(k), rng)
        assert truth.ones == k
        assert int(truth.bits.sum()) == k


def test_bernoulli_prior_concentrates():
    # Binomial(1e5, 0.1): mean 10000, 4 sigma ~ 380.
    rng = np.random.default_rng(42)
    truth = sample_ground_truth(10**5, BernoulliPrior(0.1), rng)
    assert 9620 <= truth.ones <= 10380


def test_sample_rejects_bad_arguments():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_ground_truth(5, FixedPrior(6), rng)
    with pytest.raises(ValueError):
        BernoulliPrior(1.5)
    with pytest.raises(ValueError):
        sample_ground_truth(0, FixedPrior(0), rng)


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: FixedPrior(k=-1), ValueError, "fixed one-count must be non-negative, got -1"),
        (lambda: FixedPrior(k=2.5), ValueError, r"fixed one-count must be an integer, got 2\.5"),
        (lambda: sample_ground_truth(3, 0.5, np.random.default_rng(0)), TypeError,
         "unsupported prior: 0.5"),
    ],
    ids=["negative-k", "float-k", "unsupported-prior"],
)
def test_prior_input_checks(make, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        make()


def test_fixed_prior_stores_a_numpy_count_as_a_python_int():
    prior = FixedPrior(np.int64(3))
    assert prior == FixedPrior(3)
    assert type(prior.k) is int


def hamming_of(a, b):
    return eps_recovery(GroundTruth(np.asarray(a)), b, epsilon=0.5).hamming


def overlap_of(truth, estimate):
    return eps_recovery(truth, estimate, epsilon=0.5).overlap


def test_hamming_distance_examples():
    assert hamming_of(np.array([1, 0, 1]), np.array([1, 0, 1])) == 0
    assert hamming_of(np.array([1, 1, 0, 0]), np.array([1, 0, 0, 0])) == 1
    assert hamming_of(np.array([0, 0]), np.array([1, 1])) == 2


def test_hamming_distance_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch: 2 vs 3"):
        hamming_of(np.array([1, 0]), np.array([1, 0, 1]))


@pytest.mark.parametrize("shape", [(4, 1), (1, 4), ()])
def test_eps_recovery_rejects_an_estimate_that_is_not_a_vector(shape):
    truth = GroundTruth(np.array([1, 0, 0, 0]))
    assert eps_recovery(truth, np.zeros(4), epsilon=0.5).hamming == 1
    message = rf"^estimate must be a one-dimensional vector, got shape {re.escape(str(shape))}$"
    with pytest.raises(ValueError, match=message):
        eps_recovery(truth, np.zeros(shape), epsilon=0.5)


def test_overlap_examples():
    truth = GroundTruth(np.array([1, 1, 0, 0]))
    assert overlap_of(truth, np.array([1, 0, 0, 0])) == 0.5
    truth2 = GroundTruth(np.array([1, 0, 1]))
    assert overlap_of(truth2, np.array([1, 0, 1])) == 1.0
    truth3 = GroundTruth(np.array([1, 1, 1, 0]))
    assert overlap_of(truth3, np.array([0, 0, 0, 1])) == 0.0


def test_eps_recovery_within_budget():
    truth = GroundTruth(np.array([1, 1, 0, 0]))
    report = eps_recovery(truth, np.array([1, 0, 0, 0]), epsilon=0.25)
    assert report.hamming == 1
    assert report.eps_ok  # budget 2 * 0.25 * 2 = 1


def test_eps_recovery_breaks_budget():
    truth = GroundTruth(np.array([1, 1, 0, 0]))
    report = eps_recovery(truth, np.array([0, 0, 1, 1]), epsilon=0.25)
    assert report.hamming == 4
    assert not report.eps_ok


def test_eps_recovery_zero_budget_met_exactly():
    truth = GroundTruth(np.zeros(6, dtype=np.int8))
    report = eps_recovery(truth, np.zeros(6, dtype=np.int8), epsilon=0.1)
    assert report.hamming == 0
    assert report.overlap == 1.0  # vacuous: no one-bits to recover
    assert report.eps_ok


def test_hamming_decomposes_into_misses_and_false_positives():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        truth = sample_ground_truth(n, BernoulliPrior(0.4), rng)
        estimate = (rng.random(n) < 0.5).astype(np.int8)
        misses = int(np.count_nonzero((truth.bits == 1) & (estimate == 0)))
        false_pos = int(np.count_nonzero((truth.bits == 0) & (estimate == 1)))
        assert hamming_of(truth.bits, estimate) == misses + false_pos
        if truth.ones:
            hits = truth.ones - misses
            assert overlap_of(truth, estimate) == hits / truth.ones


def test_eps_recovery_monotone_in_error_positions():
    # Fixing some erroneous positions never turns a pass into a failure.
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        truth = sample_ground_truth(n, BernoulliPrior(0.5), rng)
        est1 = (rng.random(n) < 0.5).astype(np.int8)
        wrong = np.flatnonzero(est1 != truth.bits)
        est2 = est1.copy()
        for pos in wrong:
            if rng.random() < 0.5:
                est2[pos] = truth.bits[pos]
        r1 = eps_recovery(truth, est1, epsilon=0.3)
        r2 = eps_recovery(truth, est2, epsilon=0.3)
        if r1.eps_ok:
            assert r2.eps_ok


def test_channel_matrix_validation():
    ChannelMatrix(s11=0.9, s01=0.1)
    with pytest.raises(ValueError):
        ChannelMatrix(s11=0.5, s01=0.5)
    with pytest.raises(ValueError):
        ChannelMatrix(s11=0.4, s01=0.6)
    with pytest.raises(ValueError):
        ChannelMatrix(s11=1.2, s01=0.0)


def test_channel_constructors():
    ident = ChannelMatrix.identity()
    assert (ident.s11, ident.s01) == (1.0, 0.0)
    z = ChannelMatrix.z_channel(0.2)
    assert z.s11 == pytest.approx(0.8)
    assert z.s01 == 0.0


def test_ground_truth_counts_ones_and_freezes_bits():
    bits = np.array([1, 0, 1, 1], dtype=np.int8)
    truth = GroundTruth(bits)
    assert truth.ones == 3
    assert truth.n == 4
    assert not truth.bits.flags.writeable


def test_ground_truth_copies_the_callers_array():
    bits = np.array([1, 0, 1, 0], dtype=np.int8)
    GroundTruth(bits)
    assert bits.flags.writeable
    truth = GroundTruth(bits[:])
    assert truth.ones == 2
    bits[1] = 1
    assert truth.ones == int(np.count_nonzero(truth.bits)) == 2
    report = eps_recovery(truth, bits, epsilon=0.25)
    assert (report.hamming, report.overlap, report.eps_ok) == (1, 1.0, True)


@pytest.mark.parametrize(
    "bits, message",
    [
        (np.zeros((2, 2), dtype=np.int8), "one-dimensional"),
        (np.array([0, 2, 1]), "0/1 valued"),
        (np.array([-1, 0]), "0/1 valued"),
        (np.array([0.5, 1.0]), "0/1 valued"),
    ],
)
def test_ground_truth_rejects_bad_bits(bits, message):
    with pytest.raises(ValueError, match=message):
        GroundTruth(bits)


@pytest.mark.parametrize(
    "epsilon, message",
    [
        (float("nan"), "positive, got nan"),
        (0.0, "positive, got 0.0"),
        (-0.25, "positive, got -0.25"),
        (float("inf"), "finite, got inf"),
    ],
)
def test_eps_recovery_rejects_epsilon_not_finite_and_positive(epsilon, message):
    truth = GroundTruth(np.array([1, 0, 0], dtype=np.int8))
    with pytest.raises(ValueError, match=message):
        eps_recovery(truth, truth.bits, epsilon)
