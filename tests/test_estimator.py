"""Tests for covariance estimation, the weight estimator, and the metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve

from rankreg import (
    ComparisonDataset,
    LogisticLink,
    ModelSpec,
    RngStream,
    SampleSet,
    SpdMatrix,
    TrialConfig,
    TrialResult,
    angle,
    estimate_beta,
    estimate_covariance,
    generate_comparisons,
    generate_samples,
    m_from_n,
    make_covariance,
    norm_error,
    realize_model,
    run_trial,
    sample_gaussian,
    simulate,
    trial_stream,
    write_estimate_csv,
)
from rankreg import comparisons
from rankreg.estimator import _label_weights
from rankreg.randomness import _BLOCK_ROWS, sample_ground_truth


def _one_product(features):
    """The covariance estimate as one centred product over the whole covariance half."""
    n, d = len(features) // 2, features.shape[1]
    centered = features[n:] - features[n:].mean(axis=0)
    sigma = centered.T @ centered / (n - d - 2)
    return (sigma + sigma.T) / 2


def _gaussian_rows(seed, d, count):
    _, mu = sample_ground_truth(RngStream(seed, 1), d)  # a mean up to 5 away, so centring matters
    return sample_gaussian(RngStream(seed, 2), mu, make_covariance(RngStream(seed, 3), d, 0.1), count)


def _random_instance(seed, d=3, n=40, m=500):
    spec = ModelSpec(np.arange(1, d + 1, dtype=float), np.zeros(d), SpdMatrix(np.eye(d)), LogisticLink(2.0))
    samples = generate_samples(RngStream(seed), spec, n)
    return samples, generate_comparisons(RngStream(seed + 1), spec, samples, m)


# --- covariance ------------------------------------------------------------


def test_covariance_hand_computed_1d():
    # second half {0, 2, 4, 6}: mean 3, squared deviations 9+1+1+9,
    # correction divisor 4 - 1 - 2 = 1
    features = np.array([[10.0], [11.0], [12.0], [13.0], [0.0], [2.0], [4.0], [6.0]])
    cov = estimate_covariance(SampleSet(features))
    assert cov.entries[0, 0] == 20.0
    assert math.isclose(np.linalg.inv(cov.entries)[0, 0], 0.05, rel_tol=1e-14)


def test_covariance_needs_spare_degrees_of_freedom():
    with pytest.raises(ValueError, match=r"need N > d \+ 2, got N=3, d=1"):
        estimate_covariance(SampleSet(np.random.default_rng(0).normal(size=(6, 1))))
    with pytest.raises(ValueError, match="N=4, d=2"):
        estimate_covariance(SampleSet(np.random.default_rng(0).normal(size=(8, 2))))


def test_covariance_constant_rows_are_singular():
    features = np.vstack([np.random.default_rng(1).normal(size=(5, 2)), np.ones((5, 2))])
    with pytest.raises(np.linalg.LinAlgError):
        estimate_covariance(SampleSet(features))


def test_ill_conditioned_trial_reports_an_angle_and_never_builds_the_inverse():
    # cond(sigma) ~ 1e10: an explicit inverse would miss a 1e-8 residual check, but the estimate
    # only needs one linear solve, so the trial succeeds and reports its (poor) angle
    config = TrialConfig(d=10, n=1000, m=m_from_n(1000), lambda_min=1e-10, target_pe=0.0)
    result = run_trial(config, 0)
    assert isinstance(result, TrialResult)
    stream = trial_stream(config, 0)
    model, _, _ = realize_model(stream, config.d, config.lambda_min, config.target_pe)
    samples, dataset = simulate(stream, model, config.n, config.m)
    assert angle(estimate_beta(dataset, samples), model.beta) == result.angle
    cov = estimate_covariance(samples)
    inv = cho_solve((cov.cholesky, True), np.eye(config.d))
    assert np.abs((inv + inv.T) / 2 @ cov.entries - np.eye(config.d)).max() > 1e-8


def test_covariance_uses_only_the_second_half():
    base = sample_gaussian(RngStream(77), np.zeros(2), SpdMatrix(np.eye(2)), 40)
    scrambled = base.copy()
    scrambled[:20] = 99.0
    a = estimate_covariance(SampleSet(base))
    b = estimate_covariance(SampleSet(scrambled))
    assert np.array_equal(a.entries, b.entries)


@pytest.mark.parametrize("d", [1, 3, 20])
def test_covariance_of_one_block_is_the_one_product_bit_for_bit(d):
    for n in (d + 3, _BLOCK_ROWS - 1, _BLOCK_ROWS, 2 * _BLOCK_ROWS - 1):
        features = _gaussian_rows(n, d, 2 * n)
        assert np.array_equal(estimate_covariance(SampleSet(features)).entries, _one_product(features)), n


def test_covariance_summed_over_blocks_stays_within_round_off_of_the_one_product():
    # Over 40 seeds at d in {1, 3, 20, 50} and N in {2B, 2B + 1, 3B + 24, 5B + 7} the largest relative
    # Frobenius gap was 6.5e-16; a lost or doubled row would be near 1/N
    for seed in range(20):
        for d, n in ((3, 2 * _BLOCK_ROWS + 1), (20, 3 * _BLOCK_ROWS + 24)):
            features = _gaussian_rows(seed, d, 2 * n)
            reference = _one_product(features)
            gap = np.linalg.norm(estimate_covariance(SampleSet(features)).entries - reference)
            assert gap <= 2e-15 * np.linalg.norm(reference), (seed, d, n)


def test_inverse_covariance_is_unbiased():
    # the 1/(N-d-2) correction centers the inverse, not the forward estimate
    d, n, trials = 3, 30, 600
    sigma = SpdMatrix(np.diag([2.0, 1.0, 0.5]))
    total = np.zeros((d, d))
    for t in range(trials):
        x = sample_gaussian(RngStream(900, t), np.zeros(d), sigma, 2 * n)
        total += np.linalg.inv(estimate_covariance(SampleSet(x)).entries)
    target = np.diag([0.5, 1.0, 2.0])
    relative = np.linalg.norm(total / trials - target) / np.linalg.norm(target)
    assert relative <= 0.05


# --- weight estimate -------------------------------------------------------


def test_estimate_two_term_average_with_forced_identity():
    # covariance half +-e1, +-e2, 0, 0: mean 0 and scatter 2 I, over N - d - 2 = 2, is exactly I
    features = np.zeros((12, 2))
    features[0] = (1.0, 0.0)
    features[2] = (0.0, 1.0)
    features[6:10] = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
    samples = SampleSet(features)
    assert np.array_equal(estimate_covariance(samples).entries, np.eye(2))
    dataset = ComparisonDataset(6, [0, 2], [1, 1], [1, -1])
    assert np.array_equal(estimate_beta(dataset, samples), [0.5, -0.5])


@pytest.mark.parametrize("d", [2, 10, 50])
@pytest.mark.parametrize("lambda_min", [1.0, 0.1])
def test_estimate_matches_a_cholesky_solve(d, lambda_min):
    stream = RngStream(31, d)
    sigma = make_covariance(stream.child("sigma"), d, lambda_min)
    spec = ModelSpec(np.ones(d), np.zeros(d), sigma, LogisticLink(1.0))
    samples = generate_samples(stream.child("samples"), spec, 20 * d)
    dataset = generate_comparisons(stream.child("comparisons"), spec, samples, 40 * d)
    y = dataset.y.astype(float)
    weights = np.bincount(dataset.i, weights=y, minlength=samples.n) - np.bincount(
        dataset.j, weights=y, minlength=samples.n
    )
    accumulated = weights @ samples.comparison_half
    expected = cho_solve((estimate_covariance(samples).cholesky, True), accumulated) / dataset.m
    beta_hat = estimate_beta(dataset, samples)
    assert np.linalg.norm(beta_hat - expected) <= 1e-13 * np.linalg.norm(beta_hat)


def test_estimate_is_linear_in_labels():
    samples, dataset = _random_instance(10)
    flipped = ComparisonDataset(dataset.n, dataset.i, dataset.j, -dataset.y)
    a = estimate_beta(dataset, samples)
    b = estimate_beta(flipped, samples)
    assert np.array_equal(b, -a)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1000))
def test_estimate_ignores_comparison_order(seed):
    samples, dataset = _random_instance(20, m=200)
    order = np.random.default_rng(seed).permutation(dataset.m)
    shuffled = ComparisonDataset(dataset.n, dataset.i[order], dataset.j[order], dataset.y[order])
    assert np.array_equal(estimate_beta(shuffled, samples), estimate_beta(dataset, samples))


def test_estimate_scale_equivariance():
    samples, dataset = _random_instance(30)
    base = estimate_beta(dataset, samples)

    doubled = SampleSet(samples.features * 2.0)
    scaled = estimate_beta(dataset, doubled)
    assert np.array_equal(scaled, base / 2.0)  # power-of-two scaling is exact

    tripled = SampleSet(samples.features * 3.0)
    scaled = estimate_beta(dataset, tripled)
    assert np.linalg.norm(scaled - base / 3.0) <= 1e-10 * np.linalg.norm(base)


def test_estimate_validates_inputs():
    samples, _ = _random_instance(40)
    small = ComparisonDataset(30, [0, 1], [2, 3], [1, -1])
    with pytest.raises(ValueError, match="rows"):
        estimate_beta(small, samples)
    # compared rows near 1e300 against a covariance near 1e-20: the whitened sum overflows
    rng = np.random.default_rng(3)
    huge = SampleSet(np.vstack([1e300 * rng.uniform(0.5, 1.0, (8, 2)), 1e-10 * rng.normal(size=(8, 2))]))
    with pytest.raises(ValueError, match="beta_hat has non-finite entries"):
        estimate_beta(ComparisonDataset(8, [0, 1], [2, 3], [1, -1]), huge)


def test_estimate_of_blocks_is_the_estimate_of_their_dataset():
    samples, dataset = _random_instance(41, m=5000)
    cuts = [0, 1, 1700, 1701, 5000]

    class Blocks:
        """The dataset's comparisons cut at ``cuts``: its n and m, and (i, j, y) blocks."""

        n, m = dataset.n, dataset.m

        def __iter__(self):
            return ((dataset.i[a:b], dataset.j[a:b], dataset.y[a:b]) for a, b in zip(cuts, cuts[1:]))

    assert np.array_equal(estimate_beta(Blocks(), samples), estimate_beta(dataset, samples))


def test_label_weights_of_drawn_blocks_are_the_bincount_of_their_dataset():
    spec = ModelSpec(np.ones(3), np.zeros(3), SpdMatrix(np.eye(3)), LogisticLink(2.0))
    samples, m = generate_samples(RngStream(45), spec, 30), 3 * _BLOCK_ROWS + 5
    drawn = comparisons._Drawn(RngStream(46), spec, samples, m)
    assert len(list(drawn)) == 3
    dataset = generate_comparisons(RngStream(46), spec, samples, m)
    y = dataset.y.astype(float)
    weights = np.bincount(dataset.i, weights=y, minlength=samples.n) - np.bincount(
        dataset.j, weights=y, minlength=samples.n
    )
    assert np.array_equal(_label_weights(drawn), weights)


def test_estimate_checks_drawn_comparisons_against_the_samples():
    samples, _ = _random_instance(42)
    spec = ModelSpec(np.ones(3), np.zeros(3), SpdMatrix(np.eye(3)), LogisticLink(2.0))
    drawn = comparisons._Drawn(RngStream(43), spec, generate_samples(RngStream(44), spec, 30), 500)
    with pytest.raises(ValueError, match="dataset indexes 30 rows but samples provide 40"):
        estimate_beta(drawn, samples)


def test_no_dataset_is_made_per_block(monkeypatch):
    # a trial reads its drawn blocks unchecked, generate checks its gathered comparisons once, and an estimate reads
    # a dataset's views without making a dataset of each
    made, check = [], ComparisonDataset.__post_init__

    def counted(self):
        made.append(len(self.y))
        check(self)

    monkeypatch.setattr(ComparisonDataset, "__post_init__", counted)
    config = TrialConfig(d=5, n=1000, m=2 * _BLOCK_ROWS + 3, lambda_min=0.5, target_pe=0.2)
    run_trial(config, 1)
    assert made == []
    stream = trial_stream(config, 1)
    model = realize_model(stream, config.d, config.lambda_min, config.target_pe)[0]
    samples, dataset = simulate(stream, model, config.n, config.m)
    assert made == [config.m]
    estimate_beta(dataset, samples)
    assert made == [config.m]


def test_estimator_mean_tracks_the_shrunk_weights():
    # Monte Carlo check of the expectation identity at a small scale; the
    # acceptance suite repeats it at d=2 with larger trial counts.
    from rankreg import ScoreDifferenceLaw, estimate_c1

    d, n, m, trials = 5, 300, 5000, 200
    beta = np.array([1.0, -0.5, 0.25, 0.0, 2.0])
    spec = ModelSpec(beta, np.zeros(d), SpdMatrix(np.eye(d)), LogisticLink(5.0))
    law = ScoreDifferenceLaw.from_parameters(beta, spec.sigma)
    c1 = estimate_c1(spec.link, law)
    draws = np.empty((trials, d))
    for t in range(trials):
        samples = generate_samples(RngStream(1000, 2 * t), spec, n)
        dataset = generate_comparisons(RngStream(1000, 2 * t + 1), spec, samples, m)
        draws[t] = estimate_beta(dataset, samples)
    pooled_se = draws.std(axis=0, ddof=1) / math.sqrt(trials)
    assert (np.abs(draws.mean(axis=0) - c1 * beta) <= 4 * pooled_se).all()


def test_self_pairs_shrink_the_mean_by_one_over_n():
    # a comparison is a self-pair with chance 1/N and adds 0 to the sum while counting in M, so
    # E[beta_hat] = (1 - 1/N) * c1 * beta.  At N = 10 the shrink is 0.1, about 8 SE here; over master seeds
    # 100..123 the mean ratio lay within 2.43 SE of 1 - 1/N and at least 5.67 SE from 1
    n, m, trials, stream = 10, 1000, 4000, RngStream(15)
    model, _, c1 = realize_model(stream.child("model"), 2, 1.0, 0.2)
    beta = model.beta
    ratios = np.array([estimate_beta(*reversed(simulate(stream.child(t), model, n, m))) @ beta for t in range(trials)])
    ratios /= c1 * beta @ beta
    mean, se = ratios.mean(), ratios.std(ddof=1) / math.sqrt(trials)
    assert abs(mean - (1 - 1 / n)) <= 4 * se
    assert 1 - mean > 4 * se


# --- metrics ---------------------------------------------------------------


def test_metrics_identity_case():
    beta = np.array([3.0, 4.0])
    assert (norm_error(2.0 * beta, beta, 2.0), angle(2.0 * beta, beta)) == (0.0, 0.0)


def test_metrics_antipodal_case():
    beta = np.array([3.0, 4.0])
    assert angle(-beta, beta) == math.pi


def test_metrics_orthogonal_case():
    estimate, beta = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert norm_error(estimate, beta, 2.0) == math.sqrt(5) and angle(estimate, beta) == math.pi / 2


def test_metrics_zero_norm_error_carries_norm_error():
    # a zero-norm vector leaves the angle undefined, but not the norm error
    for estimate, beta in (([0.0, 0.0], [1.0, 1.0]), ([1.0, 1.0], [0.0, 0.0])):
        with pytest.raises(ValueError, match="zero-norm"):
            angle(estimate, beta)
    assert math.isclose(norm_error([0.0, 0.0], [1.0, 1.0], 2.0), 2.0 * math.sqrt(2), rel_tol=1e-15)


def test_metrics_validation():
    with pytest.raises(ValueError):
        norm_error([1.0], [1.0], 0.0)


@pytest.mark.parametrize(
    "estimate,beta", [([1.0], [1.0, 0.0, 0.0]), ([1.0, 0.0], [1.0, 0.0, 0.0]), ([[1.0, 0.0]], [1.0, 0.0])]
)
def test_metrics_reject_unequal_shapes(estimate, beta):
    with pytest.raises(ValueError, match="shape"):
        angle(estimate, beta)
    with pytest.raises(ValueError, match="shape"):
        norm_error(estimate, beta, 1.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(1e-6, 1e6))
def test_angle_is_scale_invariant(t):
    a = np.array([0.3, -1.2, 0.8])
    b = np.array([1.0, 0.4, -0.2])
    assert math.isclose(angle(t * a, b), angle(a, b), abs_tol=1e-12)
    assert angle(a, b) == angle(b, a)


def test_angle_clamps_round_off():
    # collinear pair whose unclamped cosine evaluates to 1 + 2^-52
    a = np.array([-0.535669373161111, 0.36159505490948474, 1.3040000451301372])
    b = 5.971224207379988 * a
    assert a @ b / (np.linalg.norm(a) * np.linalg.norm(b)) > 1.0
    assert angle(a, b) == 0.0 and angle(-a, b) == math.pi


def test_estimate_csv_layout(tmp_path):
    path = tmp_path / "e.csv"
    write_estimate_csv(np.array([0.5, -1.25]), 7, 12, path)
    assert path.read_bytes() == b"n,m,beta_hat_1,beta_hat_2\n7,12,0.5,-1.25\n"
