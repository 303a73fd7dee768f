"""Tests for stream reproducibility, covariance construction, and Gaussian sampling."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankreg import (
    RngStream,
    SpdMatrix,
    make_covariance,
    make_orthonormal_basis,
    sample_gaussian,
    sample_ground_truth,
)
from rankreg import randomness


def test_stream_reproducible_across_calls():
    a = RngStream(123, 7).generator().standard_normal(32)
    b = RngStream(123, 7).generator().standard_normal(32)
    assert np.array_equal(a, b)


def test_distinct_ids_give_distinct_streams():
    a = RngStream(123, 0).generator().standard_normal(32)
    b = RngStream(123, 1).generator().standard_normal(32)
    assert not np.array_equal(a, b)


def test_child_streams_are_keyed():
    root = RngStream(5)
    assert root.child("features") == root.child("features")
    assert root.child("features") != root.child("comparisons")
    assert root.child("a", 1) != root.child("a", 2)
    assert root.child(1, "a") != root.child("a", 1)
    # same key under different parents stays distinct
    assert RngStream(5, 1).child("x") != RngStream(5, 2).child("x")


def test_stream_rejects_out_of_range_seeds():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(2**64)
    with pytest.raises(ValueError):
        RngStream(0, -3)
    RngStream(2**64 - 1, 2**64 - 1)  # boundary is valid


def test_child_key_rejects_ambiguous_types():
    with pytest.raises(TypeError):
        RngStream(0).child(True)
    with pytest.raises(TypeError):
        RngStream(0).child([1, 2])


def test_spd_validation():
    with pytest.raises(ValueError):
        SpdMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        SpdMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]))  # asymmetric
    with pytest.raises(np.linalg.LinAlgError):
        SpdMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    for entries in ([[np.nan]], [[np.inf]], [[-np.inf]], [[1.0, np.nan], [np.nan, 1.0]]):  # NaN: a NaN factor, no error
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            SpdMatrix(np.array(entries))
    m = SpdMatrix(np.array([[4.0, 1.0], [1.0, 2.0]]))
    assert m.dim == 2
    assert np.allclose(m.cholesky @ m.cholesky.T, m.entries, atol=1e-14)


def test_covariance_spec_validation():
    with pytest.raises(ValueError, match="dim must be >= 1, got 0"):
        make_covariance(RngStream(0), 0, 0.5)
    with pytest.raises(ValueError, match="d must be >= 1, got 0"):
        make_orthonormal_basis(RngStream(0), 0)
    with pytest.raises(ValueError, match="d must be >= 1, got 0"):
        sample_ground_truth(RngStream(0), 0)
    for lambda_min in (0.0, 1.2, float("nan")):
        with pytest.raises(ValueError, match=r"lambda_min must lie in \(0, 1\]"):
            make_covariance(RngStream(0), 3, lambda_min)


def test_basis_dim_one_is_a_sign():
    for seed in range(20):
        q = make_orthonormal_basis(RngStream(seed), 1)
        assert q.shape == (1, 1) and q[0, 0] in (-1.0, 1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 64))
def test_basis_is_orthonormal(seed, d):
    q = make_orthonormal_basis(RngStream(seed), d)
    assert np.abs(q.T @ q - np.eye(d)).max() <= 1e-10


def test_basis_entries_are_mean_zero():
    # Mean over 10^4 Haar draws at d=3; tolerance is 3 empirical standard errors.
    draws = np.array([make_orthonormal_basis(RngStream(42, i), 3).ravel() for i in range(10_000)])
    means = draws.mean(axis=0)
    se = draws.std(axis=0) / math.sqrt(len(draws))
    assert (np.abs(means) <= 3 * se).all()


def test_covariance_identity_when_flat_spectrum():
    sigma = make_covariance(RngStream(11), 4, 1.0)
    assert np.allclose(sigma.entries, np.eye(4), atol=1e-12)


def test_covariance_dim_one():
    sigma = make_covariance(RngStream(3), 1, 0.25)
    assert sigma.entries.shape == (1, 1) and sigma.entries[0, 0] == 0.25


def test_covariance_spectrum_matches_requested():
    sigma = make_covariance(RngStream(9), 10, 1 / 200)
    got = np.sort(np.linalg.eigvalsh(sigma.entries))
    assert np.abs(got - np.linspace(0.005, 1.0, 10)).max() <= 1e-8


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 64), st.floats(1e-4, 1.0))
def test_covariance_is_always_spd(seed, d, lambda_min):
    sigma = make_covariance(RngStream(seed), d, lambda_min)
    eigenvalues = np.linalg.eigvalsh(sigma.entries)
    assert eigenvalues.min() >= lambda_min - 1e-8
    assert eigenvalues.max() <= 1.0 + 1e-8


def test_covariance_spd_at_large_dim():
    sigma = make_covariance(RngStream(1), 512, 0.005)
    assert sigma.dim == 512  # construction already validated SPD


def test_sample_gaussian_shape_and_determinism():
    sigma = SpdMatrix(np.eye(3))
    x = sample_gaussian(RngStream(2), np.zeros(3), sigma, 17)
    assert x.shape == (17, 3)
    assert np.array_equal(x, sample_gaussian(RngStream(2), np.zeros(3), sigma, 17))


def test_sample_gaussian_mean():
    x = sample_gaussian(RngStream(8), np.zeros(2), SpdMatrix(np.eye(2)), 100_000)
    assert np.abs(x.mean(axis=0)).max() <= 3 / math.sqrt(100_000)


def test_sample_gaussian_covariance():
    sigma = np.diag([4.0, 1.0])
    x = sample_gaussian(RngStream(21), np.zeros(2), SpdMatrix(sigma), 100_000)
    sample_cov = np.cov(x, rowvar=False)
    assert np.linalg.norm(sample_cov - sigma) <= 0.05 * np.linalg.norm(sigma)


def test_sample_gaussian_validation():
    sigma = SpdMatrix(np.eye(2))
    with pytest.raises(ValueError):
        sample_gaussian(RngStream(0), np.zeros(3), sigma, 4)
    with pytest.raises(ValueError):
        sample_gaussian(RngStream(0), np.zeros(2), sigma, 0)


def test_sample_gaussian_allocates_at_most_one_array_beyond_its_result():
    sigma, mu = make_covariance(RngStream(5), 20, 0.5), np.ones(20)
    tracemalloc.start()
    try:
        x = sample_gaussian(RngStream(6), mu, sigma, 50_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * x.nbytes


def test_sample_covariance_min_eigenvalue_tracks_spectrum_floor():
    sigma = make_covariance(RngStream(13), 6, 0.3)
    x = sample_gaussian(RngStream(14), np.zeros(6), sigma, 1_000_000)
    eigenvalue = np.linalg.eigvalsh(np.cov(x, rowvar=False)).min()
    assert abs(eigenvalue - 0.3) <= 0.1 * 0.3


def test_ground_truth_weight_variance():
    # 10^5 coordinate draws; N(0, 10) coordinates concentrate well within 5%.
    draws = np.concatenate([sample_ground_truth(RngStream(30, i), 1000)[0] for i in range(100)])
    assert abs(draws.var() - 10.0) <= 0.05 * 10.0


def test_ground_truth_mean_range_and_center():
    draws = np.concatenate([sample_ground_truth(RngStream(31, i), 1000)[1] for i in range(100)])
    assert draws.min() >= -5.0 and draws.max() <= 5.0
    se = draws.std() / math.sqrt(len(draws))
    assert abs(draws.mean()) <= 3 * se


def test_ground_truth_draw_order_is_pinned():
    beta, mu = sample_ground_truth(RngStream(77), 4)
    g = RngStream(77).generator()
    assert np.array_equal(beta, g.standard_normal(4) * np.sqrt(10.0))
    assert np.array_equal(mu, g.uniform(-5.0, 5.0, size=4))


@pytest.mark.parametrize("d", [1, 2, 10, 50])
def test_blocked_sampling_matches_one_draw_bit_for_bit(d):
    # BLAS sums a short block in another order; the even split keeps every block at >= _BLOCK_ROWS rows
    b = randomness._BLOCK_ROWS
    sigma, mu = make_covariance(RngStream(40, d), d, 0.2), np.linspace(-5.0, 5.0, d)
    for count in (b - 1, b, b + 1, 2 * b - 1, 2 * b, 2 * b + 1, 3 * b + 24):
        one_draw = RngStream(41).generator().standard_normal((count, d)) @ sigma.cholesky.T + mu
        assert np.array_equal(sample_gaussian(RngStream(41), mu, sigma, count), one_draw), count


def test_row_blocks_split_evenly_into_blocks_of_at_least_block_rows():
    b = randomness._BLOCK_ROWS
    assert list(randomness._row_blocks(1)) == [(0, 1)]
    assert list(randomness._row_blocks(2 * b - 1)) == [(0, 2 * b - 1)]
    for count in (2 * b, 3 * b + 24, 7 * b - 1):
        blocks = list(randomness._row_blocks(count))
        assert [lo for lo, _ in blocks[1:]] == [hi for _, hi in blocks[:-1]]
        assert blocks[0][0] == 0 and blocks[-1][1] == count and len(blocks) == count // b
        assert all(b <= hi - lo < 2 * b for lo, hi in blocks)
