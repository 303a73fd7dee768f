"""Closed-form estimation of the ranking weight vector from labeled comparisons.

The pipeline splits a sample set in half: the second half estimates the
feature covariance with a degrees-of-freedom correction that makes the
*inverse* estimate unbiased, and the first half supplies the compared
feature rows.  The weight estimate is the label-weighted average of
whitened feature differences, evaluated as one accumulated sum followed by
one Cholesky solve: a forward and a back substitution.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve

from .comparisons import ComparisonDataset, SampleSet, _names, _write_csv
from .randomness import SpdMatrix


class DegreesOfFreedomError(ValueError):
    """Too few covariance samples for the corrected estimate (need N > d + 2)."""


def estimate_covariance(samples: SampleSet) -> SpdMatrix:
    """Estimate the feature covariance from the second half of ``samples``.

    Uses the corrected normalization 1/(N - d - 2) so the inverse of the
    returned estimate is unbiased.  Raises :class:`DegreesOfFreedomError`
    when N <= d + 2, and ``numpy.linalg.LinAlgError`` when the scatter
    matrix is singular (for example, all covariance rows identical).
    """
    n, d = samples.n, samples.d
    if n <= d + 2:
        raise DegreesOfFreedomError(f"need N > d + 2, got N={n}, d={d}")
    half = samples.covariance_half
    centered = half - half.mean(axis=0)
    sigma = centered.T @ centered / (n - d - 2)
    return SpdMatrix((sigma + sigma.T) / 2)


def estimate_beta(dataset: ComparisonDataset, samples: SampleSet) -> np.ndarray:
    """Label-weighted average of feature differences, whitened by :func:`estimate_covariance` of ``samples``.

    The per-comparison sum of y * (x_i - x_j) collapses to per-row integer
    label weights, so the accumulation costs O(M + Nd) and is independent of
    the order of the comparison triples.  The whitening solve is applied once
    to the accumulated vector.  Raises ValueError when the result is not finite.
    """
    if dataset.n != samples.n:
        raise ValueError(f"dataset indexes {dataset.n} rows but samples provide {samples.n}")
    y = dataset.y.astype(float)
    weights = np.bincount(dataset.i, weights=y, minlength=samples.n) - np.bincount(
        dataset.j, weights=y, minlength=samples.n
    )
    accumulated = weights @ samples.comparison_half
    beta_hat = cho_solve((estimate_covariance(samples).cholesky, True), accumulated) / dataset.m
    if not np.isfinite(beta_hat).all():
        raise ValueError("beta_hat has non-finite entries")
    return beta_hat


def _same_shape(beta_hat, beta) -> tuple[np.ndarray, np.ndarray]:
    a, b = np.asarray(beta_hat, dtype=float), np.asarray(beta, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"estimate has shape {a.shape} but ground truth has shape {b.shape}")
    return a, b


def norm_error(beta_hat: np.ndarray, beta: np.ndarray, c1: float) -> float:
    """Euclidean distance between the estimate and its expectation c1 * beta."""
    if not c1 > 0:
        raise ValueError(f"c1 must be > 0, got {c1}")
    a, b = _same_shape(beta_hat, beta)
    return float(np.linalg.norm(a - c1 * b))


def angle(beta_hat: np.ndarray, beta: np.ndarray) -> float:
    """Angle between two nonzero vectors of the same shape, clamped against round-off.

    The cosine can land just outside [-1, 1] in floating point; it is clamped
    before the arccos so collinear vectors give exactly 0 or pi.
    """
    a, b = _same_shape(beta_hat, beta)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise ValueError("angle undefined for a zero-norm vector")
    cosine = np.clip(a @ b / (na * nb), -1.0, 1.0)
    return float(np.arccos(cosine))


def write_estimate_csv(beta_hat: np.ndarray, n: int, m: int, path) -> None:
    """Single-row CSV: n, m, then the estimated weight coordinates."""
    _write_csv(path, ["n", "m", *_names("beta_hat", len(beta_hat))], [[n, m, *beta_hat.tolist()]])
