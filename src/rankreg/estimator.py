"""Closed-form estimation of the ranking weight vector from labeled comparisons.

The pipeline splits a sample set in half: the second half estimates the
feature covariance with a degrees-of-freedom correction that makes the
*inverse* estimate unbiased, and the first half supplies the compared
feature rows.  The weight estimate is the label-weighted average of
whitened feature differences, evaluated as one accumulated sum followed by
a single triangular solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_solve

from .comparisons import ComparisonDataset, SampleSet, _names, _write_csv
from .randomness import SpdMatrix


class DegreesOfFreedomError(ValueError):
    """Too few covariance samples for the corrected estimate (need N > d + 2)."""


@dataclass(frozen=True, eq=False)
class CovarianceEstimate:
    """Corrected covariance estimate; its inverse is computed only when read.

    The 1/(N-d-2) normalization makes the inverse, not the forward matrix,
    an unbiased estimate of the population quantity.
    """

    sigma_hat: SpdMatrix
    dof_n: int
    mu_hat: np.ndarray

    def __post_init__(self):
        d = self.sigma_hat.dim
        if self.dof_n <= d + 2:
            raise DegreesOfFreedomError(f"need N > d + 2, got N={self.dof_n}, d={d}")
        object.__setattr__(self, "mu_hat", np.asarray(self.mu_hat, dtype=float))
        if self.mu_hat.shape != (d,):
            raise ValueError(f"mu_hat has shape {self.mu_hat.shape}, expected ({d},)")

    @cached_property
    def sigma_hat_inv(self) -> np.ndarray:
        """Symmetrized inverse from the Cholesky factor; raises if its residual exceeds 1e-8."""
        eye = np.eye(self.sigma_hat.dim)
        inv = cho_solve((self.sigma_hat.cholesky, True), eye)
        inv = (inv + inv.T) / 2
        residual = np.abs(inv @ self.sigma_hat.entries - eye).max()
        if not residual <= 1e-8:
            raise ValueError(f"sigma_hat_inv is not an inverse of sigma_hat (residual {residual:g})")
        return inv


@dataclass(frozen=True, eq=False)
class Estimate:
    beta_hat: np.ndarray
    m_used: int
    n_used: int

    def __post_init__(self):
        b = np.asarray(self.beta_hat, dtype=float)
        object.__setattr__(self, "beta_hat", b)
        if b.ndim != 1 or len(b) < 1:
            raise ValueError(f"beta_hat must be a nonempty vector, got shape {b.shape}")
        if not np.isfinite(b).all():
            raise ValueError("beta_hat has non-finite entries")
        if self.m_used < 1 or self.n_used < 1:
            raise ValueError("m_used and n_used must be positive")

    @property
    def d(self) -> int:
        return len(self.beta_hat)


def estimate_covariance(samples: SampleSet) -> CovarianceEstimate:
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
    mu_hat = half.mean(axis=0)
    centered = half - mu_hat
    scatter = centered.T @ centered
    sigma = scatter / (n - d - 2)
    return CovarianceEstimate(SpdMatrix((sigma + sigma.T) / 2), n, mu_hat)


def estimate_beta(
    dataset: ComparisonDataset, samples: SampleSet, cov: CovarianceEstimate
) -> Estimate:
    """Label-weighted average of whitened feature differences.

    The per-comparison sum of y * (x_i - x_j) collapses to per-row integer
    label weights, so the accumulation costs O(M + Nd) and is independent of
    the order of the comparison triples.  The whitening solve is applied once
    to the accumulated vector.
    """
    if dataset.n != samples.n:
        raise ValueError(f"dataset indexes {dataset.n} rows but samples provide {samples.n}")
    if cov.sigma_hat.dim != samples.d:
        raise ValueError(f"covariance dim {cov.sigma_hat.dim} does not match feature dim {samples.d}")
    if cov.dof_n != samples.n:
        raise ValueError(f"covariance built from N={cov.dof_n}, samples have N={samples.n}")
    y = dataset.y.astype(float)
    weights = np.bincount(dataset.i, weights=y, minlength=samples.n) - np.bincount(
        dataset.j, weights=y, minlength=samples.n
    )
    accumulated = weights @ samples.comparison_half
    beta_hat = cho_solve((cov.sigma_hat.cholesky, True), accumulated) / dataset.m
    return Estimate(beta_hat, dataset.m, samples.n)


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


def write_estimate_csv(estimate: Estimate, path) -> None:
    """Single-row CSV: n, m, then the estimated weight coordinates."""
    row = [estimate.n_used, estimate.m_used, *estimate.beta_hat.tolist()]
    _write_csv(path, ["n", "m", *_names("beta_hat", estimate.d)], [row])
