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

import numpy as np
from scipy.linalg import cho_solve

from .comparisons import ComparisonDataset, ModelSpec, SampleSet, _names, _write_csv
from .randomness import SpdMatrix


class DegreesOfFreedomError(ValueError):
    """Too few covariance samples for the corrected estimate (need N > d + 2)."""


class AngleUndefinedError(ValueError):
    """Angle requested for a zero-norm vector; carries the norm_error that is still defined."""

    def __init__(self, message: str, norm_error: float):
        super().__init__(message)
        self.norm_error = norm_error


@dataclass(frozen=True, eq=False)
class CovarianceEstimate:
    """Corrected covariance estimate with its explicit inverse.

    The 1/(N-d-2) normalization makes the inverse, not the forward matrix,
    an unbiased estimate of the population quantity.
    """

    sigma_hat: SpdMatrix
    sigma_hat_inv: np.ndarray
    dof_n: int
    mu_hat: np.ndarray

    def __post_init__(self):
        d = self.sigma_hat.dim
        if self.dof_n <= d + 2:
            raise DegreesOfFreedomError(f"need N > d + 2, got N={self.dof_n}, d={d}")
        inv = np.asarray(self.sigma_hat_inv, dtype=float)
        mu = np.asarray(self.mu_hat, dtype=float)
        object.__setattr__(self, "sigma_hat_inv", inv)
        object.__setattr__(self, "mu_hat", mu)
        if inv.shape != (d, d):
            raise ValueError(f"sigma_hat_inv has shape {inv.shape}, expected ({d}, {d})")
        if mu.shape != (d,):
            raise ValueError(f"mu_hat has shape {mu.shape}, expected ({d},)")
        residual = np.abs(inv @ self.sigma_hat.entries - np.eye(d)).max()
        if not residual <= 1e-8:
            raise ValueError(f"sigma_hat_inv is not an inverse of sigma_hat (residual {residual:g})")


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


@dataclass(frozen=True)
class Metrics:
    norm_error: float
    angle: float

    def __post_init__(self):
        if not self.norm_error >= 0:
            raise ValueError(f"norm_error must be >= 0, got {self.norm_error}")
        if not 0 <= self.angle <= np.pi:
            raise ValueError(f"angle must lie in [0, pi], got {self.angle}")


def estimate_covariance(samples: SampleSet) -> CovarianceEstimate:
    """Estimate the feature covariance from the second half of ``samples``.

    Uses the corrected normalization 1/(N - d - 2) so the returned inverse is
    unbiased.  Raises :class:`DegreesOfFreedomError` when N <= d + 2, and
    ``numpy.linalg.LinAlgError`` when the scatter matrix is singular (for
    example, all covariance rows identical).
    """
    n, d = samples.n, samples.d
    if n <= d + 2:
        raise DegreesOfFreedomError(f"need N > d + 2, got N={n}, d={d}")
    half = samples.covariance_half
    mu_hat = half.mean(axis=0)
    centered = half - mu_hat
    scatter = centered.T @ centered
    sigma = scatter / (n - d - 2)
    sigma_hat = SpdMatrix((sigma + sigma.T) / 2)
    inv = cho_solve((sigma_hat.cholesky, True), np.eye(d))
    inv = (inv + inv.T) / 2
    return CovarianceEstimate(sigma_hat, inv, n, mu_hat)


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


def norm_error(beta_hat: np.ndarray, beta: np.ndarray, c1: float) -> float:
    """Euclidean distance between the estimate and its expectation c1 * beta."""
    if not c1 > 0:
        raise ValueError(f"c1 must be > 0, got {c1}")
    return float(np.linalg.norm(np.asarray(beta_hat, dtype=float) - c1 * np.asarray(beta, dtype=float)))


def angle(beta_hat: np.ndarray, beta: np.ndarray) -> float:
    """Angle between two nonzero vectors, clamped against round-off.

    The cosine can land just outside [-1, 1] in floating point; it is clamped
    before the arccos so collinear vectors give exactly 0 or pi.
    """
    a = np.asarray(beta_hat, dtype=float)
    b = np.asarray(beta, dtype=float)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise ValueError("angle undefined for a zero-norm vector")
    cosine = np.clip(a @ b / (na * nb), -1.0, 1.0)
    return float(np.arccos(cosine))


def compute_metrics(estimate: Estimate, spec: ModelSpec, c1: float) -> Metrics:
    """Both evaluation metrics against the ground truth.

    A zero-norm estimate (or ground truth) leaves the angle undefined; the
    raised :class:`AngleUndefinedError` still carries the norm_error value.
    """
    if estimate.d != spec.d:
        raise ValueError(f"estimate dim {estimate.d} does not match model dim {spec.d}")
    err = norm_error(estimate.beta_hat, spec.beta, c1)
    try:
        ang = angle(estimate.beta_hat, spec.beta)
    except ValueError as exc:
        raise AngleUndefinedError(f"{exc} (norm_error={err!r})", err) from exc
    return Metrics(err, ang)


def write_estimate_csv(estimate: Estimate, path) -> None:
    """Single-row CSV: n, m, then the estimated weight coordinates."""
    row = [estimate.n_used, estimate.m_used, *estimate.beta_hat.tolist()]
    _write_csv(path, ["n", "m", *_names("beta_hat", estimate.d)], [row])
