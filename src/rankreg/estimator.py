"""Closed-form estimation of the ranking weight vector from labeled comparisons.

The pipeline splits a sample set in half: the second half estimates the
feature covariance with a degrees-of-freedom correction that makes the
*inverse* estimate unbiased, and the first half supplies the compared
feature rows.  The weight estimate is the label-weighted average of
whitened feature differences, evaluated as one accumulated sum followed by
one d x d linear solve (``numpy.linalg.solve``, an LU factorization).
"""

from __future__ import annotations

import functools

import numpy as np

from .comparisons import ComparisonDataset, SampleSet, _names, _write_csv
from .randomness import SpdMatrix, _row_blocks


def estimate_covariance(samples: SampleSet) -> SpdMatrix:
    """Estimate the feature covariance from the second half of ``samples``.

    Uses the corrected normalization 1/(N - d - 2) so the inverse of the returned estimate is unbiased, and sums
    the scatter matrix over centred :func:`_row_blocks` blocks, one copied at a time.  Raises ValueError when
    N <= d + 2, and ``numpy.linalg.LinAlgError`` when the scatter matrix is singular (for example, all covariance
    rows identical).
    """
    n, d = samples.n, samples.d
    if n <= d + 2:
        raise ValueError(f"need N > d + 2, got N={n}, d={d}")
    half, mean = samples.covariance_half, samples.covariance_half.mean(axis=0)
    blocks = (half[lo:hi] - mean for lo, hi in _row_blocks(n))  # map drops each block before the next is made
    sigma = functools.reduce(np.add, map(lambda c: c.T @ c, blocks)) / (n - d - 2)
    return SpdMatrix((sigma + sigma.T) / 2)


def _label_weights(comparisons) -> np.ndarray:
    """Per-row label weights w_r = Σ_k y_k ([i_k = r] - [j_k = r]), of length ``comparisons.n``.

    ``comparisons`` has a dataset's ``n`` and iterates as (i, j, y) blocks, as a :class:`ComparisonDataset` or a
    trial's comparisons, drawn one block at a time.  Each block adds into the weights in place (``np.add.at``), so it
    costs its own length and no n-length array, and it and its float labels are dropped before the next is asked for.
    The weights are integer sums of ±1, exact in float64, so neither the triples' order nor the blocks change them.
    """
    weights = np.zeros(comparisons.n)
    for i, j, y in comparisons:
        y = y.astype(float)  # int64 labels added into float weights put np.add.at on its casting path, ~30x slower
        np.add.at(weights, i, y)
        np.subtract.at(weights, j, y)
        del i, j, y  # before the next block is drawn
    return weights


def estimate_beta(dataset: ComparisonDataset, samples: SampleSet) -> np.ndarray:
    """Label-weighted average of feature differences, whitened by :func:`estimate_covariance` of ``samples``.

    ``dataset`` is what :func:`_label_weights` reads, with its ``m``, and is read once, by it: the sum of
    y * (x_i - x_j) over the comparisons is the label weights times the comparison rows, O(M + Nd), and the whitening
    solve is applied once to it.  Raises ValueError when ``dataset`` indexes another number of rows than ``samples``
    compares, or when the result is not finite.
    """
    if dataset.n != samples.n:
        raise ValueError(f"dataset indexes {dataset.n} rows but samples provide {samples.n}")
    sigma = estimate_covariance(samples)  # before the first block, so its blocks and the comparisons never coexist
    beta_hat = np.linalg.solve(sigma.entries, _label_weights(dataset) @ samples.comparison_half) / dataset.m
    if not np.isfinite(beta_hat).all():
        raise ValueError("beta_hat has non-finite entries")
    return beta_hat


def _same_shape(beta_hat, beta) -> tuple[np.ndarray, np.ndarray]:
    a, b = np.asarray(beta_hat, dtype=float), np.asarray(beta, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"estimate has shape {a.shape} but ground truth has shape {b.shape}")
    return a, b


def norm_error(beta_hat: np.ndarray, beta: np.ndarray, c1: float) -> float:
    """Euclidean distance between the estimate and c1 * beta, which includes a bias of c1 * ||beta|| / N: a trial's
    E[beta_hat] is (1 - 1/N) * c1 * beta, as a self-pair (chance 1/N) counts in M and adds nothing to the sum."""
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
