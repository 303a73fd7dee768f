"""Deterministic random generation of model parameters, covariances, and Gaussian samples.

All sampling here is a pure function of an explicit :class:`RngStream`, so any
draw can be reproduced bit-for-bit from its ``(master_seed, stream_id)`` pair,
independent of call order elsewhere in the program.  Streams with distinct ids
are statistically independent and safe to consume from different threads; a
single stream must not be shared across threads.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_UINT64_MASK = (1 << 64) - 1
# The fewest rows of a block: BLAS may sum a shorter one in another order than all rows at once.  Each comparison
# block draws its own i, j and uniforms, so changing this changes every output with m >= 2 * _BLOCK_ROWS.
_BLOCK_ROWS = 1 << 13


def _row_blocks(count: int):
    """Every kernel's one split: the max(1, count // _BLOCK_ROWS) even blocks (lo, hi) of range(count), made lazily."""
    parts = max(1, count // _BLOCK_ROWS)
    return ((k * count // parts, (k + 1) * count // parts) for k in range(parts))


def _mix(*parts) -> int:
    """Stable 64-bit hash of a tuple of ints, floats, and strings.

    Unlike builtin ``hash`` this does not vary between interpreter runs, so it
    can key reproducible RNG streams.
    """
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, str):
            h.update(b"s")
            h.update(p.encode())
        elif isinstance(p, (bool, np.bool_)):
            raise TypeError("ambiguous stream key part: bool")
        elif isinstance(p, (int, np.integer)):
            h.update(b"i")
            h.update(int(p).to_bytes(16, "little", signed=True))
        elif isinstance(p, float):
            h.update(b"f")
            h.update(struct.pack("<d", p))
        else:
            raise TypeError(f"unsupported stream key part: {type(p).__name__}")
    return int.from_bytes(h.digest()[:8], "little")


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream.

    Identical ``(master_seed, stream_id)`` pairs produce identical sample
    sequences on every run; distinct ``stream_id`` values give independent
    streams (they seed independent PCG64 generators via ``SeedSequence``).
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            v = getattr(self, name)
            if not 0 <= int(v) <= _UINT64_MASK:
                raise ValueError(f"{name} must fit in an unsigned 64-bit integer, got {v}")

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        return np.random.default_rng(np.random.SeedSequence([self.master_seed, self.stream_id]))

    def child(self, *key) -> "RngStream":
        """Derive an independent substream keyed by ints/floats/strings."""
        return RngStream(self.master_seed, _mix("child", self.stream_id, *key))


@dataclass(frozen=True, eq=False)
class SpdMatrix:
    """A symmetric positive definite matrix, validated at construction."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        object.__setattr__(self, "entries", a)
        scale = np.abs(a).max()
        if not scale < np.inf:  # NaN too, which would pass every check below and give a NaN Cholesky factor
            raise ValueError("matrix has non-finite entries")
        if scale > 0 and np.abs(a - a.T).max() > 1e-12 * scale:
            raise ValueError("matrix is not symmetric")
        # Positive definiteness: raises LinAlgError if any pivot is <= 0.
        self.cholesky

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def cholesky(self) -> np.ndarray:
        """Lower-triangular factor L with L @ L.T == entries."""
        return np.linalg.cholesky(self.entries)


def make_orthonormal_basis(rng: RngStream, d: int) -> np.ndarray:
    """Draw a uniformly distributed (Haar) orthonormal basis of R^d.

    QR-factorizes a standard Gaussian matrix and multiplies each column of Q
    by the sign of the matching diagonal entry of R.  The sign correction
    removes the factorization's sign ambiguity, which would otherwise bias
    the distribution away from Haar.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    a = rng.generator().standard_normal((d, d))
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def make_covariance(rng: RngStream, d: int, lambda_min: float) -> SpdMatrix:
    """Build the covariance Q diag(eigenvalues) Q^T of a prescribed spectrum.

    Eigenvalues are linearly spaced over ``[lambda_min, 1]`` (both endpoints
    included for d >= 2); the eigenvectors Q are a random orthonormal basis
    drawn from ``rng``.
    """
    if d < 1:
        raise ValueError(f"dim must be >= 1, got {d}")
    if not 0 < lambda_min <= 1:
        raise ValueError(f"lambda_min must lie in (0, 1], got {lambda_min}")
    eigenvalues = np.linspace(lambda_min, 1.0, d)
    q = make_orthonormal_basis(rng, d)
    sigma = (q * eigenvalues) @ q.T
    # Products of floats are symmetric only up to round-off; make it exact.
    sigma = (sigma + sigma.T) / 2
    return SpdMatrix(sigma)


def sample_gaussian(rng: RngStream, mu: np.ndarray, sigma: SpdMatrix, count: int) -> np.ndarray:
    """Draw ``count`` i.i.d. rows from N(mu, sigma) via the Cholesky factor, one :func:`_row_blocks` block at a time."""
    mu = np.asarray(mu, dtype=float)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if mu.shape != (sigma.dim,):
        raise ValueError(f"mu has shape {mu.shape}, expected ({sigma.dim},)")
    x = np.empty((count, sigma.dim))
    for _ in _gaussian_blocks(rng, mu, sigma, count, lambda lo, hi: x[lo:hi]):
        pass
    return x


def _gaussian_blocks(rng: RngStream, mu: np.ndarray, sigma: SpdMatrix, count: int, into):
    """Draw the rows of ``sample_gaussian(rng, mu, sigma, count)``, one :func:`_row_blocks` block at a time.

    Each block is written in place into ``into(lo, hi)``, an array of its hi - lo rows, and its (lo, hi) is yielded
    once written.  A block is drawn only when the next one is asked for, so ``into`` may hand out arrays made between
    blocks.  The arguments are not checked.
    """
    g = rng.generator()
    for lo, hi in _row_blocks(count):
        out = into(lo, hi)
        np.matmul(g.standard_normal((hi - lo, sigma.dim)), sigma.cholesky.T, out=out)
        out += mu
        del out  # so a paused draw holds no view of the array the block went into
        yield lo, hi


def sample_ground_truth(rng: RngStream, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw model parameters: weights from N(0, 10 I), mean uniform on [-5, 5]^d.

    The weight vector is drawn first, then the mean, from the same stream.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    g = rng.generator()
    beta = g.standard_normal(d) * np.sqrt(10.0)
    mu = g.uniform(-5.0, 5.0, size=d)
    return beta, mu
