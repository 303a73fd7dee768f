"""Comparison-label models and synthetic comparison datasets.

A link function maps the score difference of two samples to the probability
that the first wins the comparison.  The logistic link gives Bradley-Terry
label noise, the probit link gives Thurstone noise, and the deterministic
link is the zero-noise limit where labels follow the sign of the score
difference and exact ties are fair coin flips.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import erf, expit

from .randomness import RngStream, SpdMatrix, sample_gaussian


@dataclass(frozen=True)
class LogisticLink:
    """P(win) = 1 / (1 + exp(-slope * x))."""

    slope: float = 1.0

    def __post_init__(self):
        if not 0 < self.slope < np.inf:
            raise ValueError(f"slope must be finite and > 0, got {self.slope}")

    def prob(self, x):
        return expit(self.slope * np.asarray(x, dtype=float))

    def derivative(self, x):
        # slope * f * (1 - f) in closed form; no cancellation at large |x|.
        p = self.prob(x)
        return self.slope * p * (1.0 - p)


@dataclass(frozen=True)
class ProbitLink:
    """P(win) = (1 + erf(scale * x)) / 2."""

    scale: float = 1.0

    def __post_init__(self):
        if not 0 < self.scale < np.inf:
            raise ValueError(f"scale must be finite and > 0, got {self.scale}")

    def prob(self, x):
        return 0.5 * (1.0 + erf(self.scale * np.asarray(x, dtype=float)))

    def derivative(self, x):
        t = self.scale * np.asarray(x, dtype=float)
        return self.scale * np.exp(-t * t) / np.sqrt(np.pi)


@dataclass(frozen=True)
class DeterministicLink:
    """Noiseless limit: P(win) is 1, 0, or 1/2 by the sign of the score difference."""

    def prob(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, 1.0, np.where(x < 0, 0.0, 0.5))


LinkFunction = Union[LogisticLink, ProbitLink, DeterministicLink]


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Ground-truth generative model for features and comparison labels."""

    d: int
    beta: np.ndarray
    mu: np.ndarray
    sigma: SpdMatrix
    link: LinkFunction

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=float))
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        for name in ("beta", "mu"):
            v = getattr(self, name)
            if v.shape != (self.d,):
                raise ValueError(f"{name} has shape {v.shape}, expected ({self.d},)")
        if self.sigma.dim != self.d:
            raise ValueError(f"sigma has dim {self.sigma.dim}, expected {self.d}")


@dataclass(frozen=True, eq=False)
class SampleSet:
    """2N feature rows: rows 0..N-1 feed comparisons, rows N..2N-1 feed covariance."""

    n: int
    features: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.features, dtype=float)
        object.__setattr__(self, "features", f)
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if f.ndim != 2 or f.shape[0] != 2 * self.n:
            raise ValueError(f"features must have exactly {2 * self.n} rows, got shape {f.shape}")

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def comparison_half(self) -> np.ndarray:
        return self.features[: self.n]

    @property
    def covariance_half(self) -> np.ndarray:
        return self.features[self.n :]


@dataclass(frozen=True, eq=False)
class ComparisonDataset:
    """M comparison triples (i, j, y) with 0-based indices into the comparison half."""

    n: int
    i: np.ndarray
    j: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        i = np.asarray(self.i, dtype=np.int64)
        j = np.asarray(self.j, dtype=np.int64)
        y = np.asarray(self.y, dtype=np.int64)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "y", y)
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not (i.ndim == j.ndim == y.ndim == 1 and len(i) == len(j) == len(y) >= 1):
            raise ValueError("i, j, y must be 1-d arrays of equal positive length")
        for name, idx in (("i", i), ("j", j)):
            if idx.min() < 0 or idx.max() >= self.n:
                raise ValueError(f"{name} contains indices outside [0, {self.n})")
        if not (np.abs(y) == 1).all():
            raise ValueError("labels must be -1 or +1")

    @property
    def m(self) -> int:
        return len(self.y)


def generate_samples(rng: RngStream, spec: ModelSpec, n: int) -> SampleSet:
    """Draw 2n i.i.d. feature rows from the model's Gaussian."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return SampleSet(n, sample_gaussian(rng, spec.mu, spec.sigma, 2 * n))


def generate_comparisons(
    rng: RngStream, spec: ModelSpec, samples: SampleSet, m: int
) -> ComparisonDataset:
    """Draw m comparisons: pairs uniform over the comparison half, labels from the link.

    Both pair indices are drawn independently, so self-pairs occur; their win
    probability is exactly 1/2 under every link.  Draw order (i, then j, then
    the label uniforms) is fixed so results are reproducible per stream.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    g = rng.generator()
    i = g.integers(0, samples.n, size=m)
    j = g.integers(0, samples.n, size=m)
    u = g.random(size=m)
    scores = samples.comparison_half @ spec.beta
    p_win = spec.link.prob(scores[i] - scores[j])
    y = np.where(u < p_win, 1, -1)
    return ComparisonDataset(samples.n, i, j, y)


def flip_fraction(dataset: ComparisonDataset, spec: ModelSpec, samples: SampleSet) -> float:
    """Fraction of labels disagreeing with the sign of the true score difference.

    Exact score ties (self-pairs included) have no true winner and count as
    half a flip each.
    """
    scores = samples.comparison_half @ spec.beta
    s = scores[dataset.i] - scores[dataset.j]
    flipped = np.where(
        s == 0, 0.5, ((s > 0) & (dataset.y == -1)) | ((s < 0) & (dataset.y == 1))
    )
    return float(flipped.mean())


# ---------------------------------------------------------------------------
# CSV serialization: every table goes through _write_csv and _read_csv.


class CsvFormatError(ValueError):
    """A CSV file does not match its expected schema; message carries file and line."""


_BLOCK_ROWS = 1 << 13


def _names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}_{k + 1}" for k in range(count)]


def _field(value) -> str:
    # str of a Python float is its repr, the shortest text that round-trips exactly
    return "" if value is None else str(value)


def _write_csv(path, header, rows) -> None:
    """Write a header line and ``rows`` (a 2-d array, a sequence of rows, or any sized
    object whose slices are one of these), each ending in "\\n".

    None is written as an empty field.  Rows are formatted in blocks, so a large
    array never exists in memory as one list of Python numbers or one string.
    An array block is formatted by one %-template: %r of a Python int or float
    is the same text as its str.
    """
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, len(rows), _BLOCK_ROWS):
            block = rows[start : start + _BLOCK_ROWS]
            if isinstance(block, np.ndarray):
                line = ",".join(["%r"] * block.shape[1]) + "\n"
                f.write(line * len(block) % tuple(block.ravel().tolist()))
            else:
                f.write("".join(",".join(map(_field, row)) + "\n" for row in block))


def _read_csv(path, header, dtype) -> np.ndarray:
    """Read the rows of a CSV into a 2-d array of ``dtype``, one column per header name.

    ``header(width)`` gives the exact header expected of a file whose first line
    has ``width`` fields.  A wrong header, a blank line, a row of another width,
    a field that does not parse as ``dtype`` and, for floats, NaN or an infinity
    raise :class:`CsvFormatError` naming the file and line.
    """
    lineno = 1

    def body(f):
        nonlocal lineno
        for lineno, line in enumerate(f, start=2):
            if line.isspace():
                raise CsvFormatError(f"{path}:{lineno}: blank line")
            yield line

    with open(path) as f:
        names = f.readline().rstrip("\n").split(",")
        expected = header(len(names))
        if names != expected:
            raise CsvFormatError(f"{path}:1: expected header {','.join(expected)}, got {','.join(names)!r}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # an empty body is the caller's to judge
                # the open file, not its text: loadtxt then holds only the parsed array
                rows = np.loadtxt(body(f), dtype=dtype, delimiter=",", comments=None, ndmin=2)
        except CsvFormatError:
            raise
        except ValueError as exc:
            raise CsvFormatError(f"{path}:{lineno}: {exc}") from exc
    if not rows.size:
        return rows.reshape(0, len(names))
    if rows.shape[1] != len(names):
        raise CsvFormatError(f"{path}:2: expected {len(names)} fields, got {rows.shape[1]}")
    if rows.dtype.kind == "f" and not np.isfinite(rows).all():
        raise CsvFormatError(f"{path}:{np.isfinite(rows).all(axis=1).argmin() + 2}: value is not finite")
    return rows


def write_samples_csv(samples: SampleSet, path) -> None:
    """Write all 2N rows with header x_1,...,x_d, comparison half first."""
    _write_csv(path, _names("x", samples.d), samples.features)


def read_samples_csv(path) -> SampleSet:
    rows = _read_csv(path, lambda width: _names("x", width), float)
    if not len(rows) or len(rows) % 2 != 0:
        raise CsvFormatError(f"{path}: expected an even, positive number of sample rows, got {len(rows)}")
    return SampleSet(len(rows) // 2, rows)


class _OneBasedTriples:
    """The rows (i + 1, j + 1, y) of a dataset, stacked only one slice at a time."""

    def __init__(self, dataset: ComparisonDataset):
        self.i, self.j, self.y = dataset.i, dataset.j, dataset.y

    def __len__(self) -> int:
        return len(self.y)

    def __getitem__(self, rows: slice) -> np.ndarray:
        return np.column_stack((self.i[rows] + 1, self.j[rows] + 1, self.y[rows]))


def write_comparisons_csv(dataset: ComparisonDataset, path) -> None:
    """Write triples with header i,j,y; indices are 1-based on disk."""
    _write_csv(path, ["i", "j", "y"], _OneBasedTriples(dataset))


def read_comparisons_csv(path, n: int) -> ComparisonDataset:
    """Read triples written by :func:`write_comparisons_csv` for a size-n comparison half."""
    i, j, y = _read_csv(path, lambda width: ["i", "j", "y"], np.int64).T
    if not len(y):
        raise CsvFormatError(f"{path}: no comparison rows")
    bad_index = (np.minimum(i, j) < 1) | (np.maximum(i, j) > n)
    bad_label = np.abs(y) != 1
    row = (bad_index | bad_label).argmax()
    if bad_index[row]:
        raise CsvFormatError(f"{path}:{row + 2}: index outside [1, {n}]")
    if bad_label[row]:
        raise CsvFormatError(f"{path}:{row + 2}: label must be -1 or 1, got {y[row]}")
    return ComparisonDataset(n, i - 1, j - 1, y)
