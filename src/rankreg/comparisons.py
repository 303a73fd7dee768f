"""Comparison-label models and synthetic comparison datasets.

A link function maps the score difference of two samples to the probability
that the first wins the comparison.  The logistic link gives Bradley-Terry
label noise, and the deterministic link is its zero-noise limit, where labels
follow the sign of the score difference and exact ties are fair coin flips.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import shutil
import stat
import tempfile
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .randomness import _BLOCK_ROWS, RngStream, SpdMatrix, _row_blocks, sample_gaussian

def _expit(x):
    """1 / (1 + exp(-x)) in one fresh float array, a scalar for a scalar; exactly 0 where exp(-x) overflows."""
    x = np.negative(x, out=np.empty(np.shape(x)))
    with np.errstate(over="ignore"):
        np.exp(x, out=x)
    x += 1.0
    return np.divide(1.0, x, out=x)[()]


@dataclass(frozen=True)
class LogisticLink:
    """P(win) = 1 / (1 + exp(-slope * x))."""

    slope: float = 1.0

    def __post_init__(self):
        if not 0 < self.slope < np.inf:
            raise ValueError(f"slope must be finite and > 0, got {self.slope}")

    def prob(self, x):
        return _expit(self.slope * np.asarray(x, dtype=float))

    def derivative(self, x):
        # slope * f * (1 - f) in closed form; no cancellation at large |x|.
        p = self.prob(x)
        return self.slope * p * (1.0 - p)


@dataclass(frozen=True)
class DeterministicLink:
    """Noiseless limit: P(win) is 1, 0, or 1/2 by the sign of the score difference."""

    def prob(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, 1.0, np.where(x < 0, 0.0, 0.5))


LinkFunction = Union[LogisticLink, DeterministicLink]


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Ground-truth generative model for features and comparison labels; d is the dimension of ``sigma``."""

    beta: np.ndarray
    mu: np.ndarray
    sigma: SpdMatrix
    link: LinkFunction

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=float))
        for name in ("beta", "mu"):
            v = getattr(self, name)
            if v.shape != (self.d,):
                raise ValueError(f"{name} has shape {v.shape}, expected ({self.d},)")

    @property
    def d(self) -> int:
        return self.sigma.dim


@dataclass(frozen=True, eq=False)
class SampleSet:
    """2N feature rows: rows 0..N-1 feed comparisons, rows N..2N-1 feed covariance."""

    features: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.features, dtype=float)
        object.__setattr__(self, "features", f)
        if f.ndim != 2 or not len(f) or len(f) % 2:
            raise ValueError(f"features must have an even, positive number of rows, got shape {f.shape}")

    @property
    def n(self) -> int:
        return len(self.features) // 2

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
    """M comparison triples (i, j, y) with 0-based indices into the comparison half, checked once, as it is made.

    A dataset iterates as (i, j, y) views of its rows split by ``_row_blocks(m)``, not copies and not checked again,
    which is how :func:`estimate_beta` reads it.
    """

    n: int
    i: np.ndarray
    j: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        for name in "ijy":
            v = np.asarray(getattr(self, name))
            with np.errstate(invalid="ignore"):  # NaN and out-of-range values fail the comparison below
                c = v.astype(np.int64, copy=False)
            if v.dtype.kind != "i" and not np.array_equal(c, v):  # a signed integer keeps its value in int64
                raise ValueError(f"{name} contains values that are not 64-bit integers")
            object.__setattr__(self, name, c)
        i, j, y = self.i, self.j, self.y
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not (i.ndim == j.ndim == y.ndim == 1 and len(i) == len(j) == len(y) >= 1):
            raise ValueError("i, j, y must be 1-d arrays of equal positive length")
        for name, idx in (("i", i), ("j", j)):
            if idx.min() < 0 or idx.max() >= self.n:
                raise ValueError(f"{name} contains indices outside [0, {self.n})")
        if y.min() < -1 or y.max() > 1 or np.count_nonzero(y) < len(y):
            raise ValueError("labels must be -1 or +1")

    @property
    def m(self) -> int:
        return len(self.y)

    def __iter__(self):
        for lo, hi in _row_blocks(self.m):
            yield self.i[lo:hi], self.j[lo:hi], self.y[lo:hi]


def generate_samples(rng: RngStream, spec: ModelSpec, n: int) -> SampleSet:
    """Draw 2n i.i.d. feature rows from the model's Gaussian."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return SampleSet(sample_gaussian(rng, spec.mu, spec.sigma, 2 * n))


def generate_comparisons(
    rng: RngStream, spec: ModelSpec, samples: SampleSet, m: int
) -> ComparisonDataset:
    """Draw m comparisons: pairs uniform over the comparison half, labels from the link.

    Both pair indices are drawn independently, so self-pairs occur; their win probability is exactly 1/2 under
    every link.  The comparisons are the blocks of :class:`_Drawn`, gathered into one dataset, which checks them.
    """
    drawn = _Drawn(rng, spec, samples, m)  # checks m before anything is allocated
    i, j, y = np.empty((3, m), np.int64)
    for (lo, hi), block in zip(_row_blocks(m), drawn):
        i[lo:hi], j[lo:hi], y[lo:hi] = block
    return ComparisonDataset(samples.n, i, j, y)


class _Drawn:
    """The m comparisons drawn from ``rng``, with a dataset's ``n``, ``m`` and (i, j, y) blocks of ``_row_blocks(m)``.

    The split is part of the stream.  Draw order is fixed, so results are reproducible per stream: block by block,
    the block's indices i as one draw of bounded integers, then its j as another, then its label uniforms, all from
    one generator made at the start of each iteration, so every iteration draws the same blocks.  Nothing is drawn
    before the first block is asked for.  The blocks are not checked: the indices are drawn in [0, n) and
    :func:`_labels` makes only ±1.  Labels are not kept here: a block its consumer dropped keeps only i and j, until
    the next block's are drawn.
    """

    def __init__(self, rng: RngStream, spec: ModelSpec, samples: SampleSet, m: int):
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        self.rng, self.spec, self.samples, self.n, self.m = rng, spec, samples, samples.n, m

    def __iter__(self):
        g, n = self.rng.generator(), self.n
        scores = self.samples.comparison_half @ self.spec.beta
        for lo, hi in _row_blocks(self.m):
            i, j = g.integers(0, n, size=hi - lo), g.integers(0, n, size=hi - lo)
            yield i, j, _labels(self.spec.link, scores[i], scores[j], g.random(hi - lo))


def _labels(link: LinkFunction, si: np.ndarray, sj: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.where(u < link.prob(si - sj), 1, -1)`` bit for bit, int64 ±1, for uniforms ``u`` in [0, 1).

    The sign link compares the scores, as si - sj > 0 exactly where si > sj; where neither is below the other (ties,
    +0.0 against -0.0 too, and NaN) u < 1/2 decides.  The logistic link's ``prob`` is _expit(slope * (si - sj)); the
    product is made here in one array, as ``link.prob(si - sj)`` would add two block-sized temporaries.
    """
    if isinstance(link, DeterministicLink):
        c = (si > sj) | (~(si < sj) & (u < 0.5))
    else:
        x = si - sj
        x *= link.slope
        c = u < _expit(x)
    return c.astype(np.int64) * 2 - 1


def flip_fraction(dataset: ComparisonDataset, spec: ModelSpec, samples: SampleSet) -> float:
    """Fraction of labels disagreeing with the sign of the true score difference s = s_i - s_j; NaN if an s is NaN.

    ``dataset`` is read as by :func:`estimate_beta`, one (i, j, y) block at a time.  An exact tie (a self-pair too) has
    no true winner and counts as half a flip, so with sign(0) = 0 the fraction is (m - Σ y sign(s)) / 2m, exactly.
    """
    if dataset.n != samples.n:
        raise ValueError(f"dataset indexes {dataset.n} rows but samples provide {samples.n}")
    scores = samples.comparison_half @ spec.beta
    agreement = sum(itertools.starmap(lambda i, j, y: float(np.sign(scores[i] - scores[j]) @ y), dataset))
    return (dataset.m - agreement) / (2 * dataset.m)


# ---------------------------------------------------------------------------
# CSV serialization: every table goes through _write_csv and _read_csv.


_FLOAT_BATCH = 3072  # values per _float_lines call: its 40 B-per-value temporaries stay under glibc's 128 KiB mmap


def _names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}_{k + 1}" for k in range(count)]


def _cpu_count() -> int:
    """CPUs this process may run on, or 1 where it cannot fork or tell."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


# Shortest round-trip digits by Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020), a whole array
# at a time: for a finite x, the fewest decimal digits that read back as x, the closest to x of those when several
# do, ties to even.  That is the digit string of repr(x).  The names follow the paper's Java code, DoubleToDecimal,
# less the two digits that Java's Double.toString writes at least: repr writes 5e-324 where Java writes 4.9E-324.


def _g(k: int) -> int:
    """floor(10**-k / 2**r) + 1 with r such that the result is in [2**125, 2**126)."""
    r = (-k * 913124641741 >> 38) - 125  # floor(log2(10**-k)) - 125
    return (10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1


_G1, _G0 = (np.array(words, np.uint64) for words in zip(*(divmod(_g(k), 1 << 63) for k in range(-324, 293))))
_POW10 = np.array([10**p for p in range(18)], np.uint64)
_LOW32, _LOW63 = np.uint64((1 << 32) - 1), np.uint64((1 << 63) - 1)


def _rop(g1, g0, cp):
    """cp * (g1 * 2**63 + g0) / 2**127 rounded to odd, as uint64 arrays; cp < 2**60."""
    cl, ch = cp & _LOW32, cp >> np.uint64(32)

    def high(a):  # the high word of a * cp from 32-bit halves; the middle sum cannot wrap, as a < 2**63
        ah, al = a >> np.uint64(32), a & _LOW32
        return ah * ch + (((al * cl) >> np.uint64(32)) + ah * cl + al * ch >> np.uint64(32))

    z = ((g1 * cp) >> np.uint64(1)) + high(g0)
    return (high(g1) + (z >> np.uint64(63))) | (((z & _LOW63) + _LOW63) >> np.uint64(63))


def _shortest(x):
    """(digits, exp10) with |x| = digits * 10**exp10 the decimal that repr writes, for each finite nonzero x."""
    one, two, ten = np.uint64(1), np.uint64(2), np.uint64(10)
    bits = x.view(np.uint64)
    biased, t = (bits >> np.uint64(52)) & np.uint64(0x7FF), bits & np.uint64((1 << 52) - 1)
    c = np.where(biased > 0, t | np.uint64(1 << 52), t)
    q = np.maximum(biased, 1).astype(np.int64) - 1075  # |x| = c * 2**q
    irregular = (t == 0) & (biased > 1)  # a power of two: the gap below is half the gap above
    k = (q * 661971961083 - irregular * 274743187321) >> 41  # floor(log10(2**q)), or of 3/4 * 2**q if irregular
    h = (q + (-k * 913124641741 >> 38) + 2).astype(np.uint64)  # 2..5, so every cp below is under 2**60
    g1, g0, cb, out = _G1[k + 324], _G0[k + 324], c << two, c & one  # an odd c excludes the interval's ends
    vb = _rop(g1, g0, cb << h)
    vbl = _rop(g1, g0, (cb - two + irregular) << h) + out
    vbr = _rop(g1, g0, (cb + two) << h) - out
    s = vb >> two
    s10 = s // ten * ten
    up, wp = vbl <= s10 << two, (s10 + ten) << two <= vbr  # one digit fewer if one of these is in the interval
    u, w = vbl <= s << two, (s + one) << two <= vbr
    nearer = (vb < (s << two) + two) | ((vb == (s << two) + two) & (s & one == 0))  # than s + 1, or as near and even
    digits = np.where(u & (~w | nearer), s, s + one)
    return np.where(up | wp, np.where(up, s10, s10 + ten), digits), k


# repr's fixed notation as a selection from one 40-byte line per value, for |x| = 0.d0d1... * 10**point:
#   "-"  "0." "000"  d0 "." d1 "." ... d15 "." d16  ","
# The sign goes with x.  A value keeps "0." and -point of the "000" if point <= 0, d0 to d_last or to d_point if that
# is further (an integral value ends ".0"), the "." after d_(point-1), and the separator.  repr uses this layout for
# -3 <= point <= 16 (1e-4 <= |x| < 1e16); every other value, nan, inf or in scientific notation, repr writes itself.
_LAYOUT = np.frombuffer(b"-0.000" + b"0." * 16 + b"0,", np.uint8)


def _keep_table() -> np.ndarray:
    """_keep_table()[point + 3, last]: the columns of _LAYOUT that a value keeps, but for its sign."""
    column, point, last = np.arange(40), np.arange(-3, 17)[:, None, None], np.arange(17)[:, None]
    digit = (column - 6) // 2
    return np.select(
        [column == 0, column < 3, column < 6, column == 39, column % 2 == 0],
        [False, point <= 0, column - 2 <= -point, True, digit <= np.maximum(last, point)],
        digit + 1 == point,
    )


_KEEP = _keep_table()


def _float_lines(block: np.ndarray) -> bytes:
    """The CSV lines of a 2-d float64 array, each value as repr writes it; repr itself writes all but fixed notation."""
    x = np.ascontiguousarray(block).ravel()  # in row order whatever the memory order; .view needs contiguity
    digits, exp10 = _shortest(x)
    digits[x == 0] = 0
    size = np.searchsorted(_POW10, digits, "right")  # how many digits, 0 for 0
    point = np.where(x == 0, 1, size + exp10)  # 0.0 as 0.0 * 10**1
    d = digits * _POW10[17 - size]  # the digits left-aligned in 17 places
    columns = np.empty((17, len(x)), np.uint8)
    for p in range(16, -1, -1):
        q = d // np.uint64(10)
        columns[p] = d - q * np.uint64(10)
        d = q
    last = (np.arange(17, dtype=np.uint8)[:, None] * (columns != 0)).max(0)
    fixed = np.isfinite(x) & (point >= -3) & (point <= 16)
    keep = _KEEP[np.where(fixed, point, 1) + 3, last]  # any row for the rest: repr's bytes replace theirs below
    keep[:, 0] = np.signbit(x)
    text = np.empty((len(x), 40), np.uint8)
    text[:] = _LAYOUT
    text[:, 6:39:2] = columns.T + ord("0")
    text[block.shape[1] - 1 :: block.shape[1], 39] = ord("\n")
    slow = np.flatnonzero(~fixed)
    reprs = [repr(value).encode() for value in x[slow].tolist()]
    text[slow, :39] = np.array(reprs, "S39")[:, None].view(np.uint8)
    keep[slow, :39] = np.arange(39) < np.array([len(r) for r in reprs], int)[:, None]
    return np.compress(keep.ravel(), text.ravel()).tobytes()


def _write_rows(f, rows, width: int, start: int, stop: int) -> None:
    line = ",".join(["%s"] * width) + "\n"  # %s writes str, which for a float is repr: what _float_lines writes
    for lo in range(start, stop, _BLOCK_ROWS):
        block = rows[lo : min(lo + _BLOCK_ROWS, stop)]
        array = isinstance(block, np.ndarray)
        if block.shape[1:] != (width,) if array else any(len(row) != width for row in block):
            # else the flat template would shift fields across rows, or flatten a deeper array
            raise ValueError(f"rows {lo}..{lo + len(block) - 1} are not all {width} fields wide")
        if array and block.dtype == np.float64 and block.size:
            batch = max(1, _FLOAT_BATCH // width)  # small enough for the temporaries to stay in cache
            for k in range(0, len(block), batch):
                f.write(_float_lines(block[k : k + batch]))
        else:
            values = block.ravel().tolist() if array else ["" if v is None else v for row in block for v in row]
            f.write((line * len(block) % tuple(values)).encode())


@contextlib.contextmanager
def _forked(cuts, job):
    """Run ``job(out, lo, hi)`` in a forked child for each range ``cuts[k]..cuts[k + 1]`` but the first; ``out`` is a
    binary ``tempfile.TemporaryFile()`` in the default temporary directory, flushed after the job.  What is yielded
    gives for each range in order the child's file, rewound once the child exited, or None for a range the caller does
    itself: the first, or one whose child exited non-zero (a job that raises exits 1, silently).  All are reaped."""
    outs, pids = [], []  # one temporary file per child; pids not yet reaped, in range order

    def reaped(out):
        _, status = os.waitpid(pids.pop(0), 0)
        out.seek(0)
        return None if status else out

    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            outs.append(tempfile.TemporaryFile())
            # Safe beside numpy's BLAS threads: the child calls no BLAS, takes no lock, and leaves by os._exit without
            # flushing this process's buffers.  Python 3.12.1 and 3.13 warn (DeprecationWarning) at os.fork while any
            # other OS thread exists, one Python did not start too, so numpy's OpenBLAS threads count.  Under
            # -W error::DeprecationWarning the fork still succeeds and prints nothing; -W default or always prints
            # one line per fork.  That was measured with a Python thread; numpy's own threads and pytest's warning
            # capture on 3.12+ are unverified.
            pid = os.fork()
            if pid == 0:
                try:
                    job(outs[-1], lo, hi)
                    outs[-1].flush()
                    os._exit(0)
                finally:
                    os._exit(1)
            pids.append(pid)
        yield itertools.chain([None], map(reaped, outs))
    finally:
        for pid in pids:
            os.waitpid(pid, 0)
        for out in outs:
            out.close()


class _Stage(str):
    """The path of a stage that :func:`_staged` made; its attribute ``given`` is the path its caller gave."""


@contextlib.contextmanager
def _naming(path):
    """Re-raise an OSError that names a :class:`_Stage`, or names no file while ``path`` is not None, as one naming
    the path its caller gave: a stage's ``given``, else ``os.fspath(path)``.  So every error names the path as given,
    never a stage, also a failed read or write, which names no file of itself (EIO, EFBIG, EPIPE, a failed fork)."""
    try:
        yield
    except OSError as exc:
        named = exc.filename if isinstance(exc.filename, _Stage) else path if exc.filename is None else None
        if named is None:
            raise
        given = getattr(named, "given", os.fspath(named))
        raise OSError(exc.errno, exc.strerror, given) if exc.errno else OSError(f"{given}: {exc}") from None


@contextlib.contextmanager
def _staged(*paths):
    """Yield a path to write for each of ``paths``; once the ``with`` block completes, commit each onto its path.

    ``os.stat``, which follows links, decides.  A regular file or a missing path is staged in a new file beside it
    (beside a symlink's final target) with the mode ``open(path, "w")`` would leave, and every stage is renamed
    onto its target only after the block, so a failure while writing leaves each old file or none, and no stage.  A
    FIFO, a device, or a :class:`_Stage` of an enclosing block, which that block commits, is yielded as itself: a rename
    would replace the node, not feed it.  Errors are named by :func:`_naming`, after the path of a one-path block.
    """
    stages, written = {}, []  # stages maps each stage this block made to the file it replaces
    with _naming(paths[0] if len(paths) == 1 else None):
        try:
            for path in paths:
                try:
                    mode = os.stat(path).st_mode
                except FileNotFoundError:
                    mode = None
                stage = path
                if not isinstance(path, _Stage) and (mode is None or stat.S_ISREG(mode)):
                    target = os.path.realpath(path)
                    head, tail = os.path.split(target)
                    stage = _Stage(os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp"))
                    stage.given = os.fspath(path)
                    os.close(os.open(stage, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))  # less umask, as open() does
                    stages[stage] = target
                    if mode is not None:
                        os.chmod(stage, stat.S_IMODE(mode))  # open(path, "w") keeps an existing file's mode
                written.append(stage)
            yield written
            for stage, target in stages.items():
                os.replace(stage, target)
        except BaseException:
            for stage in stages:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(stage)
            raise


def _write_csv(path, header, rows) -> None:
    """Write a header line and ``rows`` (a 2-d array, a sequence of rows, or any sized
    object whose slices are one of these), each ending in "\\n".

    Every row is formatted by one %s template as wide as the header, None as
    an empty field, and a float64 array by :func:`_float_lines`, which writes
    the same bytes; a row or array of another width raises ValueError.  Rows
    are formatted in blocks of ``_BLOCK_ROWS``, so a large array never exists
    in memory as one list of Python numbers or one string.  The table is
    committed whole through :func:`_staged`.

    A table of more than one block is split at block boundaries into one row range per CPU.  This
    process writes the first and :func:`_forked` children the others, appended in order; a row's text
    depends only on the row.  A failed child's range is written again here: bytes and errors are one process's.
    """
    blocks = -(-len(rows) // _BLOCK_ROWS)
    parts = max(1, min(_cpu_count(), blocks))
    cuts = [min(len(rows), k * blocks // parts * _BLOCK_ROWS) for k in range(parts + 1)]

    def write(f, lo, hi):
        _write_rows(f, rows, len(header), lo, hi)

    with _staged(path) as (stage,), _forked(cuts, write) as outs, open(stage, "wb") as f:
        f.write((",".join(header) + "\n").encode())
        for lo, hi, out in zip(cuts, cuts[1:], outs):
            if out is None:
                write(f, lo, hi)
            else:
                shutil.copyfileobj(out, f)


def _read_csv(path, header, dtype) -> np.ndarray:
    """Read the rows of a CSV into a 2-d array of ``dtype``, one column per header name.

    ``header(width)`` gives the exact header expected of a file whose first line
    has ``width`` fields.  A wrong header, a blank line, a row of another width,
    a field that does not parse as ``dtype`` and, for floats, NaN or an infinity
    raise ValueError naming the file and line.

    The body is split after a "\\n" into byte ranges about equal in size, one per CPU and at most one per
    ``_BLOCK_ROWS`` lines, that this process (the first) and :func:`_forked` children parse, each from exactly its
    own bytes, a failed child's range here again.  If a range does not parse or has a row count other than its "\\n"
    count, the body is parsed again line by line here, which finds and names the offending line.  All of it is read
    from the one file opened for the header, so a table replaced meanwhile is read as it was when opened.
    """
    lineno = 1

    def body(f):
        nonlocal lineno
        for lineno, line in enumerate(f, start=2):
            if line.isspace():
                raise ValueError("blank line")
            yield line

    def parse(lo, hi):  # by position, as forked children share the file offset; Linux reads <= 0x7ffff000 B a call
        text = b""
        while len(text) < hi - lo and (more := pread(hi - lo - len(text), lo + len(text))):
            text += more
        rows = np.loadtxt(io.TextIOWrapper(io.BytesIO(text)), dtype=dtype, delimiter=",", comments=None, ndmin=2)
        if len(rows) != text.count(b"\n"):  # loadtxt skips blank lines
            raise ValueError
        return rows

    def pread(size, at):
        if hasattr(os, "pread"):
            return os.pread(fb.fileno(), size, at)
        fb.seek(at)  # where os has no pread it has no fork either: no child shares the offset
        return fb.read(size)

    with _naming(path), open(path) as f, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an empty body is the caller's to judge
        names = f.readline().rstrip("\n").split(",")
        expected = header(len(names))
        if names != expected:
            raise ValueError(f"{path}:1: expected header {','.join(expected)}, got {','.join(names)!r}")
        offset, fb = None, f.buffer
        try:  # f.tell() is the body's byte offset, or on a pipe raises, or after a lone "\r" is too large to seek to
            offset = f.tell()
            start = fb.seek(offset)
            block = sum(len(line) for _, line in zip(range(_BLOCK_ROWS), fb))  # bytes in the first block of lines
            size = fb.seek(0, os.SEEK_END) - start
            parts = min(_cpu_count(), -(-size // block)) if block else 1
            cuts = [start] + [fb.seek(start + k * size // parts) + len(fb.readline()) for k in range(1, parts + 1)]
            with _forked(cuts, lambda out, lo, hi: np.save(out, parse(lo, hi))) as outs:
                ranges = zip(cuts, cuts[1:], outs)
                rows = np.concatenate([parse(lo, hi) if out is None else np.load(out) for lo, hi, out in ranges])
        except (ValueError, OSError):  # a bad range, also one a child failed on, or a pipe's f.tell()
            if offset is not None:
                f.seek(offset)  # the ranges moved the offset under f's buffer
            try:
                rows = np.loadtxt(body(f), dtype=dtype, delimiter=",", comments=None, ndmin=2)
            except ValueError as exc:
                # numpy's own "at row ..." counts body rows from another origin
                raise ValueError(f"{path}:{lineno}: {str(exc).partition(' at row ')[0]}") from exc
    if not rows.size:
        return rows.reshape(0, len(names))
    if rows.shape[1] != len(names):
        raise ValueError(f"{path}:2: expected {len(names)} fields, got {rows.shape[1]}")
    if rows.dtype.kind == "f" and not np.isfinite(rows).all():
        raise ValueError(f"{path}:{np.isfinite(rows).all(axis=1).argmin() + 2}: value is not finite")
    return rows


def write_samples_csv(samples: SampleSet, path) -> None:
    """Write all 2N rows with header x_1,...,x_d, comparison half first."""
    _write_csv(path, _names("x", samples.d), samples.features)


def read_samples_csv(path) -> SampleSet:
    rows = _read_csv(path, lambda width: _names("x", width), float)
    if not len(rows) or len(rows) % 2 != 0:
        raise ValueError(f"{path}: expected an even, positive number of sample rows, got {len(rows)}")
    return SampleSet(rows)


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
    rows = _read_csv(path, lambda width: ["i", "j", "y"], np.int64)
    if not len(rows):
        raise ValueError(f"{path}: no comparison rows")
    rows[:, :2] -= 1  # 0-based in place; an index of -2**63 wraps to 2**63 - 1, outside [0, n) all the same
    try:
        return ComparisonDataset(n, *rows.T)  # views of the one table, checked once, by the dataset
    except ValueError:  # only a rejected table is searched again, for its first bad line
        i, j, y = rows.T
        bad_index = (np.minimum(i, j) < 0) | (np.maximum(i, j) >= n)
        row = (bad_index | (np.abs(y) != 1)).argmax()
        if bad_index[row]:
            raise ValueError(f"{path}:{row + 2}: index outside [1, {n}]") from None
        raise ValueError(f"{path}:{row + 2}: label must be -1 or 1, got {y[row]}") from None
