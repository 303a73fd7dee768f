"""Deterministic parameter sweeps over the full generate/estimate pipeline.

A sweep runs repeated trials over a grid of one swept parameter.  Every
trial derives its own random stream from the trial's defining parameters
and repetition index alone, so a trial's result never depends on which
other grid points run around it, and sweeps over the dataset sizes n and m
reuse the same ground truths and features per repetition (paired
comparisons across the grid).  Such a sweep realizes each repetition's
model once and reuses it at every grid point.  ``find_min_n`` runs an
n-sweep only until its mean angle clears a threshold; a ``min-n`` config is
read as such an n-sweep, by the same key=value parser as a ``sweep`` config.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import astuple, dataclass, replace
from typing import Optional

import numpy as np

from .calibration import ScoreDifferenceLaw, estimate_c1, solve_alpha_for_pe
from .comparisons import (
    DeterministicLink,
    LogisticLink,
    ModelSpec,
    _Drawn,
    _naming,
    _staged,
    _write_csv,
    generate_comparisons,
    generate_samples,
)
from .estimator import _covariance, _label_weights, _solve, angle, norm_error
from .randomness import RngStream, _gaussian_blocks, _mix, make_covariance, sample_ground_truth

SWEEPABLE = ("n", "m", "d", "lambda_min")
M_RULES = ("fixed", "n_log_n")


class TrialExecutionError(RuntimeError):
    """A trial failed; carries the config and repetition that produced it."""

    def __init__(self, config: "TrialConfig", repetition_index: int, cause: BaseException):
        super().__init__(f"trial failed for {config} (repetition {repetition_index}): {cause}")
        self.config = config
        self.repetition_index = repetition_index


def m_from_n(n: int) -> int:
    """The comparison budget rule m = ceil(n ln n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return math.ceil(n * math.log(n))


@dataclass(frozen=True)
class TrialConfig:
    d: int
    n: int
    m: int
    lambda_min: float
    target_pe: float
    repetitions: int = 10
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "lambda_min", float(self.lambda_min))
        object.__setattr__(self, "target_pe", float(self.target_pe))
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.n <= self.d + 2:
            raise ValueError(f"n must exceed d + 2 = {self.d + 2}, got {self.n}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not 0 < self.lambda_min <= 1:
            raise ValueError(f"lambda_min must lie in (0, 1], got {self.lambda_min}")
        if not 0 <= self.target_pe < 0.5:
            raise ValueError(f"target_pe must lie in [0, 1/2), got {self.target_pe}")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must fit in an unsigned 64-bit integer, got {self.master_seed}")


@dataclass(frozen=True)
class SweepSpec:
    """Trials at ``base`` with ``swept_parameter`` set to each grid value in turn.

    Under m_rule ``fixed`` every grid point keeps ``base.m`` (an m-sweep takes its m from the grid).
    Under ``n_log_n``, ``base.m`` is replaced by ceil(n ln n) at every grid point.
    """

    base: TrialConfig
    swept_parameter: str
    grid: tuple
    m_rule: str

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(self.grid))
        if self.swept_parameter not in SWEEPABLE:
            raise ValueError(f"swept_parameter must be one of {SWEEPABLE}, got {self.swept_parameter!r}")
        if self.m_rule not in M_RULES:
            raise ValueError(f"m_rule must be one of {M_RULES}, got {self.m_rule!r}")
        if self.swept_parameter == "m" and self.m_rule == "n_log_n":
            raise ValueError("an m-sweep fixes m per grid point; m_rule n_log_n would override it")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError(f"grid must be strictly increasing, got {self.grid}")
        self.configs()  # every grid point must yield a valid TrialConfig

    def configs(self) -> list[TrialConfig]:
        configs = [replace(self.base, **{self.swept_parameter: value}) for value in self.grid]
        return configs if self.m_rule == "fixed" else [replace(cfg, m=m_from_n(cfg.n)) for cfg in configs]


@dataclass(frozen=True)
class TrialResult:
    config: TrialConfig
    repetition_index: int
    norm_error: Optional[float]
    angle: float
    c1_used: Optional[float]
    wall_time_seconds: float


@dataclass(frozen=True)
class TrialFailure:
    config: TrialConfig
    repetition_index: int
    message: str


@dataclass(frozen=True)
class GridAggregate:
    grid_value: float
    norm_error_mean: Optional[float]
    norm_error_std: Optional[float]
    angle_mean: Optional[float]
    angle_std: Optional[float]
    count: int


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    aggregates: tuple


def trial_stream(config: TrialConfig, repetition_index: int) -> RngStream:
    """Random stream for one trial.

    Keyed by (master_seed, d, lambda_min, repetition) only: the dataset sizes
    are excluded on purpose, so sweeps over n or m see the same ground truths
    and feature draws per repetition and differ only in what the swept
    parameter changes.  The noise target is excluded too, so configs that
    differ only in target_pe draw the same ground truth and features.
    """
    return RngStream(config.master_seed, _mix("trial", config.d, float(config.lambda_min), repetition_index))


def realize_model(stream: RngStream, d: int, lambda_min: float, target_pe: float):
    """Draw ground truth and calibrate the link for one trial.

    Returns (model, alpha, c1); alpha and c1 are None for the noiseless
    target_pe = 0, where the sign link is used and c1 is undefined.
    """
    beta, mu = sample_ground_truth(stream.child("ground-truth"), d)
    sigma = make_covariance(stream.child("basis"), d, lambda_min)
    if target_pe == 0:
        return ModelSpec(beta, mu, sigma, DeterministicLink()), None, None
    law = ScoreDifferenceLaw.from_parameters(beta, sigma)
    alpha = solve_alpha_for_pe(target_pe, law)
    link = LogisticLink(alpha)
    return ModelSpec(beta, mu, sigma, link), alpha, estimate_c1(link, law)


def simulate(stream: RngStream, model: ModelSpec, n: int, m: int):
    """(samples, dataset): 2n feature rows, then m labeled comparisons, as ``generate`` draws them.

    The rows come from ``stream.child("features")`` and the comparisons from ``stream.child("comparisons")``.  A trial
    draws the same rows and comparisons and gets the same estimate, but makes neither a sample set nor a dataset: see
    :func:`_trial_estimate`.
    """
    samples = generate_samples(stream.child("features"), model, n)
    return samples, generate_comparisons(stream.child("comparisons"), model, samples, m)


def _trial_estimate(stream: RngStream, model: ModelSpec, n: int, m: int) -> np.ndarray:
    """``estimate_beta(*reversed(simulate(stream, model, n, m)))``, bit for bit, in one (n, d) array of features.

    The 2n feature rows are drawn in place, in the blocks and order of ``generate_samples``.  The comparison half is
    drawn into the array first and the comparisons of ``stream.child("comparisons")`` are summed over it
    (:class:`_Drawn`, never gathered or checked); then the covariance half is drawn into the same array, which gives
    Σ̂ and the solve.  The block that straddles row n (the only block when 2n < 16,384, or the middle one when the
    number of blocks is odd) is drawn whole and its rows are copied into each half in turn.
    """
    rows, offset, straddle = np.empty((n, model.d)), 0, None

    def into(lo, hi):
        nonlocal straddle
        if lo < n < hi:
            straddle = np.empty((hi - lo, model.d))
            return straddle
        return rows[lo - offset : hi - offset]

    blocks = _gaussian_blocks(stream.child("features"), model.mu, model.sigma, 2 * n, into)
    lo, hi = next((lo, hi) for lo, hi in blocks if hi >= n)  # the block holding row n - 1 is the last one drawn
    if straddle is not None:
        rows[lo:] = straddle[: n - lo]
    total = _label_weights(_Drawn(stream.child("comparisons"), model, rows, m)) @ rows
    offset = n
    if straddle is not None:
        rows[: hi - n] = straddle[n - lo :]
        straddle = None
    for _ in blocks:  # the rest of the covariance half
        pass
    return _solve(_covariance(rows), total, m)


def run_trial(config: TrialConfig, repetition_index: int) -> TrialResult:
    """One full generate/estimate pass; any module error is wrapped with the config."""
    return _run_trial(config, repetition_index, realize_model)


def _run_trial(config: TrialConfig, repetition_index: int, realize) -> TrialResult:
    """``run_trial`` that takes its model from ``realize``, called with :func:`realize_model`'s arguments.

    The estimate is :func:`_trial_estimate`'s, which holds the trial's 2n feature rows in one (n, d) array.
    """
    start = time.perf_counter()
    try:
        stream = trial_stream(config, repetition_index)
        model, _, c1 = realize(stream, config.d, config.lambda_min, config.target_pe)
        beta_hat = _trial_estimate(stream, model, config.n, config.m)
        ang = angle(beta_hat, model.beta)
        err = None if c1 is None else norm_error(beta_hat, model.beta, c1)
    except Exception as exc:
        raise TrialExecutionError(config, repetition_index, exc) from exc
    return TrialResult(config, repetition_index, err, ang, c1, time.perf_counter() - start)


def _aggregate(grid_value, rows) -> GridAggregate:
    def spread(values):  # the mean and the std, or None for both when there are no values or any value is None
        return (None, None) if not values or None in values else (float(np.mean(values)), float(np.std(values)))

    ok = [r for r in rows if isinstance(r, TrialResult)]
    errors, angles = spread([r.norm_error for r in ok]), spread([r.angle for r in ok])
    return GridAggregate(grid_value, *errors, *angles, len(ok))


def _sweep_points(spec: SweepSpec):
    """Run the grid points in order, yielding each point's trial rows (failures included) and aggregate.

    Models come from one ``lru_cache`` of ``realize_model`` that holds a grid point's models.  Later points reuse them
    while their arguments match, which in n- and m-sweeps is the whole grid.  A failure is not cached.
    """
    realize = functools.lru_cache(maxsize=spec.base.repetitions)(realize_model)
    for value, config in zip(spec.grid, spec.configs()):
        rows = []
        for rep in range(config.repetitions):
            try:
                rows.append(_run_trial(config, rep, realize))
            except TrialExecutionError as exc:
                rows.append(TrialFailure(config, rep, str(exc)))
        yield rows, _aggregate(value, rows)


def _sweep_result(points: list) -> SweepResult:
    return SweepResult(tuple(row for rows, _ in points for row in rows), tuple(agg for _, agg in points))


def run_sweep(spec: SweepSpec) -> SweepResult:
    """All repetitions at every grid point; failed trials become rows, not aborts."""
    return _sweep_result(list(_sweep_points(spec)))


def _angle_threshold(value: float) -> float:
    if not 0 < value < math.pi:
        raise ValueError(f"angle_threshold must lie in (0, pi), got {value}")
    return value


def find_min_n(spec: SweepSpec, angle_threshold: float) -> tuple[Optional[int], SweepResult]:
    """Smallest grid n of an n-sweep whose mean angle clears the threshold, plus the sweep up to it.

    Walks the grid in increasing order and stops at the first qualifying n;
    larger grid points are never run.
    """
    if spec.swept_parameter != "n":
        raise ValueError(f"find_min_n needs a sweep over n, got one over {spec.swept_parameter!r}")
    _angle_threshold(angle_threshold)
    points = []
    for rows, agg in _sweep_points(spec):
        points.append((rows, agg))
        if agg.angle_mean is not None and agg.angle_mean <= angle_threshold:
            return int(agg.grid_value), _sweep_result(points)
    return None, _sweep_result(points)


# ---------------------------------------------------------------------------
# Persistence

TRIALS_HEADER = "d,n,m,lambda_min,target_pe,rep,norm_error,angle,c1,wall_time_s"
AGG_HEADER = "grid_value,norm_error_mean,norm_error_std,angle_mean,angle_std,count"


def _trial_row(row) -> list:
    c = row.config
    metrics = [None] * 4
    if isinstance(row, TrialResult):
        metrics = [row.norm_error, row.angle, row.c1_used, row.wall_time_seconds]
    return [c.d, c.n, c.m, c.lambda_min, c.target_pe, row.repetition_index, *metrics]


def write_results(result: SweepResult, path_prefix) -> None:
    """Write `<prefix>.trials.csv` (one row per trial) and `<prefix>.agg.csv`.

    Failed trials keep their config columns and leave every metric column
    empty, angle included, which distinguishes them from noiseless rows
    (empty norm_error and c1 but a present angle).  The two files commit
    together: both are written before either replaces an older one.
    """
    with _staged(f"{path_prefix}.trials.csv", f"{path_prefix}.agg.csv") as (trials_path, agg_path):
        _write_csv(trials_path, TRIALS_HEADER.split(","), [_trial_row(row) for row in result.rows])
        _write_csv(agg_path, AGG_HEADER.split(","), [astuple(agg) for agg in result.aggregates])


# ---------------------------------------------------------------------------
# Configuration files: flat key=value lines, '#' comments.


def _choice(options: tuple):
    def convert(text: str) -> str:
        if text not in options:
            raise ValueError(f"must be one of {options}")
        return text
    return convert


_BASE_KEYS = {"d": int, "lambda_min": float, "target_pe": float, "repetitions": int, "master_seed": int}
_SWEEP_KEYS = _BASE_KEYS | {"n": int, "m": int, "grid": str, "swept_parameter": _choice(SWEEPABLE)}
_MIN_N_KEYS = _BASE_KEYS | {"n_grid": str, "angle_threshold": lambda text: _angle_threshold(float(text))}


def _read_config(path, converters: dict, required: tuple) -> dict:
    """The converted values of a config that may hold only the keys of ``converters``."""
    values = {}
    with _naming(path), open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, text = (part.strip() for part in line.partition("="))
            if not sep or not key:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            if key not in converters:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                values[key] = converters[key](text)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    for key in required:
        if key not in values:
            raise ValueError(f"{path}: missing required key {key!r}")
    return values


def _sweep_spec(path, values: dict) -> SweepSpec:
    """The sweep of a parsed config; a value the sweep rejects raises ValueError naming the file."""
    swept, grid_text = values.pop("swept_parameter"), values.pop("grid")
    if swept in values:
        raise ValueError(f"{path}: {swept!r} is the swept parameter, so its values go in grid only")
    for key in ("d", "n"):
        if key != swept and key not in values:
            raise ValueError(f"{path}: missing required key {key!r}")
    try:
        grid = tuple(map(_SWEEP_KEYS[swept], grid_text.split(",")))
    except ValueError as exc:
        raise ValueError(f"{path}: bad grid entry: {exc}") from exc
    m_rule = "fixed" if "m" in values or swept == "m" else "n_log_n"
    try:
        base = {"lambda_min": 1.0, "target_pe": 0.0, swept: grid[0]} | values
        if m_rule == "n_log_n":
            base["m"] = m_from_n(base["n"])
        return SweepSpec(TrialConfig(**base), swept, grid, m_rule)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def read_sweep_config(path) -> SweepSpec:
    """Parse a key=value config into a SweepSpec.

    Required keys: swept_parameter, grid, and d and n unless swept.  The swept parameter is stated in grid
    only; stating it as its own key too is an error.  The budget is the m key or the m grid when either is
    given (m_rule fixed), and m = ceil(n ln n) at every grid point otherwise (n_log_n).
    """
    return _sweep_spec(path, _read_config(path, _SWEEP_KEYS, ("swept_parameter", "grid")))


def read_min_n_config(path) -> tuple[SweepSpec, float]:
    """Parse a key=value config into the n-sweep and angle threshold of ``find_min_n``.

    Required keys: d, n_grid; angle_threshold defaults to 0.3.  The sweep runs over n = n_grid with
    m = ceil(n ln n), so n, m, swept_parameter and grid are not keys here.
    """
    values = _read_config(path, _MIN_N_KEYS, ("n_grid",))
    threshold = values.pop("angle_threshold", 0.3)
    values |= {"grid": values.pop("n_grid"), "swept_parameter": "n"}
    return _sweep_spec(path, values), threshold
