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
    _write_csv,
    generate_comparisons,
    generate_samples,
)
from .estimator import angle, estimate_beta, norm_error
from .randomness import RngStream, _mix, make_covariance, sample_ground_truth

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
    base: TrialConfig
    swept_parameter: str
    grid: tuple
    m_rule: str = "n_log_n"

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

    def __post_init__(self):
        if not 0 <= self.angle <= math.pi:
            raise ValueError(f"angle must lie in [0, pi], got {self.angle}")
        if (self.norm_error is None) != (self.c1_used is None):
            raise ValueError("norm_error and c1_used must be absent together (noiseless runs)")
        if self.norm_error is not None and not self.norm_error >= 0:
            raise ValueError(f"norm_error must be >= 0, got {self.norm_error}")
        if self.c1_used is not None and not self.c1_used > 0:
            raise ValueError(f"c1_used must be > 0, got {self.c1_used}")
        if not self.wall_time_seconds >= 0:
            raise ValueError(f"wall_time_seconds must be >= 0, got {self.wall_time_seconds}")


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
        return ModelSpec(d, beta, mu, sigma, DeterministicLink()), None, None
    law = ScoreDifferenceLaw.from_parameters(beta, sigma)
    alpha = solve_alpha_for_pe(target_pe, law)
    link = LogisticLink(alpha)
    return ModelSpec(d, beta, mu, sigma, link), alpha, estimate_c1(link, law)


def simulate(stream: RngStream, model: ModelSpec, n: int, m: int):
    """(samples, dataset): 2n feature rows, then m labeled comparisons, as trials and ``generate`` draw them.

    The rows come from ``stream.child("features")`` and the comparisons from ``stream.child("comparisons")``.
    """
    samples = generate_samples(stream.child("features"), model, n)
    return samples, generate_comparisons(stream.child("comparisons"), model, samples, m)


def run_trial(config: TrialConfig, repetition_index: int) -> TrialResult:
    """One full generate/estimate pass; any module error is wrapped with the config."""
    return _run_trial(config, repetition_index, {})


def _realize_inputs(config: TrialConfig) -> tuple:
    """Everything but the repetition index that ``realize_model`` depends on."""
    return config.master_seed, config.d, config.lambda_min, config.target_pe


def _run_trial(config: TrialConfig, repetition_index: int, models: dict) -> TrialResult:
    """``run_trial`` that takes the repetition's model from ``models`` or realizes it into ``models``.

    Every model in ``models`` must have been realized for the same
    ``_realize_inputs`` as ``config``.  A model that fails to realize is not
    stored, so each trial that needs it tries again and fails the same way.
    """
    start = time.perf_counter()
    try:
        stream = trial_stream(config, repetition_index)
        if repetition_index not in models:
            models[repetition_index] = realize_model(stream, config.d, config.lambda_min, config.target_pe)
        model, _, c1 = models[repetition_index]
        samples, dataset = simulate(stream, model, config.n, config.m)
        beta_hat = estimate_beta(dataset, samples)
        ang = angle(beta_hat, model.beta)
        err = None if c1 is None else norm_error(beta_hat, model.beta, c1)
    except Exception as exc:
        raise TrialExecutionError(config, repetition_index, exc) from exc
    return TrialResult(config, repetition_index, err, ang, c1, time.perf_counter() - start)


def _aggregate(grid_value, rows) -> GridAggregate:
    ok = [r for r in rows if isinstance(r, TrialResult)]
    if not ok:
        return GridAggregate(grid_value, None, None, None, None, 0)
    angles = np.array([r.angle for r in ok])
    agg = {"angle_mean": float(angles.mean()), "angle_std": float(angles.std())}
    if all(r.norm_error is not None for r in ok):
        errors = np.array([r.norm_error for r in ok])
        agg |= {"norm_error_mean": float(errors.mean()), "norm_error_std": float(errors.std())}
    else:
        agg |= {"norm_error_mean": None, "norm_error_std": None}
    return GridAggregate(grid_value, count=len(ok), **agg)


def _sweep_points(spec: SweepSpec):
    """Run the grid points in order, yielding each point's trial rows (failures included) and aggregate.

    Each repetition's model is realized once and reused by the following grid
    points for as long as their realize inputs match, which in n- and m-sweeps
    is the whole grid.  Only the current inputs' models are held.
    """
    inputs, models = None, {}
    for value, config in zip(spec.grid, spec.configs()):
        if _realize_inputs(config) != inputs:
            inputs, models = _realize_inputs(config), {}
        rows = []
        for rep in range(config.repetitions):
            try:
                rows.append(_run_trial(config, rep, models))
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


def find_min_n(spec: SweepSpec, angle_threshold: float = 0.3) -> tuple[Optional[int], SweepResult]:
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
    (empty norm_error and c1 but a present angle).
    """
    _write_csv(f"{path_prefix}.trials.csv", TRIALS_HEADER.split(","), [_trial_row(row) for row in result.rows])
    _write_csv(f"{path_prefix}.agg.csv", AGG_HEADER.split(","), [astuple(agg) for agg in result.aggregates])


# ---------------------------------------------------------------------------
# Configuration files: flat key=value lines, '#' comments.


class ConfigError(ValueError):
    """A configuration file is malformed; message carries file and line."""


def _choice(options: tuple):
    def convert(text: str) -> str:
        if text not in options:
            raise ValueError(f"must be one of {options}")
        return text
    return convert


_BASE_KEYS = {"d": int, "lambda_min": float, "target_pe": float, "repetitions": int, "master_seed": int}
_SWEEP_KEYS = _BASE_KEYS | {"n": int, "m": int, "grid": str,
                            "swept_parameter": _choice(SWEEPABLE), "m_rule": _choice(M_RULES)}
_MIN_N_KEYS = _BASE_KEYS | {"n_grid": str, "angle_threshold": lambda text: _angle_threshold(float(text))}


def _read_config(path, converters: dict, required: tuple) -> dict:
    """The converted values of a config that may hold only the keys of ``converters``."""
    values = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, text = (part.strip() for part in line.partition("="))
            if not sep or not key:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            if key not in converters:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                values[key] = converters[key](text)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    for key in required:
        if key not in values:
            raise ConfigError(f"{path}: missing required key {key!r}")
    return values


def _sweep_spec(path, values: dict) -> SweepSpec:
    """The sweep of a parsed config; a value the sweep rejects raises ConfigError naming the file."""
    swept = values["swept_parameter"]
    m_rule = values.get("m_rule", "fixed" if swept == "m" else "n_log_n")
    if swept != "n" and "n" not in values:
        raise ConfigError(f"{path}: missing required key 'n'")
    if m_rule == "fixed" and swept != "m" and "m" not in values:
        raise ConfigError(f"{path}: m_rule=fixed needs an explicit m key")
    try:
        grid = tuple(map(_SWEEP_KEYS[swept], values["grid"].split(",")))
    except ValueError as exc:
        raise ConfigError(f"{path}: bad grid entry: {exc}") from exc
    try:
        n = values.get("n", grid[0])
        m = values.get("m", grid[0] if swept == "m" else m_from_n(n))
        base = {"lambda_min": 1.0, "target_pe": 0.0} | {key: values[key] for key in _BASE_KEYS if key in values}
        return SweepSpec(TrialConfig(n=n, m=m, **base), swept, grid, m_rule)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def read_sweep_config(path) -> SweepSpec:
    """Parse a key=value config into a SweepSpec.

    Required keys: d, swept_parameter, grid, and n unless n is swept (the base n is then the first grid value).
    m_rule defaults to n_log_n except for m-sweeps, where it must be fixed; fixed m-rules take m as the base.
    """
    return _sweep_spec(path, _read_config(path, _SWEEP_KEYS, ("d", "swept_parameter", "grid")))


def read_min_n_config(path) -> tuple[SweepSpec, float]:
    """Parse a key=value config into the n-sweep and angle threshold of ``find_min_n``.

    Required keys: d, n_grid; angle_threshold defaults to 0.3.  The sweep runs over n = n_grid with
    m = ceil(n ln n), so n, m, m_rule, swept_parameter and grid are not keys here.
    """
    values = _read_config(path, _MIN_N_KEYS, ("d", "n_grid"))
    threshold = values.pop("angle_threshold", 0.3)
    values |= {"grid": values.pop("n_grid"), "swept_parameter": "n"}  # m_rule defaults to n_log_n
    return _sweep_spec(path, values), threshold
