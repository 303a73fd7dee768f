"""Deterministic parameter sweeps over the full generate/estimate pipeline.

A sweep runs repeated trials over a grid of one swept parameter.  Every
trial derives its own random stream from the trial's defining parameters
and repetition index alone, so a trial's result never depends on which
other grid points run around it, and sweeps over the dataset sizes n and m
reuse the same ground truths and features per repetition (paired
comparisons across the grid).  Such a sweep realizes each repetition's
model once and reuses it at every grid point.
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
from .estimator import angle, estimate_beta, estimate_covariance, norm_error
from .randomness import CovarianceSpec, RngStream, _mix, make_covariance, sample_ground_truth

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
        out = []
        for value in self.grid:
            cfg = replace(self.base, **{self.swept_parameter: value})
            if self.m_rule == "n_log_n":
                cfg = replace(cfg, m=m_from_n(cfg.n))
            out.append(cfg)
        return out


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
    spec: SweepSpec
    rows: tuple
    aggregates: tuple


@dataclass(frozen=True)
class MinNQuery:
    base: TrialConfig
    n_grid: tuple
    angle_threshold: float = 0.3

    def __post_init__(self):
        object.__setattr__(self, "n_grid", tuple(self.n_grid))
        if not 0 < self.angle_threshold < math.pi:
            raise ValueError(f"angle_threshold must lie in (0, pi), got {self.angle_threshold}")
        self.sweep_spec()  # validates the grid

    def sweep_spec(self) -> SweepSpec:
        base = self.base if not self.n_grid else replace(self.base, n=self.n_grid[0], m=m_from_n(self.n_grid[0]))
        return SweepSpec(base, "n", self.n_grid, "n_log_n")


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
    sigma = make_covariance(CovarianceSpec(d, lambda_min, stream.child("basis")))
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
        estimate = estimate_beta(dataset, samples, estimate_covariance(samples))
        ang = angle(estimate.beta_hat, model.beta)
        err = None if c1 is None else norm_error(estimate.beta_hat, model.beta, c1)
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


def _sweep_result(spec: SweepSpec, points: list) -> SweepResult:
    return SweepResult(spec, tuple(row for rows, _ in points for row in rows), tuple(agg for _, agg in points))


def run_sweep(spec: SweepSpec) -> SweepResult:
    """All repetitions at every grid point; failed trials become rows, not aborts."""
    return _sweep_result(spec, list(_sweep_points(spec)))


def find_min_n_detailed(query: MinNQuery) -> tuple[Optional[int], SweepResult]:
    """Smallest grid n whose mean angle clears the threshold, plus the partial sweep.

    Walks the grid in increasing order and stops at the first qualifying n;
    larger grid points are never run.
    """
    spec = query.sweep_spec()
    points = []
    for rows, agg in _sweep_points(spec):
        points.append((rows, agg))
        if agg.angle_mean is not None and agg.angle_mean <= query.angle_threshold:
            return int(agg.grid_value), _sweep_result(spec, points)
    return None, _sweep_result(spec, points)


def find_min_n(query: MinNQuery) -> Optional[int]:
    return find_min_n_detailed(query)[0]


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
# Sweep configuration files: flat key=value lines, '#' comments.


class ConfigError(ValueError):
    """A sweep configuration file is malformed; message carries file and line."""


_INT_KEYS = ("d", "n", "m", "repetitions", "master_seed")
_FLOAT_KEYS = ("lambda_min", "target_pe", "angle_threshold")
_CHOICE_KEYS = {"swept_parameter": SWEEPABLE, "m_rule": M_RULES}
_LIST_KEYS = ("grid", "n_grid")


def _parse_config_lines(path) -> dict:
    values = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, text = (part.strip() for part in line.partition("="))
            if not sep or not key:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                if key in _INT_KEYS:
                    values[key] = int(text)
                elif key in _FLOAT_KEYS:
                    values[key] = float(text)
                elif key in _CHOICE_KEYS:
                    if text not in _CHOICE_KEYS[key]:
                        raise ValueError(f"must be one of {_CHOICE_KEYS[key]}")
                    values[key] = text
                elif key in _LIST_KEYS:
                    values[key] = tuple(part.strip() for part in text.split(","))
                else:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def _require(values: dict, key: str, path) -> object:
    if key not in values:
        raise ConfigError(f"{path}: missing required key {key!r}")
    return values[key]


def _numbers(raw: tuple, as_int: bool, key: str, path) -> tuple:
    try:
        return tuple(int(v) if as_int else float(v) for v in raw)
    except ValueError as exc:
        raise ConfigError(f"{path}: bad {key} entry: {exc}") from exc


def _base_config(values: dict, path, default_n=None, default_m=None) -> TrialConfig:
    n = values.get("n", default_n)
    if n is None:
        raise ConfigError(f"{path}: missing required key 'n'")
    m = values.get("m", default_m if default_m is not None else m_from_n(n))
    try:
        return TrialConfig(
            d=_require(values, "d", path),
            n=n,
            m=m,
            lambda_min=values.get("lambda_min", 1.0),
            target_pe=values.get("target_pe", 0.0),
            repetitions=values.get("repetitions", 10),
            master_seed=values.get("master_seed", 0),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def read_sweep_config(path) -> SweepSpec:
    """Parse a key=value config into a SweepSpec.

    Required keys: d, swept_parameter, grid, and n unless n is the swept
    parameter (then the base n defaults to the first grid value).  m_rule
    defaults to n_log_n except for m-sweeps, where it must be fixed; an
    explicit m key is the base for fixed-m sweeps.
    """
    values = _parse_config_lines(path)
    swept = _require(values, "swept_parameter", path)
    grid = _numbers(_require(values, "grid", path), swept != "lambda_min", "grid", path)
    if not grid:
        raise ConfigError(f"{path}: grid must not be empty")
    m_rule = values.get("m_rule", "fixed" if swept == "m" else "n_log_n")
    if m_rule == "fixed" and swept != "m" and "m" not in values:
        raise ConfigError(f"{path}: m_rule=fixed needs an explicit m key")
    base = _base_config(
        values,
        path,
        default_n=grid[0] if swept == "n" else None,
        default_m=grid[0] if swept == "m" else None,
    )
    try:
        return SweepSpec(base, swept, grid, m_rule)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def read_min_n_config(path) -> MinNQuery:
    """Parse a key=value config into a MinNQuery.

    Required keys: d, n_grid; angle_threshold defaults to 0.3.  The budget
    rule is always m = ceil(n ln n), matching the sweep the query runs.
    """
    values = _parse_config_lines(path)
    n_grid = _numbers(_require(values, "n_grid", path), True, "n_grid", path)
    if not n_grid:
        raise ConfigError(f"{path}: n_grid must not be empty")
    base = _base_config(values, path, default_n=n_grid[0])
    try:
        return MinNQuery(base, n_grid, values.get("angle_threshold", 0.3))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
