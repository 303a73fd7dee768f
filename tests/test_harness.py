"""Tests for trial orchestration, sweeps, result files, and config parsing."""

import functools
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rankreg import harness
from rankreg import (
    AGG_HEADER,
    GridAggregate,
    RngStream,
    SweepSpec,
    TRIALS_HEADER,
    TrialConfig,
    TrialExecutionError,
    TrialFailure,
    TrialResult,
    angle,
    estimate_beta,
    find_min_n,
    flip_fraction,
    generate_comparisons,
    generate_samples,
    m_from_n,
    norm_error,
    read_min_n_config,
    read_sweep_config,
    realize_model,
    run_sweep,
    run_trial,
    simulate,
    trial_stream,
    write_results,
)
from rankreg.comparisons import _expit
from rankreg.randomness import _BLOCK_ROWS, _row_blocks

BASE = TrialConfig(d=2, n=50, m=200, lambda_min=0.5, target_pe=0.2, repetitions=2, master_seed=7)
INJECTED = "injected calibration failure"


def _fail_calibration(monkeypatch):
    """Make every noisy trial fail inside realize_model with the message INJECTED."""

    def fail(target_pe, law):
        raise ValueError(INJECTED)

    monkeypatch.setattr(harness, "solve_alpha_for_pe", fail)


def test_m_budget_rule():
    assert m_from_n(300) == 1712
    assert m_from_n(2500) == 19561
    assert m_from_n(10_000) == 92104


def test_trial_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(d=0, n=50, m=10, lambda_min=1.0, target_pe=0.0)
    with pytest.raises(ValueError):
        TrialConfig(d=8, n=10, m=10, lambda_min=1.0, target_pe=0.0)  # n <= d + 2
    with pytest.raises(ValueError):
        TrialConfig(d=2, n=50, m=0, lambda_min=1.0, target_pe=0.0)
    for bad_lambda in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            TrialConfig(d=2, n=50, m=10, lambda_min=bad_lambda, target_pe=0.0)
    for bad_pe in (-0.1, 0.5, 0.9):
        with pytest.raises(ValueError):
            TrialConfig(d=2, n=50, m=10, lambda_min=1.0, target_pe=bad_pe)
    with pytest.raises(ValueError):
        TrialConfig(d=2, n=50, m=10, lambda_min=1.0, target_pe=0.0, repetitions=0)
    with pytest.raises(ValueError):
        TrialConfig(d=2, n=50, m=10, lambda_min=1.0, target_pe=0.0, master_seed=2**64)


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(BASE, "alpha", (1, 2), "n_log_n")
    with pytest.raises(ValueError):
        SweepSpec(BASE, "n", (30, 60), m_rule="bogus")
    with pytest.raises(ValueError, match="m-sweep"):
        SweepSpec(BASE, "m", (100, 200), m_rule="n_log_n")
    with pytest.raises(ValueError):
        SweepSpec(BASE, "n", (60, 30), "n_log_n")
    with pytest.raises(ValueError):
        SweepSpec(BASE, "n", (30, 30, 60), "n_log_n")
    with pytest.raises(ValueError):
        SweepSpec(BASE, "d", (5, 60), "n_log_n")  # d=60 needs n > 62


def test_sweep_spec_expands_the_budget_rule():
    spec = SweepSpec(BASE, "n", (30, 60), m_rule="n_log_n")
    assert [(c.n, c.m) for c in spec.configs()] == [(30, m_from_n(30)), (60, m_from_n(60))]
    fixed = SweepSpec(BASE, "lambda_min", (0.1, 1.0), m_rule="fixed")
    assert [(c.lambda_min, c.m) for c in fixed.configs()] == [(0.1, 200), (1.0, 200)]


def test_sweep_spec_states_its_m_rule():
    base = replace(BASE, m=500)
    with pytest.raises(TypeError):
        SweepSpec(base, "n", (50, 100))
    assert [c.m for c in SweepSpec(base, "n", (50, 100), "fixed").configs()] == [500, 500]


def test_min_n_query_validation():
    for bad in (0.0, -1.0, math.pi, 4.0):
        with pytest.raises(ValueError):
            find_min_n(SweepSpec(BASE, "n", (30, 60), "n_log_n"), angle_threshold=bad)
    with pytest.raises(ValueError):
        SweepSpec(BASE, "n", (60, 30), "n_log_n")
    with pytest.raises(ValueError):
        SweepSpec(TrialConfig(d=40, n=100, m=10, lambda_min=1.0, target_pe=0.0), "n", (30, 60), "n_log_n")
    with pytest.raises(ValueError, match="sweep over n"):
        find_min_n(SweepSpec(BASE, "d", (1, 2), "n_log_n"), angle_threshold=3.1)


# --- common random numbers -------------------------------------------------


def test_trial_stream_ignores_sizes_and_noise_level():
    reference = trial_stream(BASE, 0)
    for change in ({"n": 400}, {"m": 17}, {"target_pe": 0.4}, {"repetitions": 3}):
        assert trial_stream(replace(BASE, **change), 0) == reference
    for change in ({"d": 3}, {"lambda_min": 0.25}, {"master_seed": 8}):
        assert trial_stream(replace(BASE, **change), 0) != reference
    assert trial_stream(BASE, 1) != reference


def test_trial_stream_treats_integer_lambda_like_float():
    a = TrialConfig(d=2, n=50, m=200, lambda_min=1, target_pe=0.0)
    b = TrialConfig(d=2, n=50, m=200, lambda_min=1.0, target_pe=0.0)
    assert trial_stream(a, 0) == trial_stream(b, 0)


# --- single trials ---------------------------------------------------------


def test_run_trial_is_deterministic():
    first = run_trial(BASE, 0)
    second = run_trial(BASE, 0)
    assert (first.norm_error, first.angle, first.c1_used) == (
        second.norm_error,
        second.angle,
        second.c1_used,
    )
    assert first.config == BASE and first.repetition_index == 0
    assert 0 <= first.angle <= math.pi
    assert first.norm_error >= 0 and first.c1_used > 0
    assert first.wall_time_seconds >= 0


def test_run_trial_noiseless_has_no_shrinkage_constant():
    result = run_trial(TrialConfig(d=2, n=50, m=200, lambda_min=0.5, target_pe=0.0), 0)
    assert result.norm_error is None and result.c1_used is None
    assert 0 <= result.angle <= math.pi


def test_a_trial_holds_its_features_and_comparisons_and_one_block_beyond():
    # 2n*d*8 B of features, then the larger of two phases that never overlap: one block of fewer than 2 * _BLOCK_ROWS
    # rows of d floats (the standard normals behind the features, or a centred block of the covariance sum), or one
    # comparison block of 8253 rows while it is drawn and summed.  That is 49 B a row (i, j, the scores at i and j, the
    # uniforms, the labels and their boolean) plus 16 B a row of n for the scores and label weights, 0.72 MB here, so
    # the first phase sets the bound.  numpy.random is imported first, as its 0.7 MB of module objects are no trial's.
    # Over seeds 0..47 the trial peaks 0.94 MB below the bound, so a copy of the features (6.4 MB) or all
    # m = 198,070 i, j and y (4.75 MB; gathered, the trial peaked 3.8 MB over the bound) break it
    config = TrialConfig(d=20, n=20_000, m=m_from_n(20_000), lambda_min=0.5, target_pe=0.0)
    block_rows = max(hi - lo for lo, hi in _row_blocks(config.m))
    np.random.default_rng()
    tracemalloc.start()
    try:
        run_trial(config, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    comparison_phase = 49 * block_rows + 16 * config.n
    assert peak <= 2 * config.n * config.d * 8 + max(comparison_phase, 2 * _BLOCK_ROWS * config.d * 8)


def test_a_trial_peak_is_flat_in_the_comparison_budget():
    # a trial holds one comparison block, whatever m is: its peak grows by less than one block's i, j and y
    # (0.2 MB) from m = 2e5 to 2e6, where 33 B per comparison held would add ~59 MB.  The growth was -8.9 to
    # -8.7 kB over seeds 0..23 (a block of m = 2e6 has 137 fewer rows).  A process's first trial is not measured, as
    # it also allocates ~1.4 MB that later trials reuse
    def peak(m):
        config = TrialConfig(d=5, n=1000, m=m, lambda_min=1.0, target_pe=0.2, master_seed=3)
        tracemalloc.start()
        try:
            run_trial(config, 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(200_000)
    assert peak(2_000_000) - peak(200_000) < _BLOCK_ROWS * 24


def test_a_trial_of_many_blocks_estimates_what_its_gathered_comparisons_give(monkeypatch):
    config = TrialConfig(d=5, n=1000, m=2 * _BLOCK_ROWS + 3, lambda_min=0.5, target_pe=0.2)
    estimates = []

    def spy(dataset, samples):
        estimates.append(estimate_beta(dataset, samples))
        return estimates[-1]

    monkeypatch.setattr(harness, "estimate_beta", spy)
    result = run_trial(config, 1)
    stream = trial_stream(config, 1)
    model, _, c1 = realize_model(stream, config.d, config.lambda_min, config.target_pe)
    samples = generate_samples(stream.child("features"), model, config.n)
    beta_hat = estimate_beta(generate_comparisons(stream.child("comparisons"), model, samples, config.m), samples)
    assert np.array_equal(estimates, [beta_hat])
    assert result.angle == angle(beta_hat, model.beta)
    assert result.norm_error == norm_error(beta_hat, model.beta, c1)


def test_more_samples_tighten_the_angle():
    def median_angle(n):
        config = TrialConfig(d=2, n=n, m=m_from_n(n), lambda_min=1.0, target_pe=0.0)
        return float(np.median([run_trial(config, rep).angle for rep in range(10)]))

    assert median_angle(500) < median_angle(50)


@pytest.mark.parametrize("target_pe", [0.05, 0.2, 0.4])
def test_realized_flip_rate_tracks_the_target(target_pe):
    # Comparisons share the n rows, so the binomial variance alone is too
    # narrow: the rows add 4 Var(h) / n, h(x_r) being row r's flip rate
    # against the whole comparison half.  Margins checked on 120 other seeds.
    n, m = 2000, 20_000
    stream = RngStream(31).child("flip-rate", repr(target_pe))
    model, alpha, _ = realize_model(stream, 10, 0.1, target_pe)
    samples, dataset = simulate(stream, model, n, m)
    s = samples.comparison_half @ model.beta
    h = _expit(-alpha * np.abs(s[:, None] - s)).mean(axis=1)
    se = math.sqrt(target_pe * (1 - target_pe) / m + 4 * h.var(ddof=1) / n)
    assert abs(flip_fraction(dataset, model, samples) - target_pe) <= 4 * se


def test_trial_failure_is_wrapped_with_its_origin(monkeypatch):
    _fail_calibration(monkeypatch)
    config = TrialConfig(d=2, n=50, m=200, lambda_min=0.5, target_pe=0.2)
    with pytest.raises(TrialExecutionError, match="repetition 3") as excinfo:
        run_trial(config, 3)
    assert excinfo.value.config == config
    assert excinfo.value.repetition_index == 3


# --- sweeps ----------------------------------------------------------------


def test_single_point_sweep_matches_the_bare_trial():
    spec = SweepSpec(BASE, "n", (50,), m_rule="fixed")
    result = run_sweep(spec)
    assert len(result.rows) == BASE.repetitions
    for rep, row in enumerate(result.rows):
        bare = run_trial(BASE, rep)
        assert (row.norm_error, row.angle, row.c1_used) == (bare.norm_error, bare.angle, bare.c1_used)
    (agg,) = result.aggregates
    assert agg.grid_value == 50 and agg.count == BASE.repetitions


def test_sweep_aggregates_recompute():
    result = run_sweep(SweepSpec(BASE, "n", (30, 60), "n_log_n"))
    assert len(result.rows) == 2 * BASE.repetitions
    for agg, value in zip(result.aggregates, (30, 60)):
        point = [r for r in result.rows if r.config.n == value]
        angles = np.array([r.angle for r in point])
        errors = np.array([r.norm_error for r in point])
        assert agg.grid_value == value and agg.count == len(point)
        assert abs(agg.angle_mean - angles.mean()) <= 1e-12
        assert abs(agg.angle_std - angles.std()) <= 1e-12
        assert abs(agg.norm_error_mean - errors.mean()) <= 1e-12
        assert abs(agg.norm_error_std - errors.std()) <= 1e-12


def test_sweep_records_failures_and_keeps_going(monkeypatch):
    _fail_calibration(monkeypatch)
    base = TrialConfig(d=2, n=50, m=200, lambda_min=0.5, target_pe=0.2, repetitions=2)
    result = run_sweep(SweepSpec(base, "n", (30, 60), "n_log_n"))
    assert len(result.rows) == 4
    assert all(isinstance(r, TrialFailure) for r in result.rows)
    assert all(INJECTED in r.message for r in result.rows)
    for row in result.rows:
        with pytest.raises(TrialExecutionError) as excinfo:
            run_trial(row.config, row.repetition_index)
        assert row.message == str(excinfo.value)
    for agg in result.aggregates:
        assert agg == GridAggregate(agg.grid_value, None, None, None, None, 0)


def test_noiseless_sweep_leaves_error_aggregates_empty():
    base = TrialConfig(d=2, n=30, m=100, lambda_min=1.0, target_pe=0.0, repetitions=2)
    result = run_sweep(SweepSpec(base, "n", (30, 60), "n_log_n"))
    for agg in result.aggregates:
        assert agg.norm_error_mean is None and agg.norm_error_std is None
        assert agg.angle_mean is not None and agg.count == 2


GRID_SWEEPS = {
    "n": SweepSpec(replace(BASE, repetitions=3), "n", (30, 60, 120), "n_log_n"),
    "m": SweepSpec(replace(BASE, repetitions=3), "m", (50, 200, 800), m_rule="fixed"),
    "d": SweepSpec(replace(BASE, repetitions=3), "d", (1, 2, 4), "n_log_n"),
    "lambda_min": SweepSpec(replace(BASE, repetitions=3), "lambda_min", (0.25, 0.5, 1.0), "n_log_n"),
}


@pytest.fixture
def realize_calls(monkeypatch):
    """Counts calls of harness.realize_model made through its module name."""
    calls = []
    realize = harness.realize_model

    def counting(*args, **kwargs):
        calls.append(args)
        return realize(*args, **kwargs)

    monkeypatch.setattr(harness, "realize_model", counting)
    return calls


@pytest.mark.parametrize("swept, shared", [("n", True), ("m", True), ("d", False), ("lambda_min", False)])
def test_sweeps_realize_a_model_once_per_distinct_inputs(realize_calls, swept, shared):
    spec = GRID_SWEEPS[swept]
    run_sweep(spec)
    reps, points = spec.base.repetitions, len(spec.grid)
    assert len(realize_calls) == (reps if shared else reps * points)


@pytest.mark.parametrize("swept", sorted(GRID_SWEEPS))
def test_sweep_rows_match_standalone_trials(swept):
    rows = run_sweep(GRID_SWEEPS[swept]).rows
    assert len(rows) == 9 and all(isinstance(row, TrialResult) for row in rows)
    for row in rows:
        bare = run_trial(row.config, row.repetition_index)
        assert repr(row.angle) == repr(bare.angle)
        assert repr(row.norm_error) == repr(bare.norm_error)
        assert repr(row.c1_used) == repr(bare.c1_used)


@pytest.mark.parametrize("field, values", [("d", (2, 3, 2)), ("target_pe", (0.2, 0.0, 0.1, 0.2))])
def test_one_model_memo_serves_configs_with_other_realize_arguments(field, values):
    # the trials share a stream where only target_pe differs, so a memo keyed by repetition alone would reuse
    # the model of another noise level, or of another d
    realize = functools.lru_cache(maxsize=BASE.repetitions)(realize_model)
    for value in values:
        config = replace(BASE, **{field: value})
        for rep in range(config.repetitions):
            shared, bare = harness._run_trial(config, rep, realize), run_trial(config, rep)
            assert (shared.angle, shared.norm_error, shared.c1_used) == (bare.angle, bare.norm_error, bare.c1_used)
    assert realize.cache_info().currsize == BASE.repetitions  # one model per repetition


def test_a_model_that_fails_to_realize_is_realized_again_by_each_trial(realize_calls, monkeypatch):
    _fail_calibration(monkeypatch)
    spec = GRID_SWEEPS["n"]
    result = run_sweep(spec)
    assert all(isinstance(row, TrialFailure) for row in result.rows)
    assert len(realize_calls) == len(result.rows) == spec.base.repetitions * len(spec.grid)


# --- smallest qualifying n -------------------------------------------------

QUERY_BASE = TrialConfig(d=2, n=30, m=100, lambda_min=1.0, target_pe=0.0, repetitions=2)


def test_find_min_n_accepts_the_first_point_under_a_loose_threshold():
    found, partial = find_min_n(SweepSpec(QUERY_BASE, "n", (30, 60, 120), "n_log_n"), angle_threshold=3.1)
    assert found == 30
    assert len(partial.rows) == QUERY_BASE.repetitions  # later points never ran
    assert len(partial.aggregates) == 1


def test_find_min_n_reports_unreachable_thresholds():
    found, partial = find_min_n(SweepSpec(QUERY_BASE, "n", (30, 60), "n_log_n"), angle_threshold=1e-9)
    assert found is None
    assert len(partial.aggregates) == 2  # every point ran


def test_find_min_n_walks_until_the_threshold_clears():
    # deterministic mean angles on this grid: 0.212 at n=30, 0.151 at n=120,
    # so a 0.18 threshold forces the walk past the first point exactly once
    found, partial = find_min_n(SweepSpec(QUERY_BASE, "n", (30, 120, 480), "n_log_n"), angle_threshold=0.18)
    assert found == 120
    assert len(partial.aggregates) == 2


def test_find_min_n_realizes_each_model_once(realize_calls):
    spec = SweepSpec(replace(BASE, repetitions=3), "n", (30, 60, 120), "n_log_n")
    _, partial = find_min_n(spec, angle_threshold=1e-9)
    assert len(partial.aggregates) == 3 and len(realize_calls) == 3


def test_find_min_n_empty_grid():
    assert find_min_n(SweepSpec(QUERY_BASE, "n", (), "n_log_n"), 0.3)[0] is None


# --- result files ----------------------------------------------------------


def _lines(path):
    return path.read_bytes().decode().splitlines()


def test_write_results_layout(tmp_path):
    result = run_sweep(SweepSpec(BASE, "n", (30, 60), "n_log_n"))
    write_results(result, tmp_path / "out")
    trials = _lines(tmp_path / "out.trials.csv")
    agg = _lines(tmp_path / "out.agg.csv")
    assert trials[0] == TRIALS_HEADER and agg[0] == AGG_HEADER
    assert len(trials) == 1 + 4 and len(agg) == 1 + 2
    for line in trials[1:]:
        fields = line.split(",")
        assert len(fields) == 10
        assert float(fields[6]) >= 0 and 0 <= float(fields[7]) <= math.pi
    for line, expected in zip(agg[1:], result.aggregates):
        fields = line.split(",")
        assert len(fields) == 6
        assert float(fields[0]) == expected.grid_value
        assert abs(float(fields[3]) - expected.angle_mean) <= 1e-12
        assert int(fields[5]) == expected.count


def test_write_results_noiseless_rows_leave_error_columns_empty(tmp_path):
    base = TrialConfig(d=2, n=30, m=100, lambda_min=1.0, target_pe=0.0, repetitions=2)
    write_results(run_sweep(SweepSpec(base, "n", (30,), "n_log_n")), tmp_path / "out")
    for line in _lines(tmp_path / "out.trials.csv")[1:]:
        fields = line.split(",")
        assert fields[6] == "" and fields[8] == ""  # no shrinkage constant
        assert fields[7] != "" and fields[9] != ""
    agg_line = _lines(tmp_path / "out.agg.csv")[1].split(",")
    assert agg_line[1] == "" and agg_line[2] == ""


def test_write_results_failure_rows_are_all_empty(tmp_path, monkeypatch):
    _fail_calibration(monkeypatch)
    base = TrialConfig(d=2, n=50, m=200, lambda_min=0.5, target_pe=0.2, repetitions=1)
    write_results(run_sweep(SweepSpec(base, "n", (50,), m_rule="fixed")), tmp_path / "out")
    line = _lines(tmp_path / "out.trials.csv")[1]
    assert line.endswith(",,,,")
    assert line.split(",")[:6] == ["2", "50", "200", "0.5", "0.2", "0"]
    assert _lines(tmp_path / "out.agg.csv")[1].split(",")[5] == "0"


def test_write_results_reruns_identically_except_wall_time(tmp_path):
    spec = SweepSpec(BASE, "n", (30, 60), "n_log_n")
    write_results(run_sweep(spec), tmp_path / "a")
    write_results(run_sweep(spec), tmp_path / "b")
    assert (tmp_path / "a.agg.csv").read_bytes() == (tmp_path / "b.agg.csv").read_bytes()

    def masked(path):
        return [line.rsplit(",", 1)[0] for line in _lines(path)]

    assert masked(tmp_path / "a.trials.csv") == masked(tmp_path / "b.trials.csv")


def test_write_results_commits_both_files_or_neither(tmp_path, monkeypatch):
    result = run_sweep(SweepSpec(BASE, "n", (30,), "n_log_n"))
    write_results(result, tmp_path / "out")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    real_write_csv = harness._write_csv

    def write_csv(path, header, rows):
        if header == AGG_HEADER.split(","):
            raise OSError("injected agg fault")
        real_write_csv(path, header, rows)

    monkeypatch.setattr(harness, "_write_csv", write_csv)
    for prefix in ("out", "new"):
        with pytest.raises(OSError, match="injected agg fault"):
            write_results(result, tmp_path / prefix)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_write_results_empty_sweep(tmp_path):
    write_results(run_sweep(SweepSpec(BASE, "n", (), "n_log_n")), tmp_path / "out")
    assert _lines(tmp_path / "out.trials.csv") == [TRIALS_HEADER]
    assert _lines(tmp_path / "out.agg.csv") == [AGG_HEADER]


# --- config files ----------------------------------------------------------


def _config(tmp_path, text):
    path = tmp_path / "sweep.cfg"
    path.write_text(text)
    return path


def test_read_sweep_config_full(tmp_path):
    spec = read_sweep_config(
        _config(
            tmp_path,
            """
            # dimension sweep at a fixed budget
            n = 100
            m = 500        # trailing comment
            swept_parameter = d
            grid = 2, 4, 8
            lambda_min = 0.25
            target_pe = 0.3
            repetitions = 4
            master_seed = 99
            """,
        )
    )
    assert spec.swept_parameter == "d" and spec.grid == (2, 4, 8) and spec.m_rule == "fixed"
    assert spec.base == TrialConfig(2, 100, 500, 0.25, 0.3, repetitions=4, master_seed=99)


def test_read_sweep_config_defaults(tmp_path):
    spec = read_sweep_config(_config(tmp_path, "d = 2\nswept_parameter = n\ngrid = 30, 60\n"))
    assert spec.base.n == 30  # base n falls back to the first grid value
    assert spec.m_rule == "n_log_n"
    assert spec.base.lambda_min == 1.0 and spec.base.target_pe == 0.0
    assert spec.base.repetitions == 10 and spec.base.master_seed == 0


def test_read_sweep_config_m_sweep(tmp_path):
    spec = read_sweep_config(_config(tmp_path, "d = 2\nn = 50\nswept_parameter = m\ngrid = 100, 200\n"))
    assert spec.m_rule == "fixed" and spec.base.m == 100
    assert [c.m for c in spec.configs()] == [100, 200]


def test_read_sweep_config_lambda_grid_is_float(tmp_path):
    spec = read_sweep_config(
        _config(tmp_path, "d = 2\nn = 50\nswept_parameter = lambda_min\ngrid = 0.1, 0.5, 1.0\n")
    )
    assert spec.grid == (0.1, 0.5, 1.0)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("d = 2\nd = 3\nswept_parameter = n\ngrid = 30\n", ":2: duplicate"),
        ("d = 2\nwat = 1\nswept_parameter = n\ngrid = 30\n", ":2: unknown key"),
        ("d = two\nswept_parameter = n\ngrid = 30\n", ":1: bad value"),
        ("d = 2\nswept_parameter = alpha\ngrid = 30\n", ":2: bad value"),
        ("d = 2\njust words\nswept_parameter = n\ngrid = 30\n", ":2: expected key=value"),
        ("d = 2\nswept_parameter = n\ngrid = 30, x\n", "bad grid entry"),
        ("d = 2\nswept_parameter = n\ngrid =\n", "bad grid entry"),
        ("swept_parameter = n\ngrid = 30\n", "missing required key 'd'"),
        ("d = 2\ngrid = 30\n", "missing required key 'swept_parameter'"),
        ("d = 2\nswept_parameter = n\n", "missing required key 'grid'"),
        ("swept_parameter = d\ngrid = 2, 4\n", "missing required key 'n'"),
        ("d = 2\nswept_parameter = n\ngrid = 60, 30\n", "strictly increasing"),
        ("d = 8\nswept_parameter = n\ngrid = 5, 500\n", "must exceed d + 2"),
        ("d = 2\nswept_parameter = n\ngrid = 30\nn_grid = 30\n", ":4: unknown key"),
        ("d = 2\nswept_parameter = n\ngrid = 30\nangle_threshold = 0.3\n", ":4: unknown key"),
        ("n = 0\nswept_parameter = d\ngrid = 2, 4\n", "sweep.cfg: n must be >= 1, got 0"),
        ("d = 2\nswept_parameter = n\ngrid = 0, 50\n", "sweep.cfg: n must be >= 1, got 0"),
        ("d = 2\nm = 500\nm_rule = fixed\nswept_parameter = n\ngrid = 50\n", ":3: unknown key 'm_rule'"),
        ("d = 2\nn = 50\nswept_parameter = n\ngrid = 60, 90\n", "sweep.cfg: 'n' is the swept parameter"),
        ("d = 2\nn = 50\nm = 300\nswept_parameter = m\ngrid = 100, 200\n", "sweep.cfg: 'm' is the swept parameter"),
        ("d = 2\nn = 50\nswept_parameter = d\ngrid = 2, 4\n", "sweep.cfg: 'd' is the swept parameter"),
        ("d = 2\nn = 50\nlambda_min = 0.5\nswept_parameter = lambda_min\ngrid = 0.1, 1.0\n",
         "sweep.cfg: 'lambda_min' is the swept parameter"),
    ],
)
def test_read_sweep_config_errors(tmp_path, text, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        read_sweep_config(_config(tmp_path, text))


def test_read_sweep_config_uses_a_stated_m_at_every_grid_point(tmp_path):
    spec = read_sweep_config(_config(tmp_path, "d = 2\nm = 500\nswept_parameter = n\ngrid = 50, 100\n"))
    assert spec.m_rule == "fixed" and [(c.n, c.m) for c in spec.configs()] == [(50, 500), (100, 500)]


def test_read_sweep_config_d_sweep_needs_no_d_key(tmp_path):
    spec = read_sweep_config(_config(tmp_path, "n = 50\nswept_parameter = d\ngrid = 2, 4\n"))
    assert spec.base.d == spec.grid[0] == 2
    assert [c.d for c in spec.configs()] == [2, 4]


def test_read_min_n_config(tmp_path):
    spec, threshold = read_min_n_config(
        _config(tmp_path, "d = 3\nn_grid = 30, 60, 120\nangle_threshold = 0.25\ntarget_pe = 0.2\n")
    )
    assert spec.grid == (30, 60, 120) and threshold == 0.25
    assert spec.base.n == 30 and spec.base.m == m_from_n(30)
    assert spec.swept_parameter == "n" and spec.m_rule == "n_log_n"


def test_read_min_n_config_defaults_and_errors(tmp_path):
    _, threshold = read_min_n_config(_config(tmp_path, "d = 2\nn_grid = 30\n"))
    assert threshold == 0.3
    with pytest.raises(ValueError, match="n_grid"):
        read_min_n_config(_config(tmp_path, "d = 2\n"))
    threshold_message = r":3: bad value for 'angle_threshold': angle_threshold must lie in \(0, pi\), got 9.0"
    with pytest.raises(ValueError, match=threshold_message):
        read_min_n_config(_config(tmp_path, "d = 2\nn_grid = 30\nangle_threshold = 9\n"))
    with pytest.raises(ValueError, match="sweep.cfg: n must be >= 1, got 0"):
        read_min_n_config(_config(tmp_path, "d = 2\nn_grid = 0, 50\n"))
    for line in ("n = 30", "m = 100", "m_rule = fixed", "swept_parameter = d", "grid = 1, 2"):
        with pytest.raises(ValueError, match=":3: unknown key"):
            read_min_n_config(_config(tmp_path, f"d = 2\nn_grid = 30\n{line}\n"))
