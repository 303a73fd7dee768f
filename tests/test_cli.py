"""End-to-end tests of the command line, driven in process through main().

One subprocess test checks the installed console script; everything else
calls main(argv) directly so coverage and tracebacks stay usable.
"""

import inspect
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import rankreg
from rankreg import (
    CsvFormatError,
    DeterministicLink,
    LogisticLink,
    RngStream,
    ScoreDifferenceLaw,
    estimate_c1,
    estimate_pe,
    read_comparisons_csv,
    read_samples_csv,
    realize_model,
    simulate,
)
from rankreg.cli import main, read_truth_csv


def _generate(tmp_path, *, d=2, n=10, m=5, pe=0.0, lam=1.0, seed=0, prefix="out"):
    out = tmp_path / prefix
    rc = main(
        [
            "generate",
            "--d", str(d),
            "--n", str(n),
            "--m", str(m),
            "--lambda-min", str(lam),
            "--pe", str(pe),
            "--seed", str(seed),
            "--out-prefix", str(out),
        ]
    )
    assert rc == 0
    return out


def _data_lines(path):
    return path.read_bytes().decode().splitlines()[1:]


# --- generate --------------------------------------------------------------

def test_generate_writes_the_three_files_with_the_right_shapes(tmp_path):
    out = _generate(tmp_path, d=2, n=10, m=5)
    assert len(_data_lines(out.with_suffix(".samples.csv"))) == 20  # 2n rows
    assert len(_data_lines(out.with_suffix(".comparisons.csv"))) == 5
    assert len(_data_lines(out.with_suffix(".truth.csv"))) == 1


def test_generate_is_reproducible_byte_for_byte(tmp_path):
    a = _generate(tmp_path, pe=0.3, seed=11, prefix="a")
    b = _generate(tmp_path, pe=0.3, seed=11, prefix="b")
    for suffix in (".samples.csv", ".comparisons.csv", ".truth.csv"):
        assert a.with_suffix(suffix).read_bytes() == b.with_suffix(suffix).read_bytes()


def test_generate_truth_records_the_link_calibration(tmp_path):
    _, alpha, c1 = read_truth_csv(_generate(tmp_path, prefix="a").with_suffix(".truth.csv"))
    assert alpha is None and c1 is None
    _, alpha, c1 = read_truth_csv(_generate(tmp_path, pe=0.2, prefix="b").with_suffix(".truth.csv"))
    assert alpha > 0 and c1 > 0


def test_generate_calibrates_a_low_noise_target(tmp_path):
    _, alpha, c1 = read_truth_csv(_generate(tmp_path, pe=1e-4).with_suffix(".truth.csv"))
    assert alpha > 0 and c1 > 0


@pytest.mark.parametrize("pe", [0.0, 0.2])
def test_read_truth_csv_returns_the_realized_model(tmp_path, pe):
    out = _generate(tmp_path, d=3, n=10, m=5, pe=pe, lam=0.3, seed=9)
    model, alpha, c1 = realize_model(RngStream(9), 3, 0.3, pe)
    got, got_alpha, got_c1 = read_truth_csv(out.with_suffix(".truth.csv"))
    assert np.array_equal(got.beta, model.beta) and np.array_equal(got.mu, model.mu)
    assert np.array_equal(got.sigma.entries, model.sigma.entries)
    assert (got_alpha, got_c1) == (alpha, c1)
    if pe:
        assert isinstance(got.link, LogisticLink) and got.link.slope == alpha
    else:
        assert isinstance(got.link, DeterministicLink)


@pytest.mark.parametrize("lambda_min", ["0", "1.5"])
def test_generate_rejects_a_spectrum_floor_outside_the_unit_interval(tmp_path, capsys, lambda_min):
    argv = ["generate", "--d", "3", "--n", "10", "--m", "5", "--lambda-min", lambda_min]
    assert main([*argv, "--out-prefix", str(tmp_path / "out")]) == 1
    assert "lambda_min must lie in (0, 1]" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("pe,lam,seed", [(0.0, 1.0, 3), (0.2, 0.3, 8)])
def test_generate_writes_what_simulate_draws(tmp_path, pe, lam, seed):
    d, n, m = 3, 40, 150
    out = _generate(tmp_path, d=d, n=n, m=m, pe=pe, lam=lam, seed=seed)
    model, _, _ = realize_model(RngStream(seed), d, lam, pe)
    samples, dataset = simulate(RngStream(seed), model, n, m)
    assert np.array_equal(read_samples_csv(out.with_suffix(".samples.csv")).features, samples.features)
    written = read_comparisons_csv(out.with_suffix(".comparisons.csv"), n)
    for field in ("i", "j", "y"):
        assert np.array_equal(getattr(written, field), getattr(dataset, field))


# --- estimate --------------------------------------------------------------

def test_estimate_prints_weights_and_metrics(tmp_path, capsys):
    out = _generate(tmp_path, d=2, n=200, m=1000, pe=0.2, seed=3)
    rc = main(
        [
            "estimate",
            "--samples", str(out.with_suffix(".samples.csv")),
            "--comparisons", str(out.with_suffix(".comparisons.csv")),
            "--truth", str(out.with_suffix(".truth.csv")),
            "--out", str(tmp_path / "bh.csv"),
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.splitlines()
    assert lines[0].startswith("beta_hat=") and len(lines[0].split("=")[1].split(",")) == 2
    assert lines[1].startswith("norm_error=") and float(lines[1].split("=")[1]) >= 0
    assert lines[2].startswith("angle=") and 0 <= float(lines[2].split("=")[1]) <= math.pi
    assert (tmp_path / "bh.csv").read_bytes().startswith(b"n,m,beta_hat_1,beta_hat_2\n200,1000,")


def test_estimate_noiseless_truth_has_no_norm_error_line(tmp_path, capsys):
    out = _generate(tmp_path, d=2, n=50, m=100, pe=0.0)
    rc = main(
        [
            "estimate",
            "--samples", str(out.with_suffix(".samples.csv")),
            "--comparisons", str(out.with_suffix(".comparisons.csv")),
            "--truth", str(out.with_suffix(".truth.csv")),
            "--out", str(tmp_path / "bh.csv"),
        ]
    )
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert [line.split("=")[0] for line in lines] == ["beta_hat", "angle"]


@pytest.mark.parametrize("truth_d", [1, 2])
def test_estimate_rejects_a_truth_of_another_dimension(tmp_path, capsys, truth_d):
    out = _generate(tmp_path, d=3, n=20, m=50, pe=0.2, prefix="data")
    truth = _generate(tmp_path, d=truth_d, n=20, m=50, pe=0.2, prefix="other").with_suffix(".truth.csv")
    rc = main(
        [
            "estimate",
            "--samples", str(out.with_suffix(".samples.csv")),
            "--comparisons", str(out.with_suffix(".comparisons.csv")),
            "--truth", str(truth),
            "--out", str(tmp_path / "bh.csv"),
        ]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert "norm_error=" not in captured.out and "angle=" not in captured.out
    assert str(truth) in captured.err and f"d={truth_d}" in captured.err and "d=3" in captured.err


def test_estimate_flips_with_the_labels(tmp_path, capsys):
    out = _generate(tmp_path, d=3, n=40, m=200, pe=0.1, seed=5)
    args = [
        "estimate",
        "--samples", str(out.with_suffix(".samples.csv")),
        "--comparisons", str(out.with_suffix(".comparisons.csv")),
        "--out", str(tmp_path / "bh.csv"),
    ]
    assert main(args) == 0
    forward = [float(v) for v in capsys.readouterr().out.split("=")[1].split(",")]

    lines = out.with_suffix(".comparisons.csv").read_text().splitlines()
    flipped = [lines[0]]
    for line in lines[1:]:
        i, j, y = line.split(",")
        flipped.append(f"{i},{j},{-int(y)}")
    negated = tmp_path / "negated.csv"
    negated.write_text("\n".join(flipped) + "\n")

    assert main(args[:4] + [str(negated)] + args[5:]) == 0
    backward = [float(v) for v in capsys.readouterr().out.split("=")[1].split(",")]
    assert backward == [-v for v in forward]  # exact, not approximate


def test_estimate_rejects_malformed_comparisons(tmp_path, capsys):
    out = _generate(tmp_path, d=2, n=10, m=5)
    bad = tmp_path / "bad.csv"
    bad.write_text("i,j,y\n1,2,7\n")
    rc = main(
        [
            "estimate",
            "--samples", str(out.with_suffix(".samples.csv")),
            "--comparisons", str(bad),
            "--out", str(tmp_path / "bh.csv"),
        ]
    )
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and ":2:" in err


def test_estimate_names_the_line_of_a_non_finite_sample(tmp_path, capsys):
    out = _generate(tmp_path, d=2, n=10, m=5)
    path = out.with_suffix(".samples.csv")
    lines = path.read_text().splitlines()
    lines[4] = "nan," + lines[4].split(",")[1]
    path.write_text("\n".join(lines) + "\n")
    rc = main(
        [
            "estimate",
            "--samples", str(path),
            "--comparisons", str(out.with_suffix(".comparisons.csv")),
            "--out", str(tmp_path / "bh.csv"),
        ]
    )
    assert rc == 1
    assert f"{path}:5: value is not finite" in capsys.readouterr().err


_TRUTH_1 = "beta_1,mu_1,sigma_1_1,alpha,c1\n"
_TRUTH_2 = "beta_1,beta_2,mu_1,mu_2,sigma_1_1,sigma_1_2,sigma_2_1,sigma_2_2,alpha,c1\n"


@pytest.mark.parametrize(
    "text,fragment",
    [
        pytest.param(_TRUTH_1 + "1.0,0.0,1.0,inf,0.5\n", "not finite", id="inf-not finite"),
        pytest.param(_TRUTH_1 + "1.0,0.0,1.0,oops,0.5\n", "oops", id="oops-oops"),
        pytest.param(_TRUTH_1 + "1.0,0.0,1.0,2.0,0.0\n", "c1 must be > 0", id="c1-zero"),
        pytest.param(_TRUTH_1 + "1.0,0.0,1.0,2.0,-0.5\n", "c1 must be > 0", id="c1-negative"),
        pytest.param(_TRUTH_1 + "1.0,0.0,1.0,-1.0,0.5\n", "slope must be finite and > 0", id="alpha-negative"),
        pytest.param(_TRUTH_1 + "1.0,0.0,1.0,0.0,0.5\n", "slope must be finite and > 0", id="alpha-zero"),
        pytest.param(_TRUTH_1 + "1.0,0.0,1.0,deterministic,0.5\n", "c1 must be empty", id="deterministic-with-c1"),
        pytest.param(_TRUTH_1 + "1.0,0.0,1.0,2.0,\n", "c1 must be empty", id="alpha-without-c1"),
        pytest.param(_TRUTH_2 + "1.0,0.0,0.0,0.0,1.0,0.5,0.0,1.0,2.0,0.5\n", "not symmetric", id="sigma-asymmetric"),
        pytest.param(_TRUTH_2 + "1.0,0.0,0.0,0.0,1.0,2.0,2.0,1.0,2.0,0.5\n", "not positive definite", id="sigma-indefinite"),
        pytest.param("alpha,c1\n2.0,0.5\n", "square matrix", id="dimension-0"),
    ],
)
def test_read_truth_csv_rejects_bad_values_at_their_line(tmp_path, text, fragment):
    path = tmp_path / "t.truth.csv"
    path.write_text(text)
    with pytest.raises(CsvFormatError, match=f"t.truth.csv:2: .*{fragment}"):
        read_truth_csv(path)


@pytest.mark.parametrize("alpha,c1,fragment", [("2.0", "0.0", "c1 must be > 0"), ("-1.0", "0.5", "slope must be")])
def test_estimate_checks_the_truth_before_estimating(tmp_path, capsys, alpha, c1, fragment):
    out = _generate(tmp_path, d=2, n=20, m=50, pe=0.2)
    truth = out.with_suffix(".truth.csv")
    header, row = truth.read_text().splitlines()
    truth.write_text(f"{header}\n{','.join(row.split(',')[:-2] + [alpha, c1])}\n")
    rc = main(
        [
            "estimate",
            "--samples", str(out.with_suffix(".samples.csv")),
            "--comparisons", str(out.with_suffix(".comparisons.csv")),
            "--truth", str(truth),
            "--out", str(tmp_path / "bh.csv"),
        ]
    )
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert f"{truth}:2: {fragment}" in captured.err
    assert not (tmp_path / "bh.csv").exists()


def test_estimate_needs_enough_covariance_rows(tmp_path, capsys):
    out = _generate(tmp_path, d=3, n=5, m=4)  # generation is fine, estimation is not
    rc = main(
        [
            "estimate",
            "--samples", str(out.with_suffix(".samples.csv")),
            "--comparisons", str(out.with_suffix(".comparisons.csv")),
            "--out", str(tmp_path / "bh.csv"),
        ]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_estimate_missing_file(tmp_path, capsys):
    rc = main(
        [
            "estimate",
            "--samples", str(tmp_path / "nope.csv"),
            "--comparisons", str(tmp_path / "nope2.csv"),
        ]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_estimate_recovers_direction_at_scale(tmp_path, capsys):
    n = 30_000
    out = _generate(
        tmp_path, d=10, n=n, m=math.ceil(n * math.log(n)), pe=0.2, lam=0.005, seed=4242, prefix="big"
    )
    rc = main(
        [
            "estimate",
            "--samples", str(out.with_suffix(".samples.csv")),
            "--comparisons", str(out.with_suffix(".comparisons.csv")),
            "--truth", str(out.with_suffix(".truth.csv")),
            "--out", str(tmp_path / "bh.csv"),
        ]
    )
    assert rc == 0
    angle_line = capsys.readouterr().out.splitlines()[-1]
    assert float(angle_line.split("=")[1]) <= 0.3


# --- calibrate -------------------------------------------------------------

def _parse_calibrate(stdout):
    fields = dict(part.split("=") for part in stdout.split())
    return {k: float(v) for k, v in fields.items()}


def test_calibrate_forward(capsys):
    assert main(["calibrate", "--alpha", "1", "--sigma-s", "1"]) == 0
    got = _parse_calibrate(capsys.readouterr().out)
    law = ScoreDifferenceLaw(1.0)
    assert got["alpha"] == 1.0
    assert got["c1"] == estimate_c1(LogisticLink(1.0), law)
    assert got["pe"] == estimate_pe(LogisticLink(1.0), law)


def test_calibrate_solves_and_round_trips(capsys):
    assert main(["calibrate", "--pe", "0.2", "--sigma-s", "2"]) == 0
    got = _parse_calibrate(capsys.readouterr().out)
    assert abs(got["pe"] - 0.2) <= 1e-6
    law = ScoreDifferenceLaw(2.0)
    assert abs(estimate_pe(LogisticLink(got["alpha"]), law) - 0.2) <= 1e-6


def test_calibrate_from_parameter_files(tmp_path, capsys):
    truth = tmp_path / "t.truth.csv"
    truth.write_text(_TRUTH_2 + "1.0,0.0,5.0,-5.0,1.0,0.0,0.0,1.0,deterministic,\n")
    rc = main(["calibrate", "--alpha", "1", "--truth", str(truth)])
    assert rc == 0
    got = _parse_calibrate(capsys.readouterr().out)
    # identity covariance and a unit direction put sigma_s at sqrt(2)
    assert got["c1"] == estimate_c1(LogisticLink(1.0), ScoreDifferenceLaw(math.sqrt(2)))


@pytest.mark.parametrize(
    "argv",
    [
        ["calibrate", "--alpha", "1", "--pe", "0.2", "--sigma-s", "1"],
        ["calibrate", "--sigma-s", "1"],
        ["calibrate", "--alpha", "1"],
        ["calibrate", "--alpha", "1", "--sigma-s", "1", "--truth", "x.csv"],
        ["calibrate", "--truth", "x.csv"],
    ],
)
def test_calibrate_usage_errors(argv, capsys):
    assert main(argv) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "text,fragment",
    [
        pytest.param(_TRUTH_1 + "inf,0.0,1.0,2.0,0.5\n", "t.truth.csv:2: value is not finite", id="non-finite"),
        pytest.param("beta_1,mu_1,sigma_1_1,c1\n1.0,0.0,1.0,0.5\n", "t.truth.csv:1: expected header", id="bad-header"),
        pytest.param(_TRUTH_1 + "1.0,0.0,1.0,2.0,0.5\n" * 2, "t.truth.csv: expected one data row, got 2", id="two-rows"),
    ],
)
def test_calibrate_rejects_malformed_parameter_files(tmp_path, capsys, text, fragment):
    (tmp_path / "t.truth.csv").write_text(text)
    assert main(["calibrate", "--alpha", "1", "--truth", str(tmp_path / "t.truth.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and fragment in captured.err


def test_calibrate_unreachable_target(capsys):
    # the slope for p_e = 1e-320 would overflow a float
    assert main(["calibrate", "--pe", "1e-320", "--sigma-s", "1"]) == 1
    assert "target_pe = 1e-320" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["--alpha", "inf", "--sigma-s", "1"], "slope must be finite"),
        (["--alpha", "1", "--sigma-s", "inf"], "sigma_s must be finite"),
        (["--alpha", "1e300", "--sigma-s", "1e10"], "slope=1e+300) at sigma_s = 10000000000.0 is steeper"),
        (["--pe", "0.2", "--sigma-s", "1e-320"], "sigma_s = 1e-320 needs a slope beyond"),
    ],
)
def test_calibrate_rejects_slopes_it_cannot_serve(argv, fragment, capsys):
    assert main(["calibrate", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and fragment in captured.err


@pytest.mark.parametrize("alpha", ["1e-16", "1e-300", "1e-320"])
def test_calibrate_flat_links_stay_within_the_coin_flip_limit(alpha, capsys):
    assert main(["calibrate", "--alpha", alpha, "--sigma-s", "1"]) == 0
    got = _parse_calibrate(capsys.readouterr().out)
    assert got["pe"] <= 0.5 and got["c1"] > 0


def test_calibrate_near_coin_flip_target(capsys):
    assert main(["calibrate", "--pe", "0.49999", "--sigma-s", "1"]) == 0
    got = _parse_calibrate(capsys.readouterr().out)
    assert math.isclose(got["pe"], 0.49999, rel_tol=1e-12)


# --- sweep and min-n -------------------------------------------------------

def test_sweep_command_writes_both_files(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("d = 2\nswept_parameter = n\ngrid = 30, 60\nrepetitions = 2\n")
    rc = main(["sweep", "--config", str(cfg), "--out-prefix", str(tmp_path / "sw")])
    assert rc == 0
    assert capsys.readouterr().err == ""
    assert len(_data_lines(tmp_path / "sw.trials.csv")) == 4
    assert len(_data_lines(tmp_path / "sw.agg.csv")) == 2


def test_sweep_command_warns_about_failed_trials(tmp_path, capsys, monkeypatch):
    def fail(target_pe, law):
        raise ValueError("injected calibration failure")

    monkeypatch.setattr(rankreg.harness, "solve_alpha_for_pe", fail)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "d = 2\nswept_parameter = n\ngrid = 30, 60\nrepetitions = 2\ntarget_pe = 0.2\n"
    )
    rc = main(["sweep", "--config", str(cfg), "--out-prefix", str(tmp_path / "sw")])
    assert rc == 0
    assert "warning: 4 of 4 trials failed" in capsys.readouterr().err


def test_sweep_command_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("d = 2\nswept_parameter = n\n")
    assert main(["sweep", "--config", str(cfg), "--out-prefix", str(tmp_path / "sw")]) == 1
    assert "missing required key 'grid'" in capsys.readouterr().err


def test_min_n_command_finds_and_reports(tmp_path, capsys):
    cfg = tmp_path / "minn.cfg"
    cfg.write_text("d = 2\nn_grid = 30, 60\nangle_threshold = 3.1\nrepetitions = 2\n")
    rc = main(["min-n", "--config", str(cfg), "--out-prefix", str(tmp_path / "mn")])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "30"
    assert (tmp_path / "mn.trials.csv").exists() and (tmp_path / "mn.agg.csv").exists()


def test_min_n_command_reports_not_found(tmp_path, capsys):
    cfg = tmp_path / "minn.cfg"
    cfg.write_text("d = 2\nn_grid = 30, 60\nangle_threshold = 1e-9\nrepetitions = 2\n")
    rc = main(["min-n", "--config", str(cfg), "--out-prefix", str(tmp_path / "mn")])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "not-found"


# --- usage -----------------------------------------------------------------

@pytest.mark.parametrize("argv", [[], ["frobnicate"], ["generate", "--wat"], ["generate"]])
def test_usage_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    capsys.readouterr()


def test_package_all_lists_every_public_name_and_no_module():
    assert not [name for name in rankreg.__all__ if inspect.ismodule(getattr(rankreg, name))]
    public = {name for name, value in vars(rankreg).items() if not name.startswith("_")}
    assert set(rankreg.__all__) == {name for name in public if not inspect.ismodule(getattr(rankreg, name))}


def test_cli_import_loads_no_scipy_solver_or_integrator():
    # scipy.optimize alone adds ~0.2 s and ~16 MiB to every CLI start
    code = "import sys, rankreg.cli; print(sorted(m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_console_script_is_installed():
    exe = shutil.which("rankreg")
    assert exe is not None
    proc = subprocess.run(
        [exe, "calibrate", "--alpha", "1", "--sigma-s", "1"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("c1=")
