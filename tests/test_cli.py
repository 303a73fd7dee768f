"""End-to-end tests of the command line, driven in process through main().

Subprocess tests check the installed console script, the import footprint,
a warning-clean forked write and a write over the file size limit; everything
else calls main(argv) directly so coverage and tracebacks stay usable.
"""

import errno
import inspect
import io
import math
import os
import resource
import shutil
import signal
import subprocess
import sys

import numpy as np
import pytest

import rankreg
from rankreg import (
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
    write_comparisons_csv,
    write_samples_csv,
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
    model, c1 = read_truth_csv(_generate(tmp_path, prefix="a").with_suffix(".truth.csv"))
    assert isinstance(model.link, DeterministicLink) and c1 is None
    model, c1 = read_truth_csv(_generate(tmp_path, pe=0.2, prefix="b").with_suffix(".truth.csv"))
    assert model.link.slope > 0 and c1 > 0


def test_generate_calibrates_a_low_noise_target(tmp_path):
    model, c1 = read_truth_csv(_generate(tmp_path, pe=1e-4).with_suffix(".truth.csv"))
    assert model.link.slope > 0 and c1 > 0


@pytest.mark.parametrize("pe", [0.0, 0.2])
def test_read_truth_csv_returns_the_realized_model(tmp_path, pe):
    out = _generate(tmp_path, d=3, n=10, m=5, pe=pe, lam=0.3, seed=9)
    model, alpha, c1 = realize_model(RngStream(9), 3, 0.3, pe)
    got, got_c1 = read_truth_csv(out.with_suffix(".truth.csv"))
    assert np.array_equal(got.beta, model.beta) and np.array_equal(got.mu, model.mu)
    assert np.array_equal(got.sigma.entries, model.sigma.entries)
    assert (got.link, got_c1) == (model.link, c1)
    if pe:
        assert isinstance(got.link, LogisticLink) and got.link.slope == alpha
    else:
        assert isinstance(got.link, DeterministicLink)


@pytest.mark.parametrize(
    "flags,message",
    [
        pytest.param(["--n", "10", "--lambda-min", "0"], "lambda_min must lie in (0, 1]", id="0"),
        pytest.param(["--n", "10", "--lambda-min", "1.5"], "lambda_min must lie in (0, 1]", id="1.5"),
        # estimate needs N > d + 2 covariance rows, so generate refuses to write fewer
        pytest.param(["--n", "4"], "n must exceed d + 2", id="n=d+1"),
        pytest.param(["--n", "5"], "n must exceed d + 2", id="n=d+2"),
    ],
)
def test_generate_rejects_a_spectrum_floor_outside_the_unit_interval(tmp_path, capsys, flags, message):
    argv = ["generate", "--d", "3", "--m", "5", *flags]
    assert main([*argv, "--out-prefix", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_a_failed_generate_leaves_the_older_set_or_none(tmp_path, monkeypatch, capsys):
    def write_truth_csv(*args):
        raise OSError("injected truth fault")

    monkeypatch.setattr(rankreg.cli, "write_truth_csv", write_truth_csv)
    argv = ["generate", "--d", "2", "--n", "10", "--m", "5", "--seed", "1", "--out-prefix"]
    assert main([*argv, str(tmp_path / "new")]) == 1
    assert "injected truth fault" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())  # no samples or comparisons file without its truth, and no stage
    monkeypatch.undo()
    old = _generate(tmp_path, seed=0, prefix="old")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr(rankreg.cli, "write_truth_csv", write_truth_csv)
    assert main([*argv, str(old)]) == 1
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_each_file_of_a_set_is_staged_once(tmp_path, monkeypatch):
    # a table written into generate's or write_results' set is committed by the set, not staged again
    made, renamed = [], []
    real_open, real_replace = os.open, os.replace

    def counting_open(path, flags, *args):
        if flags & os.O_CREAT and flags & os.O_EXCL:
            made.append(path)
        return real_open(path, flags, *args)

    def counting_replace(src, dst):
        renamed.append(os.path.basename(dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "open", counting_open)
    monkeypatch.setattr(os, "replace", counting_replace)
    _generate(tmp_path)
    assert (len(made), sorted(renamed)) == (3, ["out.comparisons.csv", "out.samples.csv", "out.truth.csv"])
    made.clear()
    renamed.clear()
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("d = 2\nswept_parameter = n\ngrid = 30\nrepetitions = 1\n")
    assert main(["sweep", "--config", str(cfg), "--out-prefix", str(tmp_path / "sw")]) == 0
    assert (len(made), sorted(renamed)) == (2, ["sw.agg.csv", "sw.trials.csv"])
    assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


@pytest.mark.parametrize("everywhere", [False, True], ids=["fault-in-children", "fault-in-every-process"])
def test_a_failed_writer_child_in_generate_is_redone_and_a_shared_fault_names_the_file(
    tmp_path, monkeypatch, capfd, everywhere
):
    parent_pid = os.getpid()
    real_write_rows = rankreg.comparisons._write_rows

    def write_rows(*args):
        if everywhere or os.getpid() != parent_pid:
            raise OSError("injected fault")
        real_write_rows(*args)

    argv = ["generate", "--d", "2", "--n", "10000", "--m", "5", "--out-prefix"]
    monkeypatch.setattr(rankreg.comparisons, "_cpu_count", lambda: 1)
    assert main([*argv, str(tmp_path / "one")]) == 0
    # 20,000 sample rows are three blocks: this process writes the first, one child the other two
    monkeypatch.setattr(rankreg.comparisons, "_cpu_count", lambda: 2)
    monkeypatch.setattr(rankreg.comparisons, "_write_rows", write_rows)
    (tmp_path / "out").mkdir()
    prefix = tmp_path / "out" / "o"
    if everywhere:
        assert main([*argv, str(prefix)]) == 1
        assert capfd.readouterr().err == f"error: {prefix}.samples.csv: injected fault\n"
        assert not list(prefix.parent.iterdir())  # no set and no stage
    else:
        assert main([*argv, str(prefix)]) == 0
        assert capfd.readouterr().err == ""
        for suffix in ("samples", "comparisons", "truth"):
            assert (tmp_path / f"out/o.{suffix}.csv").read_bytes() == (tmp_path / f"one.{suffix}.csv").read_bytes()


@pytest.mark.parametrize("n", [2000, 50000])
def test_a_write_over_the_file_size_limit_names_the_table(tmp_path, n):
    # at n = 50,000 the samples table is split across processes, and every worker meets the limit too
    def limit():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (200_000, 200_000))

    prefix = tmp_path / "out"
    argv = ["generate", "--d", "5", "--n", str(n), "--m", "1000", "--pe", "0.2", "--out-prefix", str(prefix)]
    proc = subprocess.run([sys.executable, "-m", "rankreg", *argv], capture_output=True, text=True, preexec_fn=limit)
    error = f"[Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: '{prefix}.samples.csv'"
    assert (proc.returncode, proc.stderr) == (1, f"error: {error}\n")
    assert not list(tmp_path.iterdir())  # no file of the set and no stage


def test_a_failed_rename_names_the_file_given_and_leaves_each_file_whole(tmp_path, monkeypatch, capsys):
    # a failure among the final renames leaves the files renamed before it new beside the older ones
    for name in ("new", "set"):
        (tmp_path / name).mkdir()
    new = _generate(tmp_path, seed=1, prefix="new/o")
    prefix = _generate(tmp_path, seed=0, prefix="set/o")
    old = {p.name: p.read_bytes() for p in prefix.parent.iterdir()}
    renamed, real_replace = [], os.replace

    def replace(src, dst):
        renamed.append(dst)
        if len(renamed) == 2:
            raise OSError(errno.EBUSY, os.strerror(errno.EBUSY), src, dst)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    argv = ["generate", "--d", "2", "--n", "10", "--m", "5", "--seed", "1", "--out-prefix", str(prefix)]
    assert main(argv) == 1
    error = f"[Errno {errno.EBUSY}] {os.strerror(errno.EBUSY)}: '{prefix}.comparisons.csv'"
    assert capsys.readouterr() == ("", f"error: {error}\n")
    want = {**old, "o.samples.csv": (new.parent / "o.samples.csv").read_bytes()}
    assert {p.name: p.read_bytes() for p in prefix.parent.iterdir()} == want  # and no stage


@pytest.mark.parametrize(
    "argv,given",
    [
        (["generate", "--d", "2", "--n", "10", "--m", "5", "--out-prefix", "missing/out"], "missing/out.samples.csv"),
        (
            ["estimate", "--samples=out.samples.csv", "--comparisons=out.comparisons.csv", "--out=missing/b.csv"],
            "missing/b.csv",
        ),
        (["sweep", "--config", "sweep.cfg", "--out-prefix", "missing/s"], "missing/s.trials.csv"),
    ],
    ids=["generate", "estimate", "sweep"],
)
def test_a_missing_directory_is_reported_by_the_path_given(tmp_path, monkeypatch, capsys, argv, given):
    monkeypatch.chdir(tmp_path)
    _generate(tmp_path)
    (tmp_path / "sweep.cfg").write_text("d = 2\nswept_parameter = n\ngrid = 30\nrepetitions = 1\n")
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: '{given}'\n")
    assert sorted(tmp_path.iterdir()) == before


class _FailingReads(io.RawIOBase):
    """A file that opened, but whose every read fails with EIO, as /proc/self/mem does at offset 0 on Linux."""

    def readable(self):
        return True

    def readinto(self, buffer):
        raise OSError(errno.EIO, os.strerror(errno.EIO))


@pytest.mark.parametrize(
    "argv,given",
    [
        (["estimate", "--samples=out.samples.csv", "--comparisons=out.comparisons.csv"], "out.samples.csv"),
        (["estimate", "--samples=out.samples.csv", "--comparisons=out.comparisons.csv"], "out.comparisons.csv"),
        (
            ["estimate", "--samples=out.samples.csv", "--comparisons=out.comparisons.csv", "--truth=out.truth.csv"],
            "out.truth.csv",
        ),
        (["calibrate", "--pe", "0.2", "--truth", "out.truth.csv"], "out.truth.csv"),
        (["sweep", "--config", "sweep.cfg"], "sweep.cfg"),
        (["min-n", "--config", "minn.cfg"], "minn.cfg"),
    ],
    ids=["samples", "comparisons", "estimate-truth", "calibrate-truth", "sweep-config", "min-n-config"],
)
def test_a_failed_read_is_reported_by_the_path_given(tmp_path, monkeypatch, capsys, argv, given):
    # a read that fails once its file is open raises an OSError that names no file of itself
    monkeypatch.chdir(tmp_path)
    _generate(tmp_path)
    (tmp_path / "sweep.cfg").write_text("d = 2\nswept_parameter = n\ngrid = 30\nrepetitions = 1\n")
    (tmp_path / "minn.cfg").write_text("d = 2\nn_grid = 30\nrepetitions = 1\n")
    real_open = open

    def open_then_fail(path, mode="r", *args, **kwargs):
        f = real_open(path, mode, *args, **kwargs)
        if os.fspath(path) != given:
            return f
        f.close()
        failing = io.BufferedReader(_FailingReads())
        return failing if "b" in mode else io.TextIOWrapper(failing)

    for module in (rankreg.comparisons, rankreg.harness):
        monkeypatch.setattr(module, "open", open_then_fail, raising=False)
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: [Errno {errno.EIO}] {os.strerror(errno.EIO)}: '{given}'\n")
    assert sorted(tmp_path.iterdir()) == before


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


def test_estimate_with_truth_rejects_a_zero_estimate_before_writing_or_printing(tmp_path, capsys):
    out = _generate(tmp_path, d=2, n=10, m=5, pe=0.2, seed=1)
    self_pairs = tmp_path / "self.csv"
    self_pairs.write_text("i,j,y\n1,1,1\n2,2,-1\n")  # every label weight cancels, so beta_hat = 0
    rc = main(
        [
            "estimate",
            "--samples", str(out.with_suffix(".samples.csv")),
            "--comparisons", str(self_pairs),
            "--truth", str(out.with_suffix(".truth.csv")),
            "--out", str(tmp_path / "bh.csv"),
        ]
    )
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith(f"error: {self_pairs}: ") and "zero" in captured.err
    assert not (tmp_path / "bh.csv").exists()


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


@pytest.mark.parametrize("command", ["estimate", "calibrate"])
def test_a_truth_of_zero_weights_is_rejected_at_its_line(tmp_path, capsys, command):
    # the angle to a zero beta and the noise rate of its score differences are undefined
    out = _generate(tmp_path, d=2, n=10, m=5, pe=0.2, seed=1)
    truth = out.with_suffix(".truth.csv")
    header, row = truth.read_text().splitlines()
    truth.write_text(f"{header}\n{','.join(['0.0', '0.0'] + row.split(',')[2:])}\n")
    before = sorted(tmp_path.iterdir())
    args = {
        "estimate": [
            "--samples", str(out.with_suffix(".samples.csv")),
            "--comparisons", str(out.with_suffix(".comparisons.csv")),
            "--out", str(tmp_path / "bh.csv"),
        ],
        "calibrate": ["--pe", "0.2"],
    }[command]
    rc = main([command, *args, "--truth", str(truth)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith(f"error: {truth}:2: ") and "beta" in captured.err
    assert sorted(tmp_path.iterdir()) == before


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
    with pytest.raises(ValueError, match=f"t.truth.csv:2: .*{fragment}"):
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
    # generate refuses n <= d + 2, so the library writes the files estimate must refuse
    model, _, _ = realize_model(RngStream(0), 3, 1.0, 0.0)
    samples, dataset = simulate(RngStream(0), model, 5, 4)
    write_samples_csv(samples, tmp_path / "out.samples.csv")
    write_comparisons_csv(dataset, tmp_path / "out.comparisons.csv")
    rc = main(
        [
            "estimate",
            "--samples", str(tmp_path / "out.samples.csv"),
            "--comparisons", str(tmp_path / "out.comparisons.csv"),
            "--out", str(tmp_path / "bh.csv"),
        ]
    )
    assert rc == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'out.samples.csv'}: need N > d + 2, got N=5, d=3\n"


def test_estimate_reports_a_singular_covariance_half(tmp_path, capsys):
    out = _generate(tmp_path, d=2, n=10, m=5)
    path = out.with_suffix(".samples.csv")
    lines = path.read_text().splitlines()
    lines[11:] = [lines[11]] * 10  # the covariance half: sample rows n + 1 ... 2n, all identical
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
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert not (tmp_path / "bh.csv").exists()


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
        (["--alpha", "5e-324", "--sigma-s", "1"], "slope=5e-324) at sigma_s = 1.0 is too flat: c1 underflows"),
        (["--alpha", "1e-322", "--sigma-s", "1e-2"], "slope=1e-322) at sigma_s = 0.01 is too flat: c1 underflows"),
        (["--alpha", "1e-320", "--sigma-s", "1"], "slope=1e-320) at sigma_s = 1.0 is too flat: c1 underflows"),
        (["--alpha", "2e-322", "--sigma-s", "1"], "slope=2e-322) at sigma_s = 1.0 is too flat: c1 underflows"),
    ],
)
def test_calibrate_rejects_slopes_it_cannot_serve(argv, fragment, capsys):
    assert main(["calibrate", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and fragment in captured.err


@pytest.mark.parametrize("alpha", ["1e-16", "1e-300"])
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


@pytest.mark.parametrize(
    "command,keys,out",
    [
        pytest.param("sweep", "swept_parameter = n\ngrid = 30, 60\n", "", id="sweep"),
        pytest.param("min-n", "n_grid = 30, 60\n", "not-found\n", id="min-n"),
    ],
)
def test_sweep_command_warns_about_failed_trials(tmp_path, capsys, monkeypatch, command, keys, out):
    def fail(target_pe, law):
        raise ValueError("injected calibration failure")

    monkeypatch.setattr(rankreg.harness, "solve_alpha_for_pe", fail)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"d = 2\n{keys}repetitions = 2\ntarget_pe = 0.2\n")
    rc = main([command, "--config", str(cfg), "--out-prefix", str(tmp_path / "sw")])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out == out and "warning: 4 of 4 trials failed" in captured.err


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


def test_running_out_of_memory_is_one_error_line(tmp_path, monkeypatch, capsys):
    def simulate(stream, model, n, m):  # as numpy's own MemoryError subclass would, without allocating
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type int64")

    monkeypatch.setattr(rankreg.cli, "simulate", simulate)
    argv = ["generate", "--d", "2", "--n", "10", "--m", "1000000000000", "--out-prefix", str(tmp_path / "o")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: Unable to allocate 7.28 TiB")
    assert captured.err.count("\n") == 1
    assert os.listdir(tmp_path) == []


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
    # the runtime is numpy only: importing scipy.special or scipy.linalg adds ~0.4 s to every CLI start
    code = "import sys, rankreg, rankreg.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_forked_generate_is_warning_clean_and_matches_one_process(tmp_path, monkeypatch, capsys):
    # n = 5000 writes 10,000 sample rows, more than one block, so the writer and the readers fork
    argv = ["generate", "--d", "3", "--n", "5000", "--m", "20000", "--pe", "0.2", "--seed", "4", "--out-prefix"]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "rankreg", *argv, str(tmp_path / "forked")], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    monkeypatch.setattr(rankreg.comparisons, "_cpu_count", lambda: 1)
    assert main([*argv, str(tmp_path / "serial")]) == 0
    assert capsys.readouterr().out == proc.stdout
    for suffix in ("samples", "comparisons", "truth"):
        assert (tmp_path / f"forked.{suffix}.csv").read_bytes() == (tmp_path / f"serial.{suffix}.csv").read_bytes()

    def estimate(prefix):
        files = [f"--{kind}={tmp_path / f'forked.{kind}.csv'}" for kind in ("samples", "comparisons", "truth")]
        return ["estimate", *files, f"--out={tmp_path / prefix}.beta_hat.csv"]

    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "rankreg", *estimate("forked")], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert main(estimate("serial")) == 0
    assert capsys.readouterr().out == proc.stdout
    assert (tmp_path / "forked.beta_hat.csv").read_bytes() == (tmp_path / "serial.beta_hat.csv").read_bytes()


def test_console_script_is_installed():
    exe = shutil.which("rankreg")
    assert exe is not None
    proc = subprocess.run(
        [exe, "calibrate", "--alpha", "1", "--sigma-s", "1"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("c1=")
