"""The benchmark's three workloads: what one operation is and how its output is checked.

Every workload runs one closed-loop client in one process: the next operation
starts only after the previous one has finished.  All inputs derive from the
run's seed.  Each run repeats one computation with the same seed and requires
the same output bytes, and checks outputs against references that do not
share the program's code.  Only the stdlib and numpy are imported at the top,
so that a set-up probe pays for nothing but the program and its warm-up.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

PE = 0.2
LAMBDA_MIN = 0.1
# Angle bounds, each about twice the largest value measured, so a miss means a
# wrong estimate, not an unlucky draw.  The --tiny sizes of the smoke test have
# far fewer samples and get their own, looser bound.
CLI_ANGLE_MAX = 0.05  # 0.008-0.025 rad over 25 seeds at d = 10, n = 1e5, p_e = 0.2
SWEEP_MEAN_ANGLE_MAX = 0.8  # grid-point mean over 20 reps; at n = 100, 0.55 +- 0.04 and at most 0.65 over 400 seeds
LARGE_ANGLE_MAX = 0.1  # 0.031-0.047 rad over 24 trials at d = 50, n = 1e5, noiseless
TINY_ANGLE_MAX = 0.6  # d = 10, n = 2000
TINY_SWEEP_MEAN_ANGLE_MAX = math.pi / 2  # 2 reps at n = 100: no better than orthogonal is wrong


@dataclasses.dataclass
class OpResult:
    seconds: float
    trials: int
    errors: list
    parts: dict = dataclasses.field(default_factory=dict)  # step name -> seconds
    rss_kib: int = 0  # peak RSS of the child processes that did the work, if any


NO_SCOPE = contextlib.nullcontext()


def m_rule(n: int) -> int:
    return math.ceil(n * math.log(n))


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Workload:
    """One workload bound to a seed, a scratch directory and a size."""

    name = ""
    # True when operations run inside this process, so its own peak RSS is
    # the work's; False when they run in child processes.
    in_process = True

    def __init__(self, seed: int, work: Path, src: Path, tiny: bool = False, corrupt: bool = False):
        self.seed, self.work, self.src, self.tiny, self.corrupt = seed, work, src, tiny, corrupt
        self.tolerance_misses = 0  # realized models whose p_e misses the 1e-6 promise

    def warm_up(self) -> None:
        """Import the program and run one untimed operation."""
        raise NotImplementedError

    def op(self, index: int, scope=NO_SCOPE) -> OpResult:
        """One timed operation, checked.  ``scope`` is entered around the program calls only."""
        raise NotImplementedError

    def op_in_process(self, index: int, scope=NO_SCOPE) -> OpResult:
        """The same operation without child processes, so it can be traced."""
        return self.op(index, scope)


class CliDisk(Workload):
    """``python -m rankreg generate`` then ``estimate``, each a fresh process, files on disk."""

    name = "cli-disk"
    in_process = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.d, self.n = (10, 2000) if self.tiny else (10, 100000)
        self.m = m_rule(self.n)
        self.angle_max = TINY_ANGLE_MAX if self.tiny else CLI_ANGLE_MAX
        self.reference = None  # hashes of the first operation's files

    def _generate_args(self, prefix: Path) -> list:
        return ["generate", "--d", str(self.d), "--n", str(self.n), "--m", str(self.m), "--pe", str(PE),
                "--lambda-min", str(LAMBDA_MIN), "--seed", str(self.seed), "--out-prefix", str(prefix)]

    @staticmethod
    def _estimate_args(prefix: Path) -> list:
        return ["estimate", "--samples", f"{prefix}.samples.csv", "--comparisons", f"{prefix}.comparisons.csv",
                "--truth", f"{prefix}.truth.csv", "--out", f"{prefix}.beta_hat.csv"]

    def _child(self, args: list, log: Path) -> tuple[float, int, int]:
        """Run ``python -m rankreg <args>``; returns (seconds, exit code, peak RSS in KiB)."""
        env = dict(os.environ, PYTHONPATH=str(self.src))
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "rankreg", *args], stdout=out,
                                    stderr=subprocess.STDOUT, env=env)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4; tell Popen so
        return seconds, proc.returncode, usage.ru_maxrss

    def warm_up(self) -> None:
        # Each timed operation is a fresh process, so nothing warmed here
        # carries over; the warm-up is a small in-process pipeline so that
        # set-up time still covers the program's first-call costs.
        import rankreg.cli

        prefix = self.work / "warm-up" / "data"
        prefix.parent.mkdir(parents=True, exist_ok=True)
        n = 1000
        args = ["generate", "--d", str(self.d), "--n", str(n), "--m", str(m_rule(n)), "--pe", str(PE),
                "--lambda-min", str(LAMBDA_MIN), "--seed", str(self.seed), "--out-prefix", str(prefix)]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = rankreg.cli.main(args), rankreg.cli.main(self._estimate_args(prefix))
        shutil.rmtree(prefix.parent)
        if codes != (0, 0):
            raise RuntimeError(f"warm-up pipeline exited with {codes}")

    def _finish_op(self, prefix: Path, stdout: str, result: OpResult) -> OpResult:
        if not result.errors:
            result.errors += self._check(prefix, stdout)
        shutil.rmtree(prefix.parent)
        return result

    def op(self, index: int, scope=NO_SCOPE) -> OpResult:
        prefix = self.work / f"op{index}" / "data"
        prefix.parent.mkdir(parents=True)
        log = prefix.parent / "log"
        gen_s, gen_code, gen_rss = self._child(self._generate_args(prefix), log)
        if gen_code == 0 and self.corrupt:
            self._corrupt(prefix)
        est_s, est_code, est_rss = self._child(self._estimate_args(prefix), log) if gen_code == 0 else (0.0, -1, 0)
        errors = [] if (gen_code, est_code) == (0, 0) else [
            f"exit codes generate={gen_code} estimate={est_code}: {log.read_text()[-500:]}"]
        result = OpResult(gen_s + est_s, 1, errors, {"generate_s": gen_s, "estimate_s": est_s},
                          max(gen_rss, est_rss))
        return self._finish_op(prefix, log.read_text(), result)

    def op_in_process(self, index: int, scope=NO_SCOPE) -> OpResult:
        import rankreg.cli

        prefix = self.work / f"op{index}" / "data"
        prefix.parent.mkdir(parents=True)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            with scope:
                start = time.perf_counter()
                gen_code = rankreg.cli.main(self._generate_args(prefix))
                gen_s = time.perf_counter() - start
            if gen_code == 0 and self.corrupt:
                self._corrupt(prefix)
            with scope:
                start = time.perf_counter()
                est_code = rankreg.cli.main(self._estimate_args(prefix)) if gen_code == 0 else -1
                est_s = time.perf_counter() - start
        errors = [] if (gen_code, est_code) == (0, 0) else [f"exit codes generate={gen_code} estimate={est_code}"]
        result = OpResult(gen_s + est_s, 1, errors, {"generate_s": gen_s, "estimate_s": est_s})
        return self._finish_op(prefix, out.getvalue(), result)

    @staticmethod
    def _corrupt(prefix: Path) -> None:
        """Fault injection for the smoke test: flip every tenth label on disk."""
        path = Path(f"{prefix}.comparisons.csv")
        lines = path.read_text().splitlines()
        for k in range(1, len(lines), 10):
            i, j, y = lines[k].split(",")
            lines[k] = f"{i},{j},{-int(y)}"
        path.write_text("\n".join(lines) + "\n")

    def _check(self, prefix: Path, stdout: str) -> list:
        files = [Path(f"{prefix}.{kind}.csv") for kind in ("samples", "comparisons", "truth", "beta_hat")]
        hashes = [_sha256(p) for p in files]
        if self.reference is not None:
            return [f"{p.name} differs from the first operation's" for p, h, r in zip(files, hashes, self.reference)
                    if h != r]
        self.reference = hashes
        return self._check_first(prefix, stdout)

    def _check_first(self, prefix: Path, stdout: str) -> list:
        import oracle

        d, n = self.d, self.n
        with open(f"{prefix}.truth.csv", newline="") as f:
            header, row = list(csv.reader(f))
        if len(row) != 2 * d + d * d + 2 or header[-2:] != ["alpha", "c1"]:
            return [f"truth file has {len(row)} fields, expected {2 * d + d * d + 2}"]
        beta = np.array(row[:d], dtype=float)
        sigma = np.array(row[2 * d:2 * d + d * d], dtype=float).reshape(d, d)
        alpha, c1 = float(row[-2]), float(row[-1])
        errors, missed = oracle.check_calibration(alpha, c1, PE, oracle.sigma_s_of(beta, sigma))
        self.tolerance_misses += missed
        samples = np.loadtxt(f"{prefix}.samples.csv", delimiter=",", skiprows=1, ndmin=2)
        triples = np.loadtxt(f"{prefix}.comparisons.csv", delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
        if samples.shape != (2 * n, d) or triples.shape != (self.m, 3):
            return errors + [f"file shapes {samples.shape} and {triples.shape}, expected {(2 * n, d)} and {(self.m, 3)}"]
        scores = samples[:n] @ beta
        errors += oracle.flip_check(scores, triples[:, 0] - 1, triples[:, 1] - 1, triples[:, 2], alpha, PE)
        beta_hat = np.loadtxt(f"{prefix}.beta_hat.csv", delimiter=",", skiprows=1)[2:]
        cosine = float(beta_hat @ beta) / float(np.linalg.norm(beta_hat) * np.linalg.norm(beta))
        angle = math.acos(max(-1.0, min(1.0, cosine)))
        printed = {k: v for k, _, v in (line.partition("=") for line in stdout.splitlines()) if v}
        if not angle < self.angle_max:
            errors.append(f"angle {angle!r} to the truth is not below {self.angle_max}")
        if "angle" not in printed or not abs(float(printed["angle"]) - angle) <= 1e-9:
            errors.append(f"printed angle {printed.get('angle')} differs from the reference {angle!r}")
        return errors


class SweepSmall(Workload):
    """In-process ``run_sweep`` of an n-sweep, then ``write_results``.

    Operation k sweeps with master seed ``seed * 1_000_000 + k``.  How long a
    sweep takes depends on its 20 realized models (the slope solver's
    iteration count differs between models), so one seed per run would make
    the run's median a property of 20 draws; a fresh seed per operation
    averages over all of them.  The warm-up runs operation 0's sweep, and operation 0
    must reproduce its output byte for byte.
    """

    name = "sweep-small"

    def _spec(self, index: int):
        harness = self.harness
        reps, grid = (2, (100, 200)) if self.tiny else (20, (100, 200, 300, 500, 1000))
        base = harness.TrialConfig(d=10, n=grid[0], m=m_rule(grid[0]), lambda_min=LAMBDA_MIN, target_pe=PE,
                                   repetitions=reps, master_seed=self.seed * 1_000_000 + index)
        return harness.SweepSpec(base, "n", grid, "n_log_n")

    def _output(self) -> tuple[list, bytes]:
        """trials.csv lines without wall_time_s, the one field same-seed sweeps may differ in, and agg.csv."""
        trials = Path(f"{self.prefix}.trials.csv").read_text().splitlines()
        return [line.rsplit(",", 1)[0] for line in trials], Path(f"{self.prefix}.agg.csv").read_bytes()

    def warm_up(self) -> None:
        from rankreg import harness

        self.harness = harness
        self.prefix = self.work / "sweep"
        harness.write_results(harness.run_sweep(self._spec(0)), self.prefix)
        self.reference = self._output()

    def op(self, index: int, scope=NO_SCOPE) -> OpResult:
        spec = self._spec(index)
        with scope:
            start = time.perf_counter()
            result = self.harness.run_sweep(spec)
            self.harness.write_results(result, self.prefix)
            seconds = time.perf_counter() - start
        if self.corrupt:
            self._corrupt()
        errors = self._check(result)
        if index == 0:
            errors += self._check_first(spec)
        return OpResult(seconds, len(result.rows), errors)

    def _corrupt(self) -> None:
        """Fault injection for the smoke test: change one c1 value on disk."""
        path = Path(f"{self.prefix}.trials.csv")
        header, first, *rest = path.read_text().splitlines()
        fields = first.split(",")
        fields[8] = repr(float(fields[8]) * 1.01)
        path.write_text("\n".join([header, ",".join(fields), *rest]) + "\n")

    def _check(self, result) -> list:
        harness = self.harness
        errors = [f"trial failed: {row.message}" for row in result.rows if isinstance(row, harness.TrialFailure)]
        bound = TINY_SWEEP_MEAN_ANGLE_MAX if self.tiny else SWEEP_MEAN_ANGLE_MAX
        for agg in result.aggregates:
            if agg.angle_mean is None or not agg.angle_mean < bound:
                errors.append(f"n={agg.grid_value}: mean angle {agg.angle_mean} is not below {bound}")
        written = [line.split(",") for line in self._output()[0][1:]]
        computed = [[str(row.config.n), str(row.repetition_index), repr(row.angle), repr(row.c1_used)]
                    for row in result.rows if isinstance(row, harness.TrialResult)]
        if [[f[1], f[5], f[7], f[8]] for f in written] != computed:
            errors.append("trials.csv does not hold the n, rep, angle and c1 that run_sweep returned")
        return errors

    def _check_first(self, spec) -> list:
        """Same output as the warm-up; each realized model against the quad reference; c1 column against it."""
        import oracle

        harness, config = self.harness, spec.configs()[0]
        trials, agg = self._output()
        errors = [] if (trials, agg) == self.reference else ["sweep output differs from the warm-up's, same seed"]
        expected_rows = len(spec.grid) * config.repetitions
        if len(trials) != expected_rows + 1:
            return errors + [f"trials.csv has {len(trials) - 1} rows, expected {expected_rows}"]
        c1_column = [line.split(",")[8] for line in trials[1:]]
        for rep in range(config.repetitions):
            stream = harness.trial_stream(config, rep)
            model, alpha, c1 = harness.realize_model(stream, config.d, config.lambda_min, config.target_pe)
            found, missed = oracle.check_calibration(alpha, c1, PE, oracle.sigma_s_of(model.beta, model.sigma.entries))
            errors += [f"rep {rep}: {e}" for e in found]
            self.tolerance_misses += missed
            for k in range(rep, expected_rows, config.repetitions):
                if c1_column[k] != repr(c1):
                    errors.append(f"trials.csv row {k + 2}: c1 {c1_column[k]} is not the realized {c1!r}")
        return errors


class TrialLarge(Workload):
    """In-process ``run_trial`` at d = 50, n = 1e5 on the noiseless sign link.

    Operation k runs repetition k.  The warm-up runs repetition 0, and
    operation 0 must reproduce its result exactly.
    """

    name = "trial-large"

    def warm_up(self) -> None:
        from rankreg import harness

        self.harness = harness
        d, n = (10, 2000) if self.tiny else (50, 100000)
        self.angle_max = TINY_ANGLE_MAX if self.tiny else LARGE_ANGLE_MAX
        self.config = harness.TrialConfig(d=d, n=n, m=m_rule(n), lambda_min=LAMBDA_MIN, target_pe=0.0,
                                          repetitions=1, master_seed=self.seed)
        self.reference = self._row(harness.run_trial(self.config, 0))

    @staticmethod
    def _row(result) -> str:
        return f"{result.angle!r},{result.norm_error!r},{result.c1_used!r}"

    def op(self, index: int, scope=NO_SCOPE) -> OpResult:
        with scope:
            start = time.perf_counter()
            try:
                result = self.harness.run_trial(self.config, index)
            except self.harness.TrialExecutionError as exc:
                return OpResult(time.perf_counter() - start, 1, [str(exc)])
            seconds = time.perf_counter() - start
        if self.corrupt:
            result = dataclasses.replace(result, angle=math.pi - result.angle)
        errors = []
        if result.norm_error is not None or result.c1_used is not None:
            errors.append("a noiseless trial reported norm_error or c1")
        if not result.angle < self.angle_max:
            errors.append(f"rep {index}: angle {result.angle!r} is not below {self.angle_max}")
        if index == 0 and self._row(result) != self.reference:
            errors.append(f"repetition 0 gave {self.reference}, then {self._row(result)}")
        return OpResult(seconds, 1, errors)


WORKLOADS = {w.name: w for w in (CliDisk, SweepSmall, TrialLarge)}


def setup_probe(name: str, seed: int, work: str, src: str, tiny: bool) -> None:
    """Body of a fresh interpreter timed for setup_s: import, warm up, print the ready time.

    time.monotonic is one system-wide clock on Linux, so the parent can
    subtract its own launch time from the printed value.
    """
    WORKLOADS[name](seed, Path(work), Path(src), tiny).warm_up()
    print(time.monotonic())
