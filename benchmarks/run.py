"""Run one benchmark workload against the checkout's ``src/`` and print its metrics.

    python3 benchmarks/run.py --workload cli-disk --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with no tracing installed; ``--trace 1`` is the separate traced run
that reports the per-layer metrics.  Every metric is printed by name with its
unit (and, where a run has the samples, a tail percentile), then provenance;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

One process drives one closed-loop client: an operation starts only after the
previous one has finished.  Operations repeat until ``--seconds`` have passed
(and at least twice, so same-seed outputs can be compared).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
NPROC = len(os.sched_getaffinity(0))
# BLAS may use every core this process may run on, and no more.  Set before
# numpy is first imported, here and (through the environment) in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import workloads  # noqa: E402  (imports numpy, so it must follow the thread cap)

SETUP_PROBES = 5  # fresh interpreters timed per run for setup_s; the median is reported
IMPORT_PROBES = 3  # fresh `import rankreg.cli` processes timed for cli.import_s
MIN_OPS = 2

END_TO_END_UNITS = {"setup_s": "s", "pipeline_s": "s", "trials_per_s": "1/s", "peak_rss_mb": "MiB"}

CSV_SPANS = ("comparisons.write_samples_csv", "comparisons.write_comparisons_csv",
             "comparisons.read_samples_csv", "comparisons.read_comparisons_csv")
PER_LAYER_UNITS = {
    "calibration.solve_alpha_for_pe.calls": "count",
    "calibration.solve_alpha_for_pe.self_s": "s",
    "calibration.estimate_pe.calls": "count",
    "calibration.estimate_pe.self_s": "s",
    "calibration.estimate_c1.self_s": "s",
    "calibration.oracle_misses": "count",
    "calibration.oracle_probes": "count",
    "calibration.pe_tolerance_misses": "count",
    "harness.realize_model.calls": "count",
    "harness.realize_model.self_s": "s",
    "harness.realize_model.unique_ratio": "ratio",
    "harness.run_trial.self_s": "s",
    "harness.run_sweep.self_s": "s",
    "harness.write_results.self_s": "s",
    "randomness.sample_gaussian.self_s": "s",
    "randomness.sample_gaussian.mb_out": "MB",
    "comparisons.generate_samples.self_s": "s",
    "comparisons.generate_comparisons.self_s": "s",
    "comparisons.write_samples_csv.self_s": "s",
    "comparisons.write_samples_csv.mb": "MB",
    "comparisons.write_comparisons_csv.self_s": "s",
    "comparisons.write_comparisons_csv.mb": "MB",
    "comparisons.read_samples_csv.self_s": "s",
    "comparisons.read_comparisons_csv.self_s": "s",
    "estimator.estimate_covariance.self_s": "s",
    "estimator.estimate_beta.self_s": "s",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "cli.truth_io.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _realize_key(args, kwargs, result):
    """(master_seed, d, lambda_min, rep, target_pe): the stream id encodes d, lambda_min and rep."""
    stream = _arg(args, kwargs, 0, "stream")
    return (stream.master_seed, stream.stream_id, _arg(args, kwargs, 1, "d"),
            _arg(args, kwargs, 2, "lambda_min"), _arg(args, kwargs, 3, "target_pe"))


MEASURES = {
    "randomness.sample_gaussian": lambda args, kwargs, result: result.nbytes,  # rows x d x 8
    "comparisons.write_samples_csv": lambda args, kwargs, result: os.path.getsize(_arg(args, kwargs, 1, "path")),
    "comparisons.write_comparisons_csv": lambda args, kwargs, result: os.path.getsize(_arg(args, kwargs, 1, "path")),
    "harness.realize_model": _realize_key,
}


def tail(values: list) -> str:
    """Highest whole percentile with at least ten samples above it, if that is p75 or more."""
    pct = math.floor(100 * (1 - 10 / len(values))) if values else 0
    if pct < 75:
        return ""
    return f"; p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.6g}"


def fresh_process_seconds(code: str, env: dict) -> float:
    """Wall time of ``python -c code`` until it prints the ready time, or until it exits."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"probe exited with {proc.returncode}: {proc.stderr[-2000:]}")
    ready = proc.stdout.strip().splitlines()
    return (float(ready[-1]) if ready else time.monotonic()) - start


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        cdll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(cdll, symbol):
                fn = getattr(cdll, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit(root: Path):
    """HEAD's commit when the checkout is a git work tree, else None (read without running git)."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def provenance(args, root: Path, src: Path) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((src / "rankreg").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    why = None
    spec = root / "BENCHMARK.json"
    if spec.is_file():
        why = next((w["why"] for w in json.loads(spec.read_text())["workloads"] if w["name"] == args.workload), None)
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": NPROC, "blas_threads": blas_threads(), "git_commit": git_commit(root),
            "src_sha256": digest.hexdigest(), "why": why}


def run_ops(step, seconds: float) -> list:
    """Closed loop: call ``step(index)`` until ``seconds`` have passed and MIN_OPS ran."""
    ops, start = [], time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - start < seconds:
        ops.append(step(len(ops)))
    return ops


def end_to_end(workload, args, env: dict, say) -> tuple[dict, list]:
    workload.warm_up()
    probe = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); import workloads; "
             f"workloads.setup_probe({args.workload!r}, {args.seed}, {{work!r}}, {str(workload.src)!r}, {args.tiny})")
    setup = []
    for k in range(SETUP_PROBES):
        work = workload.work / f"probe{k}"
        work.mkdir()
        setup.append(fresh_process_seconds(probe.format(work=str(work)), env))
    ops = run_ops(workload.op, args.seconds)
    times = [op.seconds for op in ops]
    rss_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if workload.in_process
               else max(op.rss_kib for op in ops))
    metrics = {
        "setup_s": statistics.median(setup),
        "pipeline_s": statistics.median(times),
        "trials_per_s": sum(op.trials for op in ops) / sum(times),
        "peak_rss_mb": rss_kib / 1024,
    }
    say(f"setup_s = {metrics['setup_s']:.6g} s (median of {len(setup)} fresh interpreters: "
        f"{', '.join(f'{v:.4g}' for v in setup)})")
    say(f"pipeline_s = {metrics['pipeline_s']:.6g} s (median of {len(times)}{tail(times)})")
    for part in sorted({name for op in ops for name in op.parts}):
        values = [op.parts[part] for op in ops]
        say(f"{part} = {statistics.median(values):.6g} s (median of {len(values)}{tail(values)})")
    per_trial = [op.seconds / op.trials for op in ops]
    say(f"trial_s = {statistics.median(per_trial):.6g} s (median of {len(per_trial)} operations{tail(per_trial)})")
    say(f"trials_per_s = {metrics['trials_per_s']:.6g} 1/s ({sum(op.trials for op in ops)} trials "
        f"in {sum(times):.4g} s)")
    say(f"peak_rss_mb = {metrics['peak_rss_mb']:.6g} MiB "
        f"({'this process' if workload.in_process else 'largest child process'})")
    return metrics, ops


def per_layer(workload, args, env: dict, say) -> tuple[dict, list]:
    import oracle
    import tracing

    import rankreg.cli  # every layer must be imported before wrappers are installed

    workload.warm_up()
    import_s = statistics.median(fresh_process_seconds("import rankreg.cli", env) for _ in range(IMPORT_PROBES))
    misses, probes, reasons = oracle.oracle_misses(rankreg.calibration, rankreg.comparisons)
    ops, untraced, traced, real = [], [], [], []
    tracer, stats, unique = tracing.Tracer(MEASURES), tracing.LayerStats(), []

    def pair(index: int):
        """One untraced and one traced in-process operation; which goes first alternates.

        A workload whose operations are child processes also runs one real
        operation first, for the accounting below.
        """
        if not workload.in_process:
            ops.append(workload.op(len(ops)))
            real.append(ops[-1].seconds)
        for traced_now in ((False, True) if index % 2 == 0 else (True, False)):
            op = workload.op_in_process(len(ops), tracer if traced_now else workloads.NO_SCOPE)
            ops.append(op)
            if traced_now:
                spans = tracer.take()
                stats.add(spans)
                keys = [s[4] for s in spans if s[0] == "harness.realize_model"]
                if keys:
                    unique.append(len(set(keys)) / len(keys))
                traced.append(op.seconds)
            else:
                untraced.append(op.seconds)

    run_ops(pair, args.seconds)
    calls, self_s = stats.per_op(stats.calls), stats.per_op(stats.self_s)
    values = {name: sum(v) / stats.operations / 1e6 for name, v in stats.values.items() if name != "harness.realize_model"}
    metrics = {}
    for name in PER_LAYER_UNITS:
        function, _, field = name.rpartition(".")
        if field == "calls":
            metrics[name] = calls.get(function, 0)
        elif field == "self_s":
            metrics[name] = self_s.get(function, 0.0)
        elif field in ("mb", "mb_out"):
            metrics[name] = values.get(function, 0.0)
    metrics.update({
        "calibration.oracle_misses": misses,
        "calibration.oracle_probes": probes,
        "calibration.pe_tolerance_misses": workload.tolerance_misses,
        "harness.realize_model.unique_ratio": statistics.fmean(unique) if unique else 0.0,
        "cli.import_s": import_s,
        "cli.truth_io.self_s": self_s.get("cli.write_truth_csv", 0.0) + self_s.get("cli.read_truth_csv", 0.0),
        "trace.overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1,
    })
    say(f"traced {stats.operations} and untraced {len(untraced)} in-process operations; per traced operation:")
    say(f"  {'span':48} {'calls':>10} {'self_s':>10} {'total_s':>10}")
    for name in sorted(stats.calls, key=lambda n: -self_s[n]):
        say(f"  {name:48} {calls[name]:10.5g} {self_s[name]:10.4g} {stats.total_s[name] / stats.operations:10.4g}")
    for reason in reasons:
        say(f"oracle miss: {reason}")
    if not workload.in_process:
        csv_s = sum(self_s.get(name, 0.0) for name in CSV_SPANS)
        other_s = sum(self_s.values()) - csv_s
        pipeline_s, in_process_s = statistics.median(real), statistics.median(untraced)
        say(f"accounting: subprocess pipeline median {pipeline_s:.4g} s. Traced in-process: CSV spans "
            f"{csv_s:.4g} s + other self time {other_s:.4g} s = {csv_s + other_s:.4g} s (untraced in-process median "
            f"{in_process_s:.4g} s). The remaining {pipeline_s - in_process_s:.4g} s is process start, import and exit; "
            f"2 x cli.import_s = {2 * import_s:.4g} s of it")
    return metrics, ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the closed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes; the figures mean nothing")
    parser.add_argument("--corrupt", action="store_true", help="fault injection: tamper with each output before "
                        "it is checked, which must count as failed")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    src = root / "src"
    if not (src / "rankreg" / "__init__.py").is_file():
        print(f"error: {src}/rankreg not found; run from the root of a rankreg checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = dict(os.environ, PYTHONPATH=str(src))
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    lines = []
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work, src, args.tiny, args.corrupt)
        measure = per_layer if args.trace else end_to_end
        metrics, ops = measure(workload, args, env, lines.append)
    finally:
        shutil.rmtree(work)
        with contextlib.suppress(OSError):  # another run may still be using it
            work.parent.rmdir()
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    failed = [op for op in ops if op.errors]
    for op in failed[:5]:
        for error in op.errors[:5]:
            print(f"failed check: {error}", file=sys.stderr)
    lines.append(f"failed_frac = {len(failed) / len(ops):.6g} ({len(failed)} of {len(ops)} operations)")
    for line in lines:
        print(f"[{args.workload}] {line}")
    print("provenance: " + json.dumps(provenance(args, root, src), sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
