"""Smoke test of the benchmark itself, at sizes that take seconds.

    python3 -m pytest benchmarks/test_smoke.py -q

Run from the repository root.  It lives outside the tier-1 ``testpaths`` so
the project's own test run does not get longer.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmarks"
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import oracle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Human-readable metrics each workload must print, with their units.
PRINTED = {
    "cli-disk": {"setup_s": "s", "pipeline_s": "s", "generate_s": "s", "estimate_s": "s", "trial_s": "s",
                 "trials_per_s": "1/s", "peak_rss_mb": "MiB", "failed_frac": ""},
    "sweep-small": {"setup_s": "s", "pipeline_s": "s", "trial_s": "s", "trials_per_s": "1/s",
                    "peak_rss_mb": "MiB", "failed_frac": ""},
    "trial-large": {"setup_s": "s", "pipeline_s": "s", "trial_s": "s", "trials_per_s": "1/s",
                    "peak_rss_mb": "MiB", "failed_frac": ""},
}


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2, proc.stderr
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    if trace == 0:
        for name, unit in PRINTED[workload].items():
            assert any(line.startswith(f"[{workload}] {name} = ") and (not unit or f" {unit} " in line)
                       for line in lines), f"{name} [{unit}] not printed"
        for name in ("setup_s", "pipeline_s", "trials_per_s", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0
    provenance = json.loads(next(line for line in lines if line.startswith("provenance: ")).split(": ", 1)[1])
    for key in ("python", "numpy", "scipy", "nproc", "blas_threads", "git_commit", "seed", "why"):
        assert key in provenance
    assert provenance["why"] and provenance["seed"] == 5
    assert not (ROOT / ".bench_work").exists()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failed(workload):
    proc = run(workload, 0, "--corrupt")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1
    assert "failed check:" in proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("sweep-small", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("sigma_s", [0.5, 20.0])
def test_quad_reference_matches_probit_closed_form(scale, sigma_s):
    exact = 0.5 - math.atan(math.sqrt(2) * scale * sigma_s) / math.pi
    assert oracle.probit_pe(scale, sigma_s) == pytest.approx(exact, rel=1e-10)


def test_quad_reference_c1_reaches_the_sign_link_limit():
    # c1 -> 4 phi(0) = 4 / (sigma_s sqrt(2 pi)) as the logistic slope grows
    assert oracle.logistic_c1(1e9, 1.0) == pytest.approx(4 / math.sqrt(2 * math.pi), rel=1e-8)


def _write_runs(directory: Path, values: list, workload: str = "trial-large") -> Path:
    directory.mkdir()
    for k, value in enumerate(values):
        metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in SPEC["end_to_end"]}
        (directory / f"{k:02d}.out").write_text(
            "provenance: " + json.dumps({"workload": workload, "trace": 0}) + "\n"
            + json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}) + "\n")
    return directory


def test_compare_verdicts(tmp_path):
    base = compare.load(_write_runs(tmp_path / "base", [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]))
    lower = compare.load(_write_runs(tmp_path / "lower", [0.80, 0.81, 0.79, 0.80, 0.82, 0.78, 0.80, 0.81, 0.79, 0.80]))
    noisy = compare.load(_write_runs(tmp_path / "noisy", [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]))
    b, lo, no = (s[("trial-large", 0)]["pipeline_s"] for s in (base, lower, noisy))
    assert compare.verdict(b, lo, "lower", 0.1).startswith("gain")
    assert compare.verdict(lo, b, "lower", 0.1).startswith("REGRESSION")
    assert compare.verdict(b, no, "lower", 0.1).startswith("unresolved")
    assert compare.verdict(b, b, "lower", 0.1).startswith("no change")
    assert compare.verdict(b, lo, "higher", 0.1).startswith("REGRESSION")
