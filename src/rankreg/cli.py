"""Command-line front end: generate, estimate, calibrate, sweep, min-n.

Exit codes: 0 on success, 1 on domain or runtime errors (bad data, failed
preconditions, I/O, memory), 2 on usage errors.  All randomness flows from
--seed or the config file's master_seed; repeated invocations with
identical flags write identical files.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional

import numpy as np

from .calibration import ScoreDifferenceLaw, estimate_c1, estimate_pe, solve_alpha_for_pe
from .comparisons import (
    DeterministicLink,
    LogisticLink,
    ModelSpec,
    _names,
    _read_csv,
    _staged,
    _write_csv,
    read_comparisons_csv,
    read_samples_csv,
    write_comparisons_csv,
    write_samples_csv,
)
from .estimator import angle, estimate_beta, norm_error, write_estimate_csv
from .harness import (
    TrialConfig,
    TrialFailure,
    find_min_n,
    read_min_n_config,
    read_sweep_config,
    realize_model,
    run_sweep,
    simulate,
    write_results,
)
from .randomness import RngStream, SpdMatrix


def _truth_names(d: int) -> list[str]:
    sigma = [f"sigma_{r + 1}_{c + 1}" for r in range(d) for c in range(d)]
    return _names("beta", d) + _names("mu", d) + sigma + ["alpha", "c1"]


def write_truth_csv(model, c1: Optional[float], path) -> None:
    """One row: weights, mean, row-major covariance, the link's slope, shrinkage constant.

    The slope column holds the word "deterministic" for the sign link of
    noiseless generation, and the shrinkage column is then empty.
    """
    row = [*model.beta.tolist(), *model.mu.tolist(), *model.sigma.entries.ravel().tolist()]
    slope = "deterministic" if isinstance(model.link, DeterministicLink) else model.link.slope
    _write_csv(path, _truth_names(model.d), [row + [slope, c1]])


def read_truth_csv(path) -> tuple[ModelSpec, Optional[float]]:
    """The ``(model, c1)`` of :func:`rankreg.harness.realize_model` that ``path`` was written from.

    The alpha column gives ``model.link``: a :class:`LogisticLink` of that slope, or a :class:`DeterministicLink` for
    "deterministic".  Every column is validated as the model is built.  A non-finite value, alpha <= 0, c1 <= 0, a
    c1 with alpha "deterministic" or an empty c1 with a numeric alpha, a covariance that is not symmetric positive
    definite, a header of dimension 0 or a beta of zeros raises ValueError naming ``path:2``.
    """
    # A row for dimension d has (d + 1)^2 + 1 fields.  It is read as text since alpha and c1 may hold
    # the noiseless markers; as object, because loadtxt allocates str reads 50000 rows at a time.
    rows = _read_csv(path, lambda width: _truth_names(math.isqrt(width - 1) - 1), object)
    if len(rows) != 1:
        raise ValueError(f"{path}: expected one data row, got {len(rows)}")
    *values, alpha, c1 = rows[0]
    d = math.isqrt(len(values) + 1) - 1
    try:
        values = np.array(values, dtype=float)
        alpha = None if alpha == "deterministic" else float(alpha)
        c1 = None if c1 == "" else float(c1)
        if not np.isfinite([*values, *(v for v in (alpha, c1) if v is not None)]).all():
            raise ValueError("value is not finite")
        if (alpha is None) != (c1 is None):
            raise ValueError("c1 must be empty exactly when alpha is 'deterministic'")
        if c1 is not None and not c1 > 0:
            raise ValueError(f"c1 must be > 0, got {c1}")
        link = DeterministicLink() if alpha is None else LogisticLink(alpha)
        model = ModelSpec(values[:d], values[d : 2 * d], SpdMatrix(values[2 * d :].reshape(d, d)), link)
        if not model.beta.any():  # no score differs: no angle to it, no noise rate
            raise ValueError("beta is all zeros")
    except ValueError as exc:  # numpy's LinAlgError included
        raise ValueError(f"{path}:2: {exc}") from exc
    return model, c1


def cmd_generate(args) -> int:
    TrialConfig(args.d, args.n, args.m, args.lambda_min, args.pe, master_seed=args.seed)  # trials' bounds
    stream = RngStream(args.seed)
    model, _, c1 = realize_model(stream, args.d, args.lambda_min, args.pe)
    samples, dataset = simulate(stream, model, args.n, args.m)
    paths = [f"{args.out_prefix}.{kind}.csv" for kind in ("samples", "comparisons", "truth")]
    with _staged(*paths) as (samples_path, comparisons_path, truth_path):  # the three files commit together
        write_samples_csv(samples, samples_path)
        write_comparisons_csv(dataset, comparisons_path)
        write_truth_csv(model, c1, truth_path)
    return 0


def cmd_estimate(args) -> int:
    samples = read_samples_csv(args.samples)
    dataset = read_comparisons_csv(args.comparisons, samples.n)
    model, c1 = (None, None) if args.truth is None else read_truth_csv(args.truth)
    if model is not None and model.d != samples.d:
        raise ValueError(f"{args.truth}: truth has d={model.d} but {args.samples} has d={samples.d}")
    try:
        beta_hat = estimate_beta(dataset, samples)
    except ValueError as exc:  # too few covariance rows, a singular half or overflow: the samples are at fault
        raise ValueError(f"{args.samples}: {exc}") from exc
    lines = ["beta_hat=" + ",".join(repr(float(v)) for v in beta_hat)]
    if model is not None:
        if not beta_hat.any():  # every row's label weights cancel out, as in a table of self-pairs
            raise ValueError(f"{args.comparisons}: the estimate is zero, so its angle to the truth is undefined")
        if c1 is not None:
            lines.append(f"norm_error={norm_error(beta_hat, model.beta, c1)!r}")
        lines.append(f"angle={angle(beta_hat, model.beta)!r}")
    write_estimate_csv(beta_hat, samples.n, dataset.m, args.out)  # only once every line to print is known
    print("\n".join(lines))
    return 0


def cmd_calibrate(args) -> int:
    if args.truth is None:
        law = ScoreDifferenceLaw(args.sigma_s)
    else:
        model, _ = read_truth_csv(args.truth)
        law = ScoreDifferenceLaw.from_parameters(model.beta, model.sigma)
    alpha = args.alpha if args.alpha is not None else solve_alpha_for_pe(args.pe, law)
    link = LogisticLink(alpha)
    print(f"c1={estimate_c1(link, law)!r} pe={estimate_pe(link, law)!r} alpha={alpha!r}")
    return 0


def _write_and_warn(result, out_prefix) -> None:
    """Write a sweep's trials and agg files, and say on stderr how many of its trials failed, if any did."""
    write_results(result, out_prefix)
    failed = sum(1 for row in result.rows if isinstance(row, TrialFailure))
    if failed:
        print(f"warning: {failed} of {len(result.rows)} trials failed", file=sys.stderr)


def cmd_sweep(args) -> int:
    _write_and_warn(run_sweep(read_sweep_config(args.config)), args.out_prefix)
    return 0


def cmd_min_n(args) -> int:
    found, result = find_min_n(*read_min_n_config(args.config))
    _write_and_warn(result, args.out_prefix)
    print("not-found" if found is None else found)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankreg",
        description="Rank regression from noisy pairwise comparisons: data synthesis, "
        "closed-form estimation, noise calibration, and parameter sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize samples, comparisons, and a truth record")
    g.add_argument("--d", type=int, required=True, help="feature dimension")
    g.add_argument("--n", type=int, required=True, help="comparison pool size (2n rows are drawn)")
    g.add_argument("--m", type=int, required=True, help="number of comparisons")
    g.add_argument("--lambda-min", type=float, default=1.0, help="smallest covariance eigenvalue (default 1)")
    g.add_argument("--pe", type=float, default=0.0, help="target label-noise rate; 0 means noiseless")
    g.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    g.add_argument("--out-prefix", default="out", help="output file prefix (default 'out')")
    g.set_defaults(func=cmd_generate)

    e = sub.add_parser("estimate", help="estimate weights from samples and comparisons")
    e.add_argument("--samples", required=True, help="samples CSV path")
    e.add_argument("--comparisons", required=True, help="comparisons CSV path")
    e.add_argument("--truth", help="truth CSV path; enables metrics output")
    e.add_argument("--out", default="beta_hat.csv", help="estimate CSV path (default beta_hat.csv)")
    e.set_defaults(func=cmd_estimate)

    c = sub.add_parser("calibrate", help="map the logistic slope to the noise rate and back")
    pick = c.add_mutually_exclusive_group(required=True)
    pick.add_argument("--alpha", type=float, help="logistic slope to evaluate")
    pick.add_argument("--pe", type=float, help="target noise rate to solve the slope for")
    law = c.add_mutually_exclusive_group(required=True)
    law.add_argument("--sigma-s", type=float, help="score-difference standard deviation")
    law.add_argument("--truth", help="truth CSV written by generate; sigma_s is derived from its beta and sigma")
    c.set_defaults(func=cmd_calibrate)

    s = sub.add_parser("sweep", help="run a parameter sweep from a config file")
    s.add_argument("--config", required=True, help="key=value sweep configuration file")
    s.add_argument("--out-prefix", default="sweep", help="output prefix for .trials.csv/.agg.csv")
    s.set_defaults(func=cmd_sweep)

    n = sub.add_parser("min-n", help="smallest n on a grid whose mean angle clears a threshold")
    n.add_argument("--config", required=True, help="key=value configuration file with an n_grid")
    n.add_argument("--out-prefix", default="min_n", help="output prefix for .trials.csv/.agg.csv")
    n.set_defaults(func=cmd_min_n)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code or 0)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
