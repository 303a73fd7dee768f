"""Gate suite: nine numbered end-to-end checks, one printed PASS/FAIL line each.

The lines are printed with capture suspended so they show up in the live
pytest output; every check also asserts, so a FAIL fails the suite.  Seeds
are frozen; every statistical margin below was verified against its
tolerance before freezing.
"""

import math

import numpy as np

from rankreg import (
    LogisticLink,
    ModelSpec,
    RngStream,
    SampleSet,
    ScoreDifferenceLaw,
    SpdMatrix,
    SweepSpec,
    TrialConfig,
    angle,
    estimate_beta,
    estimate_c1,
    estimate_covariance,
    estimate_pe,
    find_min_n,
    flip_fraction,
    generate_comparisons,
    generate_samples,
    m_from_n,
    make_covariance,
    run_sweep,
    sample_gaussian,
    solve_alpha_for_pe,
    write_results,
)
from rankreg.cli import main


def _report(capsys, index: int, name: str, passed: bool, detail: str) -> None:
    line = f"acceptance {index} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    with capsys.disabled():
        print("\n" + line)
    assert passed, line


def test_criterion_1_estimator_mean_recovers_scaled_weights(capsys):
    beta = np.array([1.0, -2.0])
    mu = np.array([0.5, -1.0])
    sigma = SpdMatrix(np.array([[1.0, 0.3], [0.3, 0.5]]))
    spec = ModelSpec(2, beta, mu, sigma, LogisticLink(5.0))
    c1 = estimate_c1(spec.link, ScoreDifferenceLaw.from_parameters(beta, sigma))
    root = RngStream(20250801)
    hats = np.empty((500, 2))
    for t in range(500):
        s = root.child("trial", t)
        samples = generate_samples(s.child("features"), spec, 500)
        dataset = generate_comparisons(s.child("comparisons"), spec, samples, 10_000)
        hats[t] = estimate_beta(dataset, samples)
    se = hats.std(axis=0, ddof=1) / math.sqrt(500)
    dev = np.abs(hats.mean(axis=0) - c1 * beta) / se
    _report(
        capsys,
        1,
        "estimator mean recovers scaled weights",
        bool(np.all(dev < 3.0)),
        f"max deviation {dev.max():.2f} pooled SE of 3",
    )


def test_criterion_2_inverse_covariance_is_unbiased(capsys):
    stream = RngStream(20250802)
    sigma = make_covariance(stream.child("basis"), 5, 0.2)
    inv_true = np.linalg.inv(sigma.entries)
    mu = np.zeros(5)
    acc = np.zeros((5, 5))
    for t in range(2000):
        features = sample_gaussian(stream.child("x", t), mu, sigma, 400)
        acc += np.linalg.inv(estimate_covariance(SampleSet(200, features)).entries)
    rel = np.linalg.norm(acc / 2000 - inv_true) / np.linalg.norm(inv_true)
    _report(
capsys,
2, "inverse covariance is unbiased", rel < 0.02, f"relative Frobenius error {rel:.4f} of 0.02")


def test_criterion_3_quadrature_matches_simulation(capsys):
    root = RngStream(20250803)
    z = root.child("oracle").generator().standard_normal(10**7)
    worst_c1 = worst_pe = 0.0
    for a in (0.1, 1.0, 5.0, 25.0):
        link = LogisticLink(a)
        for s in (0.5, 2.0, 10.0):
            oracle = 4.0 * link.derivative(s * z).mean()
            rel = abs(estimate_c1(link, ScoreDifferenceLaw(s)) - oracle) / oracle
            worst_c1 = max(worst_c1, rel)
            spec = ModelSpec(1, np.array([1.0]), np.zeros(1), SpdMatrix(np.array([[s * s / 2]])), link)
            pool = generate_samples(root.child("pool", repr(a), repr(s)), spec, 100_000)
            data = generate_comparisons(root.child("cmp", repr(a), repr(s)), spec, pool, 1_000_000)
            dev = abs(flip_fraction(data, spec, pool) - estimate_pe(link, ScoreDifferenceLaw(s)))
            worst_pe = max(worst_pe, dev)
    _report(
        capsys,
        3,
        "quadrature constants match simulation",
        worst_c1 < 0.005 and worst_pe < 0.005,
        f"worst c1 deviation {worst_c1:.4f} of 0.005, worst pe deviation {worst_pe:.4f} of 0.005",
    )


def test_criterion_4_noise_targeting_round_trips(capsys):
    root = RngStream(20250804)
    law = ScoreDifferenceLaw(1.0)
    worst_quad = worst_emp = 0.0
    for target in (0.2, 0.4):
        alpha = solve_alpha_for_pe(target, law)
        link = LogisticLink(alpha)
        worst_quad = max(worst_quad, abs(estimate_pe(link, law) - target))
        spec = ModelSpec(1, np.array([1.0]), np.zeros(1), SpdMatrix(np.array([[0.5]])), link)
        pool = generate_samples(root.child("pool", repr(target)), spec, 100_000)
        data = generate_comparisons(root.child("cmp", repr(target)), spec, pool, 1_000_000)
        worst_emp = max(worst_emp, abs(flip_fraction(data, spec, pool) - target))
    _report(
        capsys,
        4,
        "noise targeting round-trips",
        worst_quad <= 1e-6 and worst_emp <= 0.005,
        f"worst solver residual {worst_quad:.2e} of 1e-06, worst empirical deviation {worst_emp:.4f} of 0.005",
    )


def test_criterion_5_error_falls_with_more_samples(capsys):
    base = TrialConfig(
        d=10, n=300, m=m_from_n(300), lambda_min=1.0, target_pe=0.2, repetitions=10, master_seed=20250805
    )
    result = run_sweep(SweepSpec(base, "n", (300, 1000, 3000, 10_000)))
    means = [agg.norm_error_mean for agg in result.aggregates]
    decreasing = all(b < a for a, b in zip(means, means[1:]))
    ratio = means[-1] / means[0]
    _report(
        capsys,
        5,
        "error falls with more samples",
        decreasing and ratio <= 1 / 3,
        f"means {[round(v, 4) for v in means]}, last/first {ratio:.3f} of 0.333",
    )


def test_criterion_6_comparison_budget_plateaus(capsys):
    m1 = m_from_n(2500)
    base = TrialConfig(
        d=10, n=2500, m=m1, lambda_min=0.1, target_pe=0.2, repetitions=10, master_seed=20250806
    )
    result = run_sweep(SweepSpec(base, "m", (-(-m1 // 4), m1, 4 * m1), m_rule="fixed"))
    angles = [agg.angle_mean for agg in result.aggregates]
    first, second = angles[0] - angles[1], angles[1] - angles[2]
    _report(
        capsys,
        6,
        "comparison budget plateaus",
        second < first,
        f"angle gain {first:.4f} then {second:.4f} across the grid {[round(v, 4) for v in angles]}",
    )


def test_criterion_7_estimator_withstands_label_noise(capsys):
    shrink_ok = True
    at_1000 = []
    for pe in (0.0, 0.2, 0.4):
        base = TrialConfig(
            d=10, n=300, m=m_from_n(300), lambda_min=0.1, target_pe=pe, repetitions=10, master_seed=20250807
        )
        result = run_sweep(SweepSpec(base, "n", (300, 1000, 10_000)))
        means = [agg.angle_mean for agg in result.aggregates]
        shrink_ok = shrink_ok and means[2] < means[0]
        at_1000.append(means[1])
    noisier_is_harder = all(b > a for a, b in zip(at_1000, at_1000[1:]))
    _report(
        capsys,
        7,
        "estimator withstands label noise",
        shrink_ok and noisier_is_harder,
        f"angles at n=1000 rise with noise {[round(v, 4) for v in at_1000]}",
    )


def test_criterion_8_sample_demands_track_structure(capsys):
    grid = (30, 50, 80, 130, 200, 300, 500, 800, 1300, 2000, 3200, 5000, 8000, 13000, 20000, 30000)

    def min_n(d, lam):
        base = TrialConfig(
            d=d, n=300, m=m_from_n(300), lambda_min=lam, target_pe=0.2, repetitions=10, master_seed=20250808
        )
        return find_min_n(SweepSpec(base, "n", grid), angle_threshold=0.3)[0]

    by_d = [min_n(d, 0.1) for d in (5, 10, 20)]
    by_lam = [min_n(10, lam) for lam in (0.005, 0.1, 1.0)]
    found = all(v is not None for v in by_d + by_lam)
    d_ok = found and all(b >= a for a, b in zip(by_d, by_d[1:]))
    lam_ok = found and all(b <= a for a, b in zip(by_lam, by_lam[1:]))
    _report(
        capsys,
        8,
        "sample demands track structure",
        d_ok and lam_ok,
        f"min-n by dimension {by_d}, by smallest eigenvalue {by_lam}",
    )


def test_criterion_9_exactness_and_determinism(tmp_path, capsys):
    stream = RngStream(20250809)
    spec = ModelSpec(
        4,
        np.array([1.0, -0.5, 2.0, 0.25]),
        np.zeros(4),
        SpdMatrix(np.diag([1.0, 0.5, 2.0, 1.5])),
        LogisticLink(2.0),
    )
    samples = generate_samples(stream.child("features"), spec, 100)
    dataset = generate_comparisons(stream.child("comparisons"), spec, samples, 500)
    beta_hat = estimate_beta(dataset, samples)

    from rankreg import ComparisonDataset

    negated = ComparisonDataset(dataset.n, dataset.i, dataset.j, -dataset.y)
    linear = np.array_equal(estimate_beta(negated, samples), -beta_hat)

    order = stream.child("perm").generator().permutation(dataset.m)
    shuffled = ComparisonDataset(dataset.n, dataset.i[order], dataset.j[order], dataset.y[order])
    permuted = np.array_equal(estimate_beta(shuffled, samples), beta_hat)

    scaled_samples = SampleSet(samples.n, 3.0 * samples.features)
    scaled_hat = estimate_beta(dataset, scaled_samples)
    scale_rel = float(np.max(np.abs(scaled_hat - beta_hat / 3.0) / np.abs(beta_hat / 3.0)))

    v = np.array([3.0, 4.0])
    angles_exact = (
        angle(v, 2.0 * v) == 0.0
        and angle(v, -v) == math.pi
        and angle(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == math.pi / 2
    )

    argv = ["generate", "--d", "3", "--n", "40", "--m", "200", "--pe", "0.2", "--seed", "17"]
    assert main(argv + ["--out-prefix", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out-prefix", str(tmp_path / "b")]) == 0
    files_same = all(
        (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()
        for suffix in (".samples.csv", ".comparisons.csv", ".truth.csv")
    )
    for run in ("ea", "eb"):
        assert (
            main(
                [
                    "estimate",
                    "--samples", str(tmp_path / "a.samples.csv"),
                    "--comparisons", str(tmp_path / "a.comparisons.csv"),
                    "--out", str(tmp_path / f"{run}.csv"),
                ]
            )
            == 0
        )
    files_same = files_same and (tmp_path / "ea.csv").read_bytes() == (tmp_path / "eb.csv").read_bytes()

    sweep = SweepSpec(
        TrialConfig(d=2, n=30, m=100, lambda_min=0.5, target_pe=0.2, repetitions=2, master_seed=3),
        "n",
        (30, 60),
    )
    write_results(run_sweep(sweep), tmp_path / "s1")
    write_results(run_sweep(sweep), tmp_path / "s2")
    agg_same = (tmp_path / "s1.agg.csv").read_bytes() == (tmp_path / "s2.agg.csv").read_bytes()

    def no_wall(path):  # the wall-time column is the one legitimate difference
        return [line.rsplit(",", 1)[0] for line in path.read_bytes().decode().splitlines()]

    trials_same = no_wall(tmp_path / "s1.trials.csv") == no_wall(tmp_path / "s2.trials.csv")

    _report(
        capsys,
        9,
        "exactness and determinism",
        linear and permuted and scale_rel < 1e-10 and angles_exact and files_same and agg_same and trials_same,
        f"label linearity {linear}, permutation {permuted}, scale residual {scale_rel:.1e} of 1e-10, "
        f"angle identities {angles_exact}, byte-stable outputs {files_same and agg_same and trials_same}",
    )
