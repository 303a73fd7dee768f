"""Tests for link functions, comparison generation, and the CSV formats."""

import contextlib
import errno
import math
import os
import re
import shutil
import signal
import stat
import threading
import tracemalloc
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from rankreg import (
    ComparisonDataset,
    DeterministicLink,
    LogisticLink,
    ModelSpec,
    RngStream,
    SampleSet,
    SpdMatrix,
    flip_fraction,
    generate_comparisons,
    generate_samples,
    read_comparisons_csv,
    read_samples_csv,
    write_comparisons_csv,
    write_samples_csv,
)
from rankreg import comparisons
from rankreg.cli import main
from rankreg.comparisons import _OneBasedTriples, _expit, _read_csv, _write_csv

finite_x = st.floats(-30.0, 30.0)


@contextlib.contextmanager
def _deadline(seconds):
    """Fail the block once ``seconds`` pass, so a blocked open or read fails the test instead of hanging it."""

    def expire(signum, frame):
        raise AssertionError(f"still blocked after {seconds} s")  # not an OSError, which readers handle

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _model(d=2, beta=None, link=LogisticLink(1.0)):
    beta = np.ones(d) if beta is None else np.asarray(beta, dtype=float)
    return ModelSpec(beta, np.zeros(d), SpdMatrix(np.eye(d)), link)


# --- link contract ---------------------------------------------------------


@pytest.mark.parametrize("link", [LogisticLink(0.5), LogisticLink(3.0)])
def test_link_symmetry_and_center(link):
    grid = np.linspace(-30, 30, 901)
    assert np.abs(link.prob(-grid) - (1.0 - link.prob(grid))).max() <= 1e-12
    assert link.prob(0.0) == 0.5
    probs = link.prob(grid)
    assert (np.diff(probs) >= 0).all()
    assert (link.derivative(np.linspace(-5, 5, 101)) > 0).all()


@settings(max_examples=60, deadline=None)
@given(finite_x, st.floats(0.05, 20.0))
def test_logistic_matches_closed_form(x, slope):
    link = LogisticLink(slope)
    expected = 1.0 / (1.0 + math.exp(-slope * x))
    assert math.isclose(float(link.prob(x)), expected, rel_tol=1e-12)


# numpy's vectorized exp and glibc's exp differ by 1 ulp on a few percent of inputs
def test_expit_matches_scipy_to_4_ulp_without_warnings():
    tail = np.geomspace(1e-300, 1e308, 1001)
    x = np.concatenate([-tail, tail, np.linspace(-50, 50, 1001), [0.0, np.inf, -np.inf]])
    x0 = x.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _expit(x)
    np.testing.assert_array_max_ulp(got, scipy.special.expit(x), maxulp=4)
    # it works in an array of its own, and gives a scalar for a scalar
    assert np.array_equal(x, x0)
    assert type(_expit(2.0)) is np.float64 and _expit(2.0) == _expit(np.array([2.0]))[0]


@pytest.mark.parametrize("link", [LogisticLink(2.0)])
def test_derivative_matches_finite_difference(link):
    h = 1e-6
    for x in (-3.0, -0.4, 0.0, 1.1, 2.5):
        numeric = (float(link.prob(x + h)) - float(link.prob(x - h))) / (2 * h)
        assert math.isclose(float(link.derivative(x)), numeric, rel_tol=1e-7, abs_tol=1e-12)


def test_deterministic_link_is_the_sign_rule():
    link = DeterministicLink()
    assert list(link.prob(np.array([-2.0, 0.0, 5.0]))) == [0.0, 0.5, 1.0]
    assert not hasattr(link, "derivative")


def test_link_parameter_validation():
    with pytest.raises(ValueError):
        LogisticLink(0.0)


# --- containers ------------------------------------------------------------


def test_model_spec_validation():
    assert ModelSpec(np.ones(2), np.zeros(2), SpdMatrix(np.eye(2)), LogisticLink()).d == 2  # read from sigma
    with pytest.raises(ValueError):
        ModelSpec(np.ones(3), np.zeros(2), SpdMatrix(np.eye(2)), LogisticLink())
    with pytest.raises(ValueError):
        ModelSpec(np.ones(2), np.zeros(3), SpdMatrix(np.eye(2)), LogisticLink())
    with pytest.raises(ValueError):
        ModelSpec(np.ones(3), np.zeros(3), SpdMatrix(np.eye(2)), LogisticLink())
    with pytest.raises(ValueError, match=r"beta has shape \(0,\), expected \(1,\)"):
        ModelSpec(np.ones(0), np.zeros(0), SpdMatrix(np.eye(1)), LogisticLink())


def test_sample_set_halves():
    rows = np.arange(12.0).reshape(6, 2)
    s = SampleSet(rows)
    assert (s.n, s.d) == (3, 2)  # read from the rows
    assert np.array_equal(s.comparison_half, rows[:3])
    assert np.array_equal(s.covariance_half, rows[3:])
    for bad in (rows[:5], rows[:0], rows[:, 0]):  # an odd row count, no rows, not 2-d
        with pytest.raises(ValueError, match="features must have an even, positive number of rows"):
            SampleSet(bad)


def test_comparison_dataset_validation():
    ok = ComparisonDataset(3, [0, 2], [1, 1], [1, -1])
    assert ok.m == 2
    with pytest.raises(ValueError):
        ComparisonDataset(3, [0, 3], [1, 1], [1, -1])  # index out of range
    with pytest.raises(ValueError):
        ComparisonDataset(3, [0, -1], [1, 1], [1, -1])
    with pytest.raises(ValueError):
        ComparisonDataset(3, [0, 1], [1, 1], [1, 0])  # label not in {-1, +1}
    with pytest.raises(ValueError):
        ComparisonDataset(3, [], [], [])
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        ComparisonDataset(0, [0], [0], [1])
    # the int64 cast would truncate 0.5 to 0 and 1.7 to 1; integral floats keep their values and are accepted
    data = ComparisonDataset(3, [0.0, 2.0], [1.0, 1.0], [1.0, -1.0])
    assert data.i.dtype == data.y.dtype == np.int64 and list(data.i) == [0, 2] and list(data.y) == [1, -1]
    good = ([0, 2], [1, 1], [1, -1])
    for k, name in enumerate("ijy"):
        for bad in ([0.5, 2.0], [1.0, np.nan], [1.0, 2.0**63], [1.7, -1.2]):
            fields = list(good)
            fields[k] = bad
            with pytest.raises(ValueError, match=f"^{name} contains values that are not 64-bit integers$"):
                ComparisonDataset(3, *fields)


# --- generation ------------------------------------------------------------


def test_generate_samples_shape_and_determinism():
    spec = _model()
    s = generate_samples(RngStream(4), spec, 1)
    assert s.features.shape == (2, 2)
    a = generate_samples(RngStream(9), spec, 100)
    b = generate_samples(RngStream(9), spec, 100)
    assert np.array_equal(a.features, b.features)


def test_generate_samples_mean():
    s = generate_samples(RngStream(5), _model(), 50_000)
    means = s.features.mean(axis=0)
    se = s.features.std(axis=0) / math.sqrt(len(s.features))
    assert (np.abs(means) <= 3 * se).all()


def test_deterministic_labels_follow_the_sign():
    spec = _model(beta=[1.0, 0.0], link=DeterministicLink())
    features = np.array([[3.0, 5.0], [0.0, -2.0], [0.0, 0.0], [0.0, 0.0]])
    samples = SampleSet(features)  # scores are (3, 0)
    data = generate_comparisons(RngStream(6), spec, samples, 5000)
    off_diagonal = data.i != data.j
    assert (data.y[off_diagonal & (data.i == 0)] == 1).all()
    assert (data.y[off_diagonal & (data.i == 1)] == -1).all()


def test_self_pairs_are_fair_coin_flips():
    spec = _model(link=DeterministicLink())
    samples = SampleSet(np.zeros((2, 2)))
    data = generate_comparisons(RngStream(16), spec, samples, 100_000)
    assert (data.i == data.j).all()
    assert abs(data.y.mean()) <= 3 / math.sqrt(data.m)


def test_fixed_pair_label_rate_matches_the_link():
    # score difference of the (0, 1) pair is exactly 1
    spec = _model(beta=[1.0, 0.0])
    samples = SampleSet(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    data = generate_comparisons(RngStream(23), spec, samples, 4_000_000)
    pair = (data.i == 0) & (data.j == 1)
    rate = (data.y[pair] == 1).mean()
    assert abs(rate - 1.0 / (1.0 + math.exp(-1.0))) <= 0.002


def test_pair_sampling_is_uniform():
    spec = _model(d=1, beta=[1.0])
    samples = generate_samples(RngStream(300), spec, 10)
    data = generate_comparisons(RngStream(301), spec, samples, 1_000_000)
    counts = np.bincount(data.i * 10 + data.j, minlength=100)
    assert np.abs(counts / data.m - 0.01).max() <= 0.001


def test_negating_weights_mirrors_the_label_law():
    spec = _model(d=3, beta=[0.7, -0.2, 1.1])
    flipped = _model(d=3, beta=[-0.7, 0.2, -1.1])
    samples = generate_samples(RngStream(41), spec, 500)
    mean_pos = generate_comparisons(RngStream(42), spec, samples, 100_000).y.mean()
    mean_neg = generate_comparisons(RngStream(42), flipped, samples, 100_000).y.mean()
    assert abs(mean_pos + mean_neg) <= 0.02


@pytest.mark.parametrize("link", [LogisticLink(1.0), DeterministicLink()], ids=["logistic", "sign"])
@pytest.mark.parametrize("n", [1, 7, 50, 100_000])
def test_comparison_blocks_draw_i_then_j_then_the_uniforms_block_by_block(n, link):
    # each block of _row_blocks(m) draws its indices i, then its j, then its uniforms from the one stream, and the
    # blocks are drawn in order; at n = 50 one pair in 50 is a self-pair, a coin flip under both links.  The blocks
    # are those of every other kernel, at least b = _BLOCK_ROWS rows each, so m >= 2 * b is more than one block
    b, spec = comparisons._BLOCK_ROWS, _model(d=3, beta=[0.5, -1.0, 2.0], link=link)
    samples = generate_samples(RngStream(70), spec, n)
    scores = samples.comparison_half @ spec.beta
    for m in (1, b - 1, b, b + 1, 2 * b - 1, 2 * b, 2 * b + 1, 3 * b + 24, 5 * b + 7, 16 * b + 3):
        g, spans, parts = RngStream(71).generator(), list(comparisons._row_blocks(m)), []
        for lo, hi in spans:
            parts.append((g.integers(0, n, size=hi - lo), g.integers(0, n, size=hi - lo), g.random(hi - lo)))
        i, j, u = (np.concatenate(draws) for draws in zip(*parts))
        y = np.where(u < link.prob(scores[i] - scores[j]), 1, -1)
        drawn = comparisons._Drawn(RngStream(71), spec, samples, m)
        assert (drawn.n, drawn.m) == (n, m)
        blocks = list(drawn)
        assert all(len(block) == 3 for block in blocks)
        assert [len(block[2]) for block in blocks] == [hi - lo for lo, hi in spans], m
        assert all(len(block[2]) >= b for block in blocks) or m < b
        for k, (name, expected) in enumerate((("i", i), ("j", j), ("y", y))):
            assert np.array_equal(np.concatenate([block[k] for block in blocks]), expected), (m, name)
        data = generate_comparisons(RngStream(71), spec, samples, m)
        assert np.array_equal(data.i, i) and np.array_equal(data.j, j) and np.array_equal(data.y, y), m


@pytest.mark.parametrize(
    "link",
    [DeterministicLink(), LogisticLink(1e-3), LogisticLink(1.0), LogisticLink(1e3)],
    ids=["sign", "logistic-1e-3", "logistic-1", "logistic-1e3"],
)
def test_the_label_rule_is_its_reference_bit_for_bit(link):
    # every pair of these scores: ties (+0.0 against -0.0 too), infinities, NaN, differences that round to
    # subnormals, and differences whose exp overflows (slope * |s| > 709); with uniforms at 0, just below 1/2, at 1/2,
    # just below 1, at the win probability and just below it
    special = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-308, 1.1e-308, 2.5e-308, 800.0, -800.0, 1e6, -1e6]
    scores = np.concatenate([special, [np.inf, -np.inf, np.nan], np.random.default_rng(76).normal(0, 3, 40)])
    si, sj = (a.ravel() for a in np.meshgrid(scores, scores))
    below_one = np.nextafter(1.0, 0.0)
    with np.errstate(invalid="ignore"):
        p = np.minimum(np.nan_to_num(link.prob(si - sj), nan=0.5), below_one)
        for u in (0.0, np.nextafter(0.5, 0.0), 0.5, below_one, p, np.nextafter(p, 0.0)):
            u = np.broadcast_to(u, si.shape)
            expected = np.where(u < link.prob(si - sj), 1, -1)
            got = comparisons._labels(link, si, sj, u)
            assert got.dtype == expected.dtype and np.array_equal(got, expected)


def test_a_dropped_block_keeps_no_labels_while_the_next_is_drawn():
    # once its consumer drops the first block, its labels die before the second block's i is drawn, and its i by the
    # time the second block is drawn
    events = []

    class Generator(np.random.Generator):
        """Notes each draw of bounded integers: a block's i, then its j."""

        def integers(self, *args, **kwargs):
            events.append("integers")
            return super().integers(*args, **kwargs)

    spec, rng = _model(d=3, beta=[0.5, -1.0, 2.0]), SimpleNamespace(generator=lambda: Generator(np.random.PCG64(75)))
    samples = generate_samples(RngStream(74), spec, 100)
    blocks = iter(comparisons._Drawn(rng, spec, samples, 3 * comparisons._BLOCK_ROWS))
    block = next(blocks)
    refs = [weakref.ref(block[0], lambda _: events.append("i")), weakref.ref(block[2], lambda _: events.append("y"))]
    del block
    next(blocks)
    assert [ref() for ref in refs] == [None, None]
    second_i = [k for k, event in enumerate(events) if event == "integers"][2]  # after the first block's i and j
    assert events.index("y") < second_i


def test_a_dataset_iterates_as_views_of_its_blocks():
    b, rng = comparisons._BLOCK_ROWS, np.random.default_rng(72)
    m = 3 * b + 5
    data = ComparisonDataset(9, rng.integers(0, 9, m), rng.integers(0, 9, m), rng.choice([-1, 1], m))
    blocks = list(data)
    assert [tuple(map(len, block)) for block in blocks] == [(b + 1,) * 3, (b + 2,) * 3, (b + 2,) * 3]
    for k, name in enumerate("ijy"):
        parts = [block[k] for block in blocks]
        assert all(np.shares_memory(part, getattr(data, name)) for part in parts)
        assert np.array_equal(np.concatenate(parts), getattr(data, name))
    assert [len(block[2]) for block in ComparisonDataset(3, [0, 2], [1, 1], [1, -1])] == [2]


def test_drawn_comparisons_iterated_again_draw_the_same_blocks():
    spec = _model(d=3, beta=[0.5, -1.0, 2.0])
    samples = generate_samples(RngStream(77), spec, 60)
    drawn = comparisons._Drawn(RngStream(78), spec, samples, 2 * comparisons._BLOCK_ROWS + 9)
    first, second = list(drawn), list(drawn)
    assert len(first) == len(second) == 2
    for a, b in zip(first, second):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_a_dataset_checks_its_labels_without_a_copy_of_them():
    # the label check is three reductions, no mask or |y| (an 8 B |y| and a 1 B mask per comparison are 18 MB
    # here); its peak, Python objects only, was 1.3-1.5 kB
    m, rng = 2_000_000, np.random.default_rng(73)
    i, j, y = rng.integers(0, 5, m), rng.integers(0, 5, m), rng.choice([-1, 1], m)
    tracemalloc.start()
    try:
        ComparisonDataset(5, i, j, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096
    for bad in (3, 0, -3):  # above the largest label, zero and below the smallest, each in the last block
        y[-1] = bad
        with pytest.raises(ValueError, match="labels must be -1 or \\+1"):
            ComparisonDataset(5, i, j, y)


def test_flip_fraction_noiseless_and_negated():
    spec = _model(d=1, beta=[2.0], link=DeterministicLink())
    samples = SampleSet(np.array([[0.0], [1.0], [2.0], [0.0], [0.0], [0.0]]))
    data = generate_comparisons(RngStream(52), spec, samples, 20_000)
    ties = 0.5 * (data.i == data.j).mean()  # self-pairs count half a flip
    assert flip_fraction(data, spec, samples) == ties
    negated = ComparisonDataset(data.n, data.i, data.j, -data.y)
    assert flip_fraction(negated, spec, samples) == 1.0 - ties


def test_flip_fraction_checks_the_dataset_against_the_samples():
    # a dataset of 30 rows read against 40 would give 1.0 here, and one indexing row 45 an IndexError
    spec = _model(d=1, beta=[2.0])
    samples = SampleSet(np.arange(80.0).reshape(80, 1))
    for dataset in (ComparisonDataset(30, [0, 1], [2, 3], [1, -1]), ComparisonDataset(50, [45, 1], [2, 3], [1, -1])):
        with pytest.raises(ValueError, match=f"dataset indexes {dataset.n} rows but samples provide 40"):
            flip_fraction(dataset, spec, samples)


def _whole_array_flip_fraction(dataset, spec, samples):
    """flip_fraction as one whole-array read: a flag per comparison, 0.5 at a tie."""
    scores = samples.comparison_half @ spec.beta
    s = scores[dataset.i] - scores[dataset.j]
    return float(np.where(s == 0, 0.5, ((s > 0) & (dataset.y == -1)) | ((s < 0) & (dataset.y == 1))).mean())


@pytest.mark.parametrize("link", [DeterministicLink(), LogisticLink(1.0)], ids=["sign", "logistic"])
@pytest.mark.parametrize("m", [1, comparisons._BLOCK_ROWS - 1, 2 * comparisons._BLOCK_ROWS + 9])
def test_flip_fraction_of_drawn_comparisons_is_that_of_their_dataset(link, m):
    spec = _model(d=3, beta=[0.5, -1.0, 2.0], link=link)
    samples = generate_samples(RngStream(80), spec, 40)
    drawn = comparisons._Drawn(RngStream(81), spec, samples, m)
    data = generate_comparisons(RngStream(81), spec, samples, m)
    expected = _whole_array_flip_fraction(data, spec, samples)
    assert flip_fraction(drawn, spec, samples) == flip_fraction(data, spec, samples) == expected


@pytest.mark.parametrize(
    "link", [DeterministicLink(), LogisticLink(0.3), LogisticLink(1.0), LogisticLink(5.0)], ids=str
)
def test_flip_fraction_is_the_whole_array_formula_bit_for_bit(link):
    # rows repeat, so pairs of distinct rows tie as well as self-pairs; m from one comparison to several blocks
    spec = _model(d=2, beta=[1.0, -2.0], link=link)
    samples = SampleSet(np.random.default_rng(82).integers(-2, 3, (60, 2)).astype(float))
    for seed, m in enumerate((1, 5, 999, comparisons._BLOCK_ROWS, 3 * comparisons._BLOCK_ROWS + 7)):
        data = generate_comparisons(RngStream(83, seed), spec, samples, m)
        assert flip_fraction(data, spec, samples) == _whole_array_flip_fraction(data, spec, samples), m


def test_flip_fraction_holds_a_few_blocks_of_drawn_comparisons():
    # 12 blocks drawn and read one at a time; the peak, 2.7 blocks' (i, j, y) bytes, was the same at 2 and 40 blocks
    b, spec = comparisons._BLOCK_ROWS, _model(d=3, beta=[0.5, -1.0, 2.0])
    samples = generate_samples(RngStream(84), spec, 50)
    drawn = comparisons._Drawn(RngStream(85), spec, samples, 12 * b)
    tracemalloc.start()
    try:
        flip_fraction(drawn, spec, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 24 * b  # four blocks of (i, j, y); all 12 blocks' would be 2.4 MB


def test_a_nan_score_difference_makes_the_flip_fraction_nan():
    # a NaN difference has no sign, so its label is neither right nor wrong; a fraction that reads low would hide it
    spec = _model(d=1, beta=[1.0])
    samples = SampleSet(np.array([[0.0], [np.nan], [2.0], [0.0], [0.0], [0.0]]))
    assert math.isnan(flip_fraction(ComparisonDataset(3, [0, 1, 2], [2, 0, 0], [-1, 1, 1]), spec, samples))
    assert flip_fraction(ComparisonDataset(3, [0, 2], [2, 0], [-1, 1]), spec, samples) == 0.0


def test_generation_validates_counts():
    spec = _model()
    with pytest.raises(ValueError):
        generate_samples(RngStream(0), spec, 0)
    with pytest.raises(ValueError):
        generate_comparisons(RngStream(0), spec, generate_samples(RngStream(0), spec, 3), 0)


# --- CSV -------------------------------------------------------------------


def test_samples_csv_round_trip(tmp_path):
    samples = generate_samples(RngStream(61), _model(d=3, beta=[1, 0, 0]), 7)
    path = tmp_path / "s.csv"
    write_samples_csv(samples, path)
    raw = path.read_bytes()
    assert raw.startswith(b"x_1,x_2,x_3\n") and b"\r" not in raw
    back = read_samples_csv(path)
    assert back.n == 7
    assert np.array_equal(back.features, samples.features)  # repr round-trips exactly


def test_comparisons_csv_round_trip(tmp_path):
    data = ComparisonDataset(5, [0, 4, 2], [1, 0, 2], [1, -1, 1])
    path = tmp_path / "c.csv"
    write_comparisons_csv(data, path)
    assert path.read_bytes() == b"i,j,y\n1,2,1\n5,1,-1\n3,3,1\n"
    back = read_comparisons_csv(path, 5)
    assert np.array_equal(back.i, data.i) and np.array_equal(back.j, data.j)
    assert np.array_equal(back.y, data.y)


def test_a_dataset_read_from_csv_holds_one_table(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("i,j,y\n1,2,1\n5,1,-1\n3,3,1\n")
    back = read_comparisons_csv(path, 5)
    # columns of one table: their bounds overlap, though no element is shared; a 0-based copy would overlap nothing
    assert np.may_share_memory(back.i, back.y) and np.may_share_memory(back.j, back.y)
    assert back.i.tolist() == [0, 4, 2] and back.j.tolist() == [1, 0, 2] and back.y.tolist() == [1, -1, 1]


def test_comparisons_csv_spanning_several_write_blocks(tmp_path):
    rng = np.random.default_rng(0)
    m = 2 * 8192 + 5
    i, j = rng.integers(0, 1000, size=(2, m))
    y = rng.choice([-1, 1], size=m)
    path = tmp_path / "c.csv"
    write_comparisons_csv(ComparisonDataset(1000, i, j, y), path)
    expected = "i,j,y\n" + "".join(f"{a + 1},{b + 1},{c}\n" for a, b, c in zip(i, j, y))
    assert path.read_text() == expected


@pytest.mark.parametrize("parts", [1, 2, 3])
@pytest.mark.parametrize("count", [0, 1, 8191, 8192, 8193, 3 * 8192 + 5])
def test_parallel_write_matches_a_one_process_reference(tmp_path, monkeypatch, parts, count):
    rng = np.random.default_rng(count)
    features = rng.standard_normal((count, 3)) * 10.0 ** rng.integers(-320, 300, size=(count, 3))
    features[:2, 0] = [-0.0, 5e-324][:count]
    i, j = rng.integers(0, 1000, size=(2, count))
    y = rng.choice([-1, 1], size=count)
    tables = {
        "array": (features, "".join(",".join(map(str, row)) + "\n" for row in features.tolist())),
        "triples": (
            _OneBasedTriples(SimpleNamespace(i=i, j=j, y=y)),
            "".join(f"{a + 1},{b + 1},{c}\n" for a, b, c in zip(i.tolist(), j.tolist(), y.tolist())),
        ),
    }
    forks, real_fork = [], os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(comparisons, "_cpu_count", lambda: parts)
    monkeypatch.setattr(os, "fork", fork)
    for name, (rows, body) in tables.items():
        path = tmp_path / f"{name}.csv"
        _write_csv(path, ["a", "b", "c"], rows)
        assert path.read_text() == "a,b,c\n" + body
        back = _read_csv(path, lambda width: ["a", "b", "c"], rows[:count].dtype)
        assert back.dtype == rows[:count].dtype and back.tobytes() == rows[:count].tobytes()  # -0.0 too
    blocks = -(-count // 8192)
    assert len(forks) == 4 * (min(parts, max(blocks, 1)) - 1)  # a write and a read of each table
    assert sorted(p.name for p in tmp_path.iterdir()) == ["array.csv", "triples.csv"]


@pytest.mark.parametrize("everywhere", [False, True], ids=["fault-in-children", "fault-in-every-process"])
def test_parallel_write_redoes_a_failed_child_here_and_reaps_it(tmp_path, monkeypatch, capfd, everywhere):
    parent_pid = os.getpid()
    real_write_rows, real_fork = comparisons._write_rows, os.fork
    forks = []

    def write_rows(*args):
        if everywhere or os.getpid() != parent_pid:
            raise OSError("injected fault")
        real_write_rows(*args)

    def fork():
        forks.append(1)
        return real_fork()

    rows = np.random.default_rng(9).standard_normal((3 * 8192, 1))
    monkeypatch.setattr(comparisons, "_cpu_count", lambda: 1)
    _write_csv(tmp_path / "one.csv", ["x_1"], rows)
    # three parts: the first child's failure is met while the second is still unreaped
    monkeypatch.setattr(comparisons, "_cpu_count", lambda: 3)
    monkeypatch.setattr(comparisons, "_write_rows", write_rows)
    monkeypatch.setattr(os, "fork", fork)
    for old in (None, b"x_1\n0.5\n"):  # no file before, then an older table
        (tmp_path / "out").mkdir()
        path = tmp_path / "out" / "s.csv"
        if old is not None:
            path.write_bytes(old)
        forks.clear()
        if everywhere:  # this process's own error, raised once and naming the table
            with pytest.raises(OSError, match=f"^{re.escape(str(path))}: injected fault$"):
                _write_csv(path, ["x_1"], rows)
            want = [] if old is None else [old]  # no truncated table: the older file keeps its bytes, or there is none
        else:
            _write_csv(path, ["x_1"], rows)
            want = [(tmp_path / "one.csv").read_bytes()]  # the bytes of one process
        assert len(forks) == 2
        assert capfd.readouterr().err == ""  # a failed child prints nothing
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert [p.read_bytes() for p in path.parent.iterdir()] == want  # and no stage is left
        shutil.rmtree(path.parent)


def test_tables_of_one_block_never_fork(tmp_path, monkeypatch):
    def fork():
        raise AssertionError("forked for a table of one block")

    monkeypatch.setattr(comparisons, "_cpu_count", lambda: 4)
    monkeypatch.setattr(os, "fork", fork)
    write_samples_csv(SampleSet(np.ones((8192, 2))), tmp_path / "s.csv")
    _write_csv(tmp_path / "t.csv", ["a", "b"], [[1.5, None]])
    assert read_samples_csv(tmp_path / "s.csv").n == 4096
    assert (tmp_path / "t.csv").read_text() == "a,b\n1.5,\n"


def test_rows_of_another_width_raise(tmp_path):
    # three fields then one fill two 2-wide rows, which one flat template would write without a word
    with pytest.raises(ValueError, match="rows 0..1 are not all 2 fields wide"):
        _write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2, 3], [4]])
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("shape", [(2, 4), (3, 1), (2, 2, 2), (2,)])
@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_arrays_of_another_shape_raise_as_rows_do(tmp_path, shape, dtype):
    # a (2, 4) or (3, 1) array failed inside the % template, and a (2, 2, 2) one was written flattened
    with pytest.raises(ValueError, match=f"^rows 0..{shape[0] - 1} are not all 2 fields wide$"):
        _write_csv(tmp_path / "t.csv", ["a", "b"], np.ones(shape, dtype))
    assert not list(tmp_path.iterdir())


# --- float formatting: every float64 array is written a block at a time, byte for byte as repr writes it ---


def _repr_lines(rows) -> bytes:
    return "".join(",".join(map(repr, row)) + "\n" for row in np.asarray(rows).tolist()).encode()


def _with_neighbours(x):
    x = np.asarray(x, dtype=float)
    return np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


FLOAT_FAMILIES = {
    "random-bits": lambda rng: rng.integers(0, 2**64, size=5 * 10**4, dtype=np.uint64).view(np.float64),
    "powers-of-two": lambda rng: _with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))),
    "powers-of-ten": lambda rng: _with_neighbours([float(f"1e{k}") for k in range(-323, 309)]),
    "subnormals-and-zeros": lambda rng: np.concatenate(
        [rng.integers(1, 2**52, size=10**4, dtype=np.uint64).view(np.float64), [0.0, -0.0, 5e-324, 1e-323]]
    ),
    "notation-switches": lambda rng: _with_neighbours([1e-4, 1e-3, 1e15, 1e16, 9999999999999998.0, 1e17]),
    "near-2**53-and-1e23": lambda rng: np.concatenate(
        [2.0**53 + np.arange(-40, 41), 2.0**53 - np.arange(0.5, 20), _with_neighbours([1e23, 1e22, 2.0**63])]
    ),
    "gaussian-at-every-scale": lambda rng: rng.standard_normal(10**4) * 10.0 ** rng.integers(-7, 19, size=10**4),
    "short-decimals": lambda rng: rng.integers(-(10**6), 10**6, size=10**4) / 10.0 ** rng.integers(0, 9, size=10**4),
    "non-finite": lambda rng: np.array([np.nan, -np.nan, np.inf, -np.inf, 1.5, -np.inf, np.nan, 0.1]),
}


@pytest.mark.parametrize("family", FLOAT_FAMILIES)
def test_float_arrays_are_written_as_repr_writes_each_value(family):
    x = FLOAT_FAMILIES[family](np.random.default_rng(19))
    rows = np.concatenate([x, -x])[: len(x) * 2 // 7 * 7].reshape(-1, 7)  # both signs; "," and "\n" separators
    assert comparisons._float_lines(rows) == _repr_lines(rows)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12), st.integers(1, 3))
def test_float_lines_match_repr_for_any_finite_floats(values, width):
    rows = np.resize(np.array(values), (-(-len(values) // width), width))
    assert comparisons._float_lines(rows) == _repr_lines(rows)


def test_fortran_ordered_and_strided_float_tables_keep_their_row_order(tmp_path, monkeypatch):
    # SampleSet keeps the caller's memory order, so a block may be neither C-ordered nor contiguous
    monkeypatch.setattr(comparisons, "_BLOCK_ROWS", 64)
    monkeypatch.setattr(comparisons, "_FLOAT_BATCH", 20)  # several batches per block, one row each at width 30
    base = np.random.default_rng(3).standard_normal((300, 6)) * [1, 1e-5, 1e5, 1e17, 1, 1]
    for name, rows in {
        "fortran": np.asfortranarray(base),
        "strided": base[::2, ::2],
        "transposed": base[:30].T,
        "negative-strides": base[::-3, ::-1],
    }.items():
        header, path = comparisons._names("x", rows.shape[1]), tmp_path / f"{name}.csv"
        _write_csv(path, header, rows)
        assert path.read_bytes() == (",".join(header) + "\n").encode() + _repr_lines(rows), name


def test_a_table_that_cannot_be_staged_is_named_as_given(tmp_path):
    path = tmp_path / "missing" / "t.csv"
    with pytest.raises(FileNotFoundError) as caught:
        _write_csv(path, ["a"], [[1]])
    assert str(caught.value) == f"[Errno 2] No such file or directory: '{path}'"
    assert not list(tmp_path.iterdir())


def test_committed_tables_get_the_mode_and_target_that_open_gives(tmp_path):
    mask = os.umask(0o027)
    try:
        with open(tmp_path / "opened.csv", "w"):
            pass
        _write_csv(tmp_path / "new.csv", ["a"], [[1]])
        (tmp_path / "old.csv").write_text("a\n0\n")
        os.chmod(tmp_path / "old.csv", 0o604)
        _write_csv(tmp_path / "old.csv", ["a"], [[1]])
        os.symlink("old.csv", tmp_path / "link.csv")
        _write_csv(tmp_path / "link.csv", ["a"], [[2]])
    finally:
        os.umask(mask)
    assert stat.S_IMODE(os.stat(tmp_path / "new.csv").st_mode) == 0o640
    assert stat.S_IMODE(os.stat(tmp_path / "opened.csv").st_mode) == 0o640
    assert stat.S_IMODE(os.stat(tmp_path / "old.csv").st_mode) == 0o604  # open(path, "w") keeps an existing mode
    assert os.readlink(tmp_path / "link.csv") == "old.csv"  # the link stays; its target is replaced
    assert (tmp_path / "old.csv").read_text() == "a\n2\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "new.csv", "old.csv", "opened.csv"]


SAMPLE_ERRORS = [
    ("a,b\n1.0,2.0\n", 1),  # wrong header
    ("x_1,x_2\n1.0\n", 2),  # short row
    ("x_1,x_2\n1.0,oops\n", 2),  # bad float
    ("x_1,x_2\n1.0,2.0\n3.0,4.0,5.0\n", 3),  # long row
    ("x_1,x_2\n1.0,2.0\nnan,4.0\n", 3),
    ("x_1,x_2\n1.0,2.0\n3.0,-inf\n", 3),
    ("x_1,x_2\n1.0,2.0\n1e400,4.0\n", 3),  # overflows to inf
    ("x_1,x_2\n1.0,2.0\n\n3.0,4.0\n", 3),  # blank line
    ("x_1,x_2\n1.0,2.0\n3.0,#4.0\n", 3),  # '#' is not a comment marker
    ("x_1,x_2\n1.0,2.0\n3.0,4.0\n5.0,abc\n", 4),  # bad float past the first body row
    ("x_1,x_2\n1.0,2.0\n3.0,4.0\n5.0,6.0,7.0\n", 4),  # long row past the first body row
]


@pytest.mark.parametrize("content,line", SAMPLE_ERRORS)
def test_samples_csv_errors_carry_line_numbers(tmp_path, content, line):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(ValueError, match=f":{line}:") as err:
        read_samples_csv(path)
    # the file:line prefix is the only location in the message
    assert "at row" not in str(err.value) and "usecols" not in str(err.value)


def test_samples_csv_rejects_an_empty_body(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("x_1,x_2\n")
    with pytest.raises(ValueError, match="got 0"):
        read_samples_csv(path)


def test_samples_csv_rejects_odd_row_count(tmp_path):
    path = tmp_path / "odd.csv"
    path.write_text("x_1\n1.0\n2.0\n3.0\n")
    with pytest.raises(ValueError, match="even"):
        read_samples_csv(path)


COMPARISON_ERRORS = [
    ("i,j\n", "header"),
    ("i,j,y\n1,2\n", ":2:"),
    ("i,j,y\n1,2,0\n", "label"),
    ("i,j,y\n0,2,1\n", "index"),
    ("i,j,y\n1,6,1\n", "index"),
    ("i,j,y\n", "no comparison rows"),
    ("i,j,y\n1,2,1\n1,2\n", ":3:"),
    ("i,j,y\n1,2,1\n1,2,1.0\n", ":3:"),
    ("i,j,y\n1,2,1\n\n1,2,1\n", ":3:"),
    ("i,j,y\n1,2,1\n2,1,-1\n1,9,1\n", ":4: index"),
    ("i,j,y\n1,2,1\n2,1,-2\n9,1,1\n", ":3: label"),
    ("i,j,y\n1,2,1\n2,1,-1\n1,2,x\n", ":4:"),
    ("i,j,y\n1,2,1\n2,1,-1\n1,2,1,1\n", ":4:"),
]


@pytest.mark.parametrize("content,fragment", COMPARISON_ERRORS)
def test_comparisons_csv_errors(tmp_path, content, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(ValueError, match=fragment) as err:
        read_comparisons_csv(path, 5)
    assert "at row" not in str(err.value) and "usecols" not in str(err.value)


LONG = 3 * 8192  # valid rows beside the fault: the body splits into as many read ranges as there are CPUs


def _errors_per_cpu_count(monkeypatch, read):
    """The message ``read()`` raises with one, two and three CPUs."""
    messages = []
    for parts in (1, 2, 3):
        monkeypatch.setattr(comparisons, "_cpu_count", lambda: parts)
        with pytest.raises(ValueError) as err:
            read()
        messages.append(str(err.value))
    return messages


def _with_long_valid_run(content, row, fault_last):
    """``content`` with LONG copies of ``row`` after its header line, or at its end."""
    header, _, body = content.partition("\n")
    return f"{header}\n{row * LONG}{body}" if fault_last else content + row * LONG


@pytest.mark.parametrize("fault_last", [True, False], ids=["fault-in-last-range", "fault-in-first-range"])
@pytest.mark.parametrize("content,line", SAMPLE_ERRORS)
def test_samples_csv_errors_in_a_split_body_match_one_process(tmp_path, monkeypatch, content, line, fault_last):
    path = tmp_path / "bad.csv"
    path.write_text(_with_long_valid_run(content, "1.0,2.0\n", fault_last))
    one, two, three = _errors_per_cpu_count(monkeypatch, lambda: read_samples_csv(path))
    assert one == two == three and re.match(rf"{re.escape(str(path))}:\d+: ", one)
    if fault_last:  # a fault first may read differently, e.g. a short first row sets the width
        assert f":{line + LONG if line > 1 else 1}:" in one


@pytest.mark.parametrize("fault_last", [True, False], ids=["fault-in-last-range", "fault-in-first-range"])
@pytest.mark.parametrize(
    "content,fragment",
    [case for case in COMPARISON_ERRORS if case[0] != "i,j,y\n"],  # an empty body has no fault to move
)
def test_comparisons_csv_errors_in_a_split_body_match_one_process(tmp_path, monkeypatch, content, fragment, fault_last):
    path = tmp_path / "bad.csv"
    path.write_text(_with_long_valid_run(content, "1,2,1\n", fault_last))
    one, two, three = _errors_per_cpu_count(monkeypatch, lambda: read_comparisons_csv(path, 5))
    assert one == two == three and re.match(rf"{re.escape(str(path))}:\d+: ", one)
    if fault_last:
        assert re.search(re.sub(r":(\d+):", lambda m: f":{int(m[1]) + LONG}:", fragment), one)


@pytest.mark.parametrize("parts", [2, 3])
def test_parallel_read_parses_a_failed_childs_range_here_and_reaps_it(tmp_path, monkeypatch, capfd, parts):
    parent_pid = os.getpid()
    real_save, real_fork = np.save, os.fork
    forks = []

    def save(out, rows):
        if os.getpid() != parent_pid:
            raise OSError("injected child fault")
        real_save(out, rows)

    def fork():
        forks.append(1)
        return real_fork()

    rng = np.random.default_rng(5)
    count = 3 * 8192
    write_samples_csv(SampleSet(rng.standard_normal((count, 2))), tmp_path / "s.csv")
    i, j = rng.integers(0, count // 2, size=(2, count))
    write_comparisons_csv(ComparisonDataset(count // 2, i, j, rng.choice([-1, 1], size=count)), tmp_path / "c.csv")

    def read_all():
        samples = read_samples_csv(tmp_path / "s.csv")
        dataset = read_comparisons_csv(tmp_path / "c.csv", count // 2)
        return [samples.features.tobytes(), dataset.i.tobytes(), dataset.j.tobytes(), dataset.y.tobytes()]

    monkeypatch.setattr(comparisons, "_cpu_count", lambda: 1)
    want = read_all()
    monkeypatch.setattr(comparisons, "_cpu_count", lambda: parts)
    monkeypatch.setattr(np, "save", save)
    monkeypatch.setattr(os, "fork", fork)
    open_fds = len(os.listdir("/proc/self/fd"))
    assert read_all() == want
    assert len(forks) == 2 * (parts - 1)  # every range but the first failed in its child
    assert capfd.readouterr().err == ""  # a failed read child prints nothing
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == open_fds  # every temporary file is closed
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv", "s.csv"]


def _fifo(tmp_path, peer):
    """A new FIFO and a started thread that runs ``peer(path)`` on it, to open its other end."""
    path = tmp_path / "fifo.csv"
    os.mkfifo(path)
    thread = threading.Thread(target=peer, args=(path,))
    thread.start()
    return path, thread


@pytest.mark.parametrize("pairs", [1, 3 * 8192])
def test_tables_read_through_a_fifo_match_a_file(tmp_path, monkeypatch, pairs):
    # a pipe cannot tell its offset, so the reader parses the body in one process; a small table is
    # written and closed before the reader has read it, so nothing may wait for another writer
    features = np.random.default_rng(6).standard_normal((2 * pairs, 3))
    dataset = ComparisonDataset(pairs, np.arange(pairs), np.arange(pairs)[::-1], np.ones(pairs))
    write_samples_csv(SampleSet(features), tmp_path / "s.csv")
    write_comparisons_csv(dataset, tmp_path / "c.csv")
    monkeypatch.setattr(comparisons, "_cpu_count", lambda: 2)
    for name, read in (("s.csv", read_samples_csv), ("c.csv", lambda path: read_comparisons_csv(path, pairs))):
        data = (tmp_path / name).read_bytes()
        fifo, writer = _fifo(tmp_path, lambda path: path.write_bytes(data))
        with _deadline(20):
            got, want = read(fifo), read(tmp_path / name)
        writer.join(timeout=60)
        assert not writer.is_alive()
        for field in ("features",) if name == "s.csv" else ("i", "j", "y"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        fifo.unlink()


def test_a_table_written_into_a_fifo_matches_a_file(tmp_path, monkeypatch):
    # a FIFO is written in place: a rename would replace the node that the reader holds open
    features = np.random.default_rng(7).standard_normal((3 * 8192, 2))
    monkeypatch.setattr(comparisons, "_cpu_count", lambda: 2)
    write_samples_csv(SampleSet(features), tmp_path / "s.csv")
    got = []
    fifo, reader = _fifo(tmp_path, lambda path: got.append(path.read_bytes()))
    with _deadline(20):
        write_samples_csv(SampleSet(features), fifo)
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert got == [(tmp_path / "s.csv").read_bytes()]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo.csv", "s.csv"]


def test_a_table_written_into_a_fifo_creates_no_file_beside_it(tmp_path, monkeypatch):
    # forked writers keep their rows in the default temporary directory, so a FIFO in a directory that refuses new
    # files can still be written
    created, real_open = [], os.open

    def recording_open(path, flags, *args):
        if flags & os.O_CREAT or flags & os.O_TMPFILE == os.O_TMPFILE:
            created.append(os.fspath(path))
        return real_open(path, flags, *args)

    monkeypatch.setattr(comparisons, "_cpu_count", lambda: 3)
    monkeypatch.setattr(os, "open", recording_open)
    got = []
    fifo, reader = _fifo(tmp_path, lambda path: got.append(path.read_bytes()))
    with _deadline(20):
        write_samples_csv(SampleSet(np.ones((3 * 8192, 2))), fifo)
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert got == [b"x_1,x_2\n" + b"1.0,1.0\n" * (3 * 8192)]
    assert created  # the children's temporary files, made in this process before each fork
    assert not [p for p in created if str(tmp_path) in (p, os.path.dirname(p))]
    assert [p.name for p in tmp_path.iterdir()] == ["fifo.csv"]


@pytest.mark.parametrize("parts", [1, 3])
def test_a_fifo_whose_reader_left_names_itself_in_the_broken_pipe(tmp_path, monkeypatch, parts):
    # a FIFO is written in place, so no stage names the error, and a write's EPIPE names no file of itself; the table
    # is larger than a pipe's 64 KiB buffer, so the write fails also when the reader closes while the writer waits
    monkeypatch.setattr(comparisons, "_cpu_count", lambda: parts)
    fifo, reader = _fifo(tmp_path, lambda path: os.close(os.open(path, os.O_RDONLY)))
    with _deadline(20), pytest.raises(BrokenPipeError) as caught:
        write_samples_csv(SampleSet(np.ones((3 * 8192, 2))), fifo)
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert str(caught.value) == f"[Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}: '{fifo}'"
    assert [p.name for p in tmp_path.iterdir()] == ["fifo.csv"]


@pytest.mark.parametrize("parts", [1, 3])
def test_reader_accepts_crlf_lone_cr_and_a_missing_final_newline(tmp_path, monkeypatch, parts):
    features = np.random.default_rng(8).standard_normal((3 * 8192, 2))
    path = tmp_path / "s.csv"
    write_samples_csv(SampleSet(features), path)
    lf = path.read_bytes()
    monkeypatch.setattr(comparisons, "_cpu_count", lambda: parts)
    want = read_samples_csv(path).features.tobytes()
    assert want == features.tobytes()
    for variant in (lf.replace(b"\n", b"\r\n"), lf.replace(b"\n", b"\r"), lf[:-1]):
        path.write_bytes(variant)
        assert read_samples_csv(path).features.tobytes() == want


@pytest.mark.parametrize("parts", [1, 2])
def test_a_table_replaced_while_it_is_read_is_read_whole_as_it_was_when_opened(tmp_path, monkeypatch, parts):
    # the header, the sizing and every range come from the one file opened first, forked ranges too; here the path
    # is replaced by another table of the same header and shape as soon as that file has been opened.  Each pread
    # returns 1000 rows of 12 bytes (Linux returns at most 0x7ffff000), so a range cut after one read would end on a
    # newline and pass the row count
    path, other = tmp_path / "s.csv", tmp_path / "other.csv"
    write_samples_csv(SampleSet(np.full((4 * 8192, 3), 1.0)), path)
    write_samples_csv(SampleSet(np.full((4 * 8192, 3), 2.0)), other)
    opened, pread = [], os.pread

    def replacing_open(file, *args, **kwargs):
        f = open(file, *args, **kwargs)
        if not opened:
            opened.append(file)
            os.replace(other, path)
        return f

    monkeypatch.setattr(comparisons, "_cpu_count", lambda: parts)
    monkeypatch.setattr(comparisons, "open", replacing_open, raising=False)
    monkeypatch.setattr(os, "pread", lambda fd, size, at: pread(fd, min(size, 12 * 1000), at))
    features = read_samples_csv(path).features
    assert opened == [path] and not other.exists()
    assert np.array_equal(features, np.full((4 * 8192, 3), 1.0))


# --- golden bytes ------------------------------------------------------------
# Fixed-seed outputs, byte for byte: a change to the CSV codec must reproduce them.


def test_samples_csv_golden_bytes(tmp_path):
    path = tmp_path / "s.csv"
    write_samples_csv(SampleSet(np.array([[-0.0, 1e-05], [1e16, 5e-324]])), path)
    assert path.read_bytes() == b"x_1,x_2\n-0.0,1e-05\n1e+16,5e-324\n"


GOLDEN_GENERATE = {
    "quiet.samples.csv": """x_1,x_2
0.642255728139626,4.6149763101139465
-1.405495142236832,5.205696146423167
0.4011524865837311,4.462766652445644
0.27628598229528395,3.8907416115153195
-0.2258835906479092,5.032281537012212
-0.6888856745180161,2.980513267718825
-0.1637895044426576,4.194877299733162
-1.6890368273377399,2.306623347588805
-0.8224246709752168,3.4260017436231047
0.6419363445413924,4.78837866515105
1.7035027261418423,3.141905808022463
1.3119236757596808,1.9615451383366387
""",
    "quiet.comparisons.csv": "i,j,y\n6,4,1\n2,3,1\n5,3,1\n2,1,1\n6,1,1\n2,5,1\n4,1,1\n2,2,-1\n",
    "quiet.truth.csv": """beta_1,beta_2,mu_1,mu_2,sigma_1_1,sigma_1_2,sigma_2_1,sigma_2_2,alpha,c1
-3.6657926436945605,0.6077992125307399,0.3108304291994415,3.9747349055667023,0.9999999999999999,\
-9.948131888485371e-18,-9.948131888485371e-18,1.0,deterministic,
""",
    "noisy.samples.csv": """x_1,x_2
0.5513823105138368,4.547054990686688
-0.9348962744566787,5.440274902732696
0.37638710485895094,4.43617643668842
0.28575771532294264,3.8982658474347645
-0.07872211134271312,5.088304323414996
-0.41477377270831317,3.1612461753134076
-0.033653586691952175,4.2628449205868835
-1.1406937377166788,2.659902004196816
-0.511697746011913,3.6159742932729193
0.5511504986224038,4.716038477987347
1.3216462665999449,2.947284539397951
1.0374341755074854,1.8580968366091328
""",
    "noisy.comparisons.csv": "i,j,y\n6,4,1\n2,3,1\n5,3,1\n2,1,1\n6,1,1\n2,5,-1\n4,1,1\n2,2,-1\n",
    "noisy.truth.csv": """beta_1,beta_2,mu_1,mu_2,sigma_1_1,sigma_1_2,sigma_2_1,sigma_2_2,alpha,c1
-3.6657926436945605,0.6077992125307399,0.3108304291994415,3.9747349055667023,0.5268005287911254,\
-0.11261436876384275,-0.11261436876384275,0.9731994712088746,0.5820411967375902,0.32104665809333843
""",
    "bh.csv": "n,m,beta_hat_1,beta_hat_2\n6,8,-0.2526100898616316,-0.05679953209915553\n",
}


def test_cli_generate_and_estimate_golden_bytes(tmp_path, capsys):
    common = ["generate", "--d", "2", "--n", "6", "--m", "8", "--seed", "3"]
    assert main(common + ["--out-prefix", str(tmp_path / "quiet")]) == 0
    assert main(common + ["--pe", "0.2", "--lambda-min", "0.5", "--out-prefix", str(tmp_path / "noisy")]) == 0
    noisy = tmp_path / "noisy"
    rc = main(
        [
            "estimate",
            "--samples", f"{noisy}.samples.csv",
            "--comparisons", f"{noisy}.comparisons.csv",
            "--truth", f"{noisy}.truth.csv",
            "--out", str(tmp_path / "bh.csv"),
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out == (
        "beta_hat=-0.2526100898616316,-0.05679953209915553\n"
        "norm_error=0.957999835335197\nangle=0.38548042472423333\n"
    )
    for name, text in GOLDEN_GENERATE.items():
        assert (tmp_path / name).read_bytes() == text.encode(), name


GOLDEN_TRIALS = """d,n,m,lambda_min,target_pe,rep,norm_error,angle,c1
2,30,103,1.0,0.2,0,0.2550143339661154,0.07440809753387906,0.10037631759563284
2,30,103,1.0,0.2,1,0.3869132210138041,0.3829891857107146,0.12409722599020598
2,60,246,1.0,0.2,0,0.4442858254680729,0.13539624477280185,0.10037631759563284
2,60,246,1.0,0.2,1,0.026047628283883198,0.005391296187688978,0.12409722599020598
"""
GOLDEN_AGG = """grid_value,norm_error_mean,norm_error_std,angle_mean,angle_std,count
30,0.32096377748995975,0.06594944352384435,0.22869864162229683,0.15429054408841777,2
60,0.23516672687597803,0.20911909859209482,0.07039377048024541,0.06500247429255644,2
"""


@pytest.mark.parametrize(
    "command,config,stdout",
    [
        ("sweep", "swept_parameter = n\ngrid = 30, 60\n", ""),
        ("min-n", "n_grid = 30, 60, 120\nangle_threshold = 0.2\n", "60\n"),
    ],
)
def test_cli_sweep_and_min_n_golden_bytes(tmp_path, capsys, command, config, stdout):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d = 2\ntarget_pe = 0.2\nrepetitions = 2\nmaster_seed = 5\n" + config)
    assert main([command, "--config", str(cfg), "--out-prefix", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().out == stdout
    trials = (tmp_path / "run.trials.csv").read_bytes().decode().splitlines()
    assert "".join(line.rsplit(",", 1)[0] + "\n" for line in trials) == GOLDEN_TRIALS  # wall_time_s stripped
    assert (tmp_path / "run.agg.csv").read_bytes() == GOLDEN_AGG.encode()
