"""Tests for the quadrature constants and the slope-for-noise inverse problem.

Oracles: adaptive ``scipy.integrate.quad`` over the whole half line for the
logistic constants, Monte Carlo integration for the logistic shrinkage
constant, and the steep-link expansion p_e = 2 ln 2 phi(0) / (alpha sigma_s)
for tiny targets.  The half-line rule itself is also checked without ``quad``:
fed a probit integrand defined here, it must give that link's closed forms, a
Gaussian-times-Gaussian integral for c1 and the bivariate-normal orthant
probability for p_e.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.special import erfc, expit

from rankreg import (
    DeterministicLink,
    LogisticLink,
    ModelSpec,
    RngStream,
    ScoreDifferenceLaw,
    SpdMatrix,
    estimate_c1,
    estimate_pe,
    flip_fraction,
    generate_comparisons,
    generate_samples,
    sample_gaussian,
    solve_alpha_for_pe,
)
from rankreg.calibration import _half_line


def _quad_mean(g, alpha, sigma_s):
    """2 int_0^inf g(s) N(s; 0, sigma_s^2) ds by adaptive quad.

    The half line is split at 1, 10 and 100 times the narrower of the link
    width 1/alpha and sigma_s, so quad cannot step over either scale.
    """
    width = min(1.0 / alpha, sigma_s)
    cuts = (0.0, width, 10.0 * width, 100.0 * width, math.inf)

    def integrand(s):
        return g(s) * math.exp(-0.5 * (s / sigma_s) ** 2) / (sigma_s * math.sqrt(2.0 * math.pi))

    with warnings.catch_warnings():
        # pieces far out in a tail hold ~1e-40 and make quad report roundoff
        warnings.simplefilter("ignore", IntegrationWarning)
        return 2.0 * sum(
            quad(integrand, lo, hi, epsabs=1e-300, epsrel=1e-13, limit=500)[0] for lo, hi in zip(cuts, cuts[1:])
        )


def _quad_pe(alpha, sigma_s):
    return _quad_mean(lambda s: expit(-alpha * s), alpha, sigma_s)


def _quad_c1(alpha, sigma_s):
    def derivative(s):
        q = expit(alpha * s)
        return alpha * q * (1.0 - q)

    return 4.0 * _quad_mean(derivative, alpha, sigma_s)


def _probit_c1(scale, sigma_s):
    # 4 * integral of scale*exp(-(scale*s)^2)/sqrt(pi) against N(0, sigma_s^2):
    # product of two Gaussians integrates in closed form
    return 4.0 * scale / (sigma_s * math.sqrt(2 * math.pi) * math.sqrt(scale**2 + 0.5 / sigma_s**2))


def _probit_pe(scale, sigma_s):
    # orthant probability of the bivariate normal (Z - sqrt(2)*scale*S, S),
    # 1/2 - asin(rho) / pi, written without its cancellation as rho -> 1
    return math.atan(1.0 / (math.sqrt(2) * scale * sigma_s)) / math.pi


# --- score law -------------------------------------------------------------


def test_score_sigma_direct_cases():
    law = ScoreDifferenceLaw.from_parameters([1.0, 0.0], SpdMatrix(np.eye(2)))
    assert law.sigma_s == math.sqrt(2)
    law = ScoreDifferenceLaw.from_parameters([1.0, 0.0], SpdMatrix(4 * np.eye(2)))
    assert math.isclose(law.sigma_s, 2 * math.sqrt(2), rel_tol=1e-15)


def test_score_sigma_rejects_zero_weights():
    with pytest.raises(ValueError, match="weight vector is zero; score differences have no spread"):
        ScoreDifferenceLaw.from_parameters([0.0, 0.0], SpdMatrix(np.eye(2)))
    with pytest.raises(ValueError, match=r"beta has shape \(3,\), expected \(2,\)"):
        ScoreDifferenceLaw.from_parameters([1.0, 0.0, 0.0], SpdMatrix(np.eye(2)))
    with pytest.raises(ValueError):
        ScoreDifferenceLaw(0.0)


def test_score_sigma_matches_sampled_pair_variance():
    beta = np.array([0.8, -1.4, 0.3])
    sigma = SpdMatrix(np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 0.5]]))
    spec = ModelSpec(beta, np.ones(3), sigma, LogisticLink())
    law = ScoreDifferenceLaw.from_parameters(spec.beta, spec.sigma)
    x = sample_gaussian(RngStream(90), spec.mu, sigma, 2_000_000)
    s = (x[:1_000_000] - x[1_000_000:]) @ beta
    assert abs(s.var() - law.sigma_s**2) <= 0.02 * law.sigma_s**2


# --- c1 --------------------------------------------------------------------

LAW_1 = ScoreDifferenceLaw(1.0)


def test_c1_rejects_the_sign_link():
    with pytest.raises(ValueError, match="the sign link has no derivative"):
        estimate_c1(DeterministicLink(), LAW_1)


@pytest.mark.parametrize("alpha", [0.1, 1.0, 5.0, 25.0])
@pytest.mark.parametrize("sigma_s", [0.5, 2.0, 10.0])
def test_c1_positive_and_bounded_by_the_slope(alpha, sigma_s):
    c1 = estimate_c1(LogisticLink(alpha), ScoreDifferenceLaw(sigma_s))
    assert 0 < c1 <= alpha  # max of the logistic derivative is alpha/4


def test_c1_matches_monte_carlo():
    link = LogisticLink(1.0)
    s = RngStream(101).generator().standard_normal(10_000_000)
    oracle = 4.0 * link.derivative(s).mean()
    assert abs(estimate_c1(link, LAW_1) - oracle) <= 0.005 * oracle


@pytest.mark.parametrize("link", [LogisticLink(1.0)])
def test_c1_quadrature_is_converged(link):
    oracle = 4.0 * _quad_mean(link.derivative, 1.0, 1.0)
    assert abs(estimate_c1(link, LAW_1) - oracle) <= 1e-12 * oracle


@pytest.mark.parametrize("tau", [1e-2, 1.0, 100.0, 1e3, 1e4, 1e5])
@pytest.mark.parametrize("sigma_s", [0.3, 1.0])
def test_c1_matches_quad_reference(tau, sigma_s):
    alpha = tau / sigma_s
    oracle = _quad_c1(alpha, sigma_s)
    assert math.isclose(estimate_c1(LogisticLink(alpha), ScoreDifferenceLaw(sigma_s)), oracle, rel_tol=1e-12)


# tau = scale * sigma_s runs over 1e-3, 0.8, 1, 1.6, 2.1, 1e3 and 1e6
PROBIT_CASES = [(1e-3, 1.0), (0.4, 2.0), (1.0, 1.0), (2.0, 0.8), (0.7, 3.0), (2e3, 0.5), (1e6, 1.0)]


def _probit_on_half_line(scale, sigma_s):
    # the probit link f(s) = erfc(-scale s) / 2 at s = sigma_s u: nodes, weights and t = scale s
    u, w = _half_line(scale * sigma_s)
    return w, scale * sigma_s * u


@pytest.mark.parametrize("scale,sigma_s", PROBIT_CASES)
def test_c1_matches_probit_closed_form(scale, sigma_s):
    # the half-line rule alone, fed the probit derivative, meets the closed form
    w, t = _probit_on_half_line(scale, sigma_s)
    c1 = 8.0 * float(w @ (scale * np.exp(-t * t) / math.sqrt(math.pi)))
    assert math.isclose(c1, _probit_c1(scale, sigma_s), rel_tol=1e-12)


# --- pe --------------------------------------------------------------------


def test_pe_flat_link_limit():
    # p_e = 1/2 - alpha * sigma_s * phi(0) / 2 + O(alpha^3) for a flat link;
    # the quadrature sum near 1/2 carries about 1e-15 of rounding
    pe = estimate_pe(LogisticLink(1e-12), LAW_1)
    assert pe < 0.5 and abs((0.5 - pe) - 1e-12 / (2.0 * math.sqrt(2.0 * math.pi))) <= 1e-14


def test_pe_steep_link_limit():
    pe = estimate_pe(LogisticLink(1e6), LAW_1)
    assert math.isclose(pe, _quad_pe(1e6, 1.0), rel_tol=1e-8)


def test_pe_sign_link_is_zero_noise():
    assert estimate_pe(DeterministicLink(), LAW_1) == 0.0


@pytest.mark.parametrize("scale,sigma_s", PROBIT_CASES)
def test_pe_matches_probit_closed_form(scale, sigma_s):
    # the half-line rule alone, fed the probit flip probability f(-|s|), meets the closed form
    w, t = _probit_on_half_line(scale, sigma_s)
    pe = 2.0 * float(w @ (0.5 * erfc(t)))
    assert math.isclose(pe, _probit_pe(scale, sigma_s), rel_tol=1e-12)


def test_pe_matches_empirical_flip_fraction():
    # d=1 with variance sigma_s^2/2 puts the score-difference deviation at 1
    spec = ModelSpec(np.array([1.0]), np.zeros(1), SpdMatrix(np.array([[0.5]])), LogisticLink(1.0))
    samples = generate_samples(RngStream(111), spec, 100_000)
    dataset = generate_comparisons(RngStream(112), spec, samples, 1_000_000)
    assert abs(flip_fraction(dataset, spec, samples) - estimate_pe(spec.link, LAW_1)) <= 0.005


def test_pe_is_strictly_decreasing_in_the_slope():
    values = [estimate_pe(LogisticLink(a), LAW_1) for a in np.logspace(-2, 2, 9)]
    assert all(b < a for a, b in zip(values, values[1:]))


# --- truncation ------------------------------------------------------------


def test_truncation_negligible_for_steep_links():
    law = ScoreDifferenceLaw(10.0)
    assert math.isclose(estimate_c1(LogisticLink(5.0), law), _quad_c1(5.0, 10.0), rel_tol=1e-10)
    assert math.isclose(estimate_pe(LogisticLink(5.0), law), _quad_pe(5.0, 10.0), rel_tol=1e-10)


def test_truncation_negligible_for_flat_links():
    # a flat link keeps the integrand proportional to the Gaussian, so any
    # Gaussian tail the rule dropped would show here in full
    law = ScoreDifferenceLaw(0.5)
    assert math.isclose(estimate_c1(LogisticLink(0.1), law), _quad_c1(0.1, 0.5), rel_tol=1e-10)
    assert math.isclose(estimate_pe(LogisticLink(0.1), law), _quad_pe(0.1, 0.5), rel_tol=1e-10)


# --- inverse problem -------------------------------------------------------


@pytest.mark.parametrize("target", [0.2, 0.4])
def test_solved_slope_round_trips(target):
    alpha = solve_alpha_for_pe(target, LAW_1)
    assert math.isclose(estimate_pe(LogisticLink(alpha), LAW_1), target, rel_tol=1e-12)


@pytest.mark.parametrize("target", [1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.2, 0.4, 0.49, 0.49999, 0.4999999])
@pytest.mark.parametrize("sigma_s", [0.3, 1.0, 3.0])
def test_solved_slope_matches_quad_reference(target, sigma_s):
    alpha = solve_alpha_for_pe(target, ScoreDifferenceLaw(sigma_s))
    assert math.isclose(_quad_pe(alpha, sigma_s), target, rel_tol=1e-10)


def test_noisier_targets_need_flatter_links():
    assert solve_alpha_for_pe(0.4, LAW_1) < solve_alpha_for_pe(0.2, LAW_1)


def test_solver_domain():
    for bad in (0.0, 0.5, -0.1, 0.7):
        with pytest.raises(ValueError):
            solve_alpha_for_pe(bad, LAW_1)


def test_solver_reports_unreachable_targets():
    # p_e = 1e-320 would need a slope near 5.5e319, beyond the largest float
    for target in (1e-320, 5e-324):
        with pytest.raises(ValueError, match="target_pe"):
            solve_alpha_for_pe(target, LAW_1)


@pytest.mark.parametrize("target", [1e-8, 1e-12, 1e-50, 1e-150, 1e-300])
def test_solver_meets_tiny_targets(target):
    # past alpha * sigma_s = 5e7 the expansion's next term, -0.9 / (alpha sigma_s)^2, is below 1e-15
    law = ScoreDifferenceLaw(2.0)
    alpha = solve_alpha_for_pe(target, law)
    steep = 2.0 * math.log(2.0) / (math.sqrt(2.0 * math.pi) * alpha * law.sigma_s)
    assert math.isclose(steep, target, rel_tol=1e-10)
    assert math.isclose(estimate_pe(LogisticLink(alpha), law), target, rel_tol=1e-12)


def test_solver_handles_extreme_reachable_targets():
    for target in (0.49, 0.01):
        alpha = solve_alpha_for_pe(target, LAW_1)
        assert math.isclose(estimate_pe(LogisticLink(alpha), LAW_1), target, rel_tol=1e-12)


def test_solver_scales_with_sigma():
    # p_e depends on alpha and sigma_s only through alpha * sigma_s, so doubling
    # sigma_s halves the slope up to rounding
    a1 = solve_alpha_for_pe(0.3, ScoreDifferenceLaw(1.0))
    a2 = solve_alpha_for_pe(0.3, ScoreDifferenceLaw(2.0))
    assert math.isclose(a2, a1 / 2, rel_tol=1e-12)
