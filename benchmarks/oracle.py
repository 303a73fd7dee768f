"""Independent references for the benchmark's output checks.

The program calibrates its logistic link with a fixed trapezoid grid.  These
references integrate the same quantities with adaptive ``scipy.integrate.quad``
over the whole real line instead, so a check against them does not share the
program's discretisation.  Only :func:`oracle_misses` touches the program,
through the modules it is handed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import expit

PE_ABS_TOL = 1e-6  # |p_e(alpha) - target| the solver promises
C1_REL_TOL = 1e-6  # relative c1 error accepted against the reference
# A realized model whose reference p_e is off by more than PE_ABS_TOL is a
# known calibration defect (the trapezoid reads ~3.3e-8 high, on top of the
# solver's 1e-6 stopping band) and is counted, not failed.  Only an error this
# large fails an operation: it means the calibration is broken, not imprecise.
PE_GROSS_TOL = 1e-5

# Fixed probe set for calibration.oracle_misses at sigma_s = 1.  It spans the
# documented domain, including the ends the trapezoid grid is known to miss;
# it must not be trimmed to make the count smaller.
PROBE_TARGETS = (1e-5, 1e-4, 1e-3, 0.01, 0.1, 0.2, 0.4, 0.49, 0.49999)
PROBE_SLOPES = (1.0, 100.0, 1000.0, 1e4)


def _half_line(f, width: float) -> float:
    """Integral of f over [0, inf) for an f that is negligible beyond ~50 * width.

    Splitting at multiples of the narrowest scale keeps ``quad`` from
    stepping over a peak narrower than its first sampling pattern.
    """
    total = 0.0
    for lo, hi in ((0.0, width), (width, 50.0 * width), (50.0 * width, math.inf)):
        value, _ = quad(f, lo, hi, epsabs=1e-300, epsrel=1e-12, limit=400)
        total += value
    return total


def _normal_pdf(s, sigma: float):
    return math.exp(-0.5 * (s / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))


def logistic_pe(alpha: float, sigma_s: float) -> float:
    """P(label contradicts the score sign) = 2 * int_0^inf expit(-alpha s) phi(s) ds."""
    width = min(sigma_s, 1.0 / alpha)
    return 2.0 * _half_line(lambda s: expit(-alpha * s) * _normal_pdf(s, sigma_s), width)


def logistic_c1(alpha: float, sigma_s: float) -> float:
    """c1 = 4 E[f'(s)] = 8 int_0^inf alpha f(s) (1 - f(s)) phi(s) ds for f = expit(alpha s)."""

    def integrand(s):
        p = expit(alpha * s)
        return alpha * p * (1.0 - p) * _normal_pdf(s, sigma_s)

    return 8.0 * _half_line(integrand, min(sigma_s, 1.0 / alpha))


def probit_pe(scale: float, sigma_s: float) -> float:
    """Reference the references: the probit link has p_e in closed form."""
    width = min(sigma_s, 1.0 / scale)
    return 2.0 * _half_line(lambda s: 0.5 * math.erfc(scale * s) * _normal_pdf(s, sigma_s), width)


def sigma_s_of(beta: np.ndarray, sigma: np.ndarray) -> float:
    """Standard deviation of a random pair's score difference: sqrt(2 beta' Sigma beta)."""
    return math.sqrt(2.0 * float(beta @ sigma @ beta))


def check_calibration(alpha: float, c1: float, target_pe: float, sigma_s: float) -> tuple[list[str], bool]:
    """Check a realized (alpha, c1) against the references.

    Returns (errors, tolerance_miss): errors fail the operation; tolerance_miss
    marks a p_e off by more than PE_ABS_TOL but not by PE_GROSS_TOL.
    """
    errors = []
    pe_error = abs(logistic_pe(alpha, sigma_s) - target_pe)
    if not pe_error <= PE_GROSS_TOL:
        errors.append(f"p_e(alpha={alpha!r}) misses target {target_pe!r} by {pe_error:.3g}")
    ref = logistic_c1(alpha, sigma_s)
    if not abs(c1 - ref) <= C1_REL_TOL * ref:
        errors.append(f"c1 = {c1!r} differs from reference {ref!r} by more than {C1_REL_TOL} relative")
    return errors, not pe_error <= PE_ABS_TOL


def flip_check(scores: np.ndarray, i: np.ndarray, j: np.ndarray, y: np.ndarray, alpha: float,
               target_pe: float) -> list[str]:
    """Check realized label flips against the link and against the noise target.

    ``scores`` are the comparison-half rows times the true weights; i, j are
    0-based.  Two checks, each at 4 standard errors:

    * given the drawn pairs, the flip count is a sum of independent Bernoulli
      draws with rate expit(-alpha |s|); ties count 1/2 and carry no variance.
    * against the target, the error has a binomial part p(1-p)/m and a part
      from the n shared rows, 4 Var(h(x)) / n with h(x) the flip rate of a row
      against the whole pool.  Over 40 seeds at n = 1e5, m = 11.5 n the
      binomial part alone is ~1.6x too narrow, so a correct program would fail
      a purely binomial check on about 1% of seeds.
    """
    s = scores[i] - scores[j]
    tie = s == 0
    flipped = np.where(tie, 0.5, ((s > 0) & (y == -1)) | ((s < 0) & (y == 1)))
    realized = float(flipped.mean())
    m = len(y)
    q = np.where(tie, 0.5, expit(-alpha * np.abs(s)))
    expected = float(q.mean())
    cond_se = math.sqrt(float(np.where(tie, 0.0, q * (1.0 - q)).sum())) / m
    errors = []
    if not abs(realized - expected) <= 4 * cond_se:
        errors.append(f"flip fraction {realized!r} is not within 4 SE ({cond_se:.3g}) of the link's {expected!r}")
    rows = np.random.default_rng(0).choice(len(scores), size=min(500, len(scores)), replace=False)
    h = np.array([expit(-alpha * np.abs(scores[r] - scores)).mean() for r in rows])
    se = math.sqrt(target_pe * (1 - target_pe) / m + 4.0 * float(h.var(ddof=1)) / len(scores))
    if not abs(realized - target_pe) <= 4 * se:
        errors.append(f"flip fraction {realized!r} is not within 4 SE ({se:.3g}) of target {target_pe!r}")
    return errors


def oracle_misses(calibration, comparisons) -> tuple[int, int, list[str]]:
    """Run the fixed probe set through the program's calibration at sigma_s = 1.

    Takes the program's ``calibration`` and ``comparisons`` modules.  Returns
    (misses, probes, reasons).  A probe misses when the call raises or its
    result is outside the tolerance against the quad reference.
    """
    LogisticLink = comparisons.LogisticLink
    law = calibration.ScoreDifferenceLaw(1.0)
    reasons = []
    for target in PROBE_TARGETS:
        try:
            alpha = calibration.solve_alpha_for_pe(target, law)
            pe = logistic_pe(alpha, 1.0)
            if not abs(pe - target) <= PE_ABS_TOL:
                reasons.append(f"solve_alpha_for_pe({target}) -> alpha {alpha:.6g} with reference p_e {pe:.6g}")
        except Exception as exc:  # a raise is a miss, whatever its type
            reasons.append(f"solve_alpha_for_pe({target}) raised: {exc}")
    for slope in PROBE_SLOPES:
        try:
            c1 = calibration.estimate_c1(LogisticLink(slope), law)
            ref = logistic_c1(slope, 1.0)
            if not abs(c1 - ref) <= C1_REL_TOL * ref:
                reasons.append(f"estimate_c1(alpha={slope:g}) = {c1:.6g}, reference {ref:.6g}")
        except Exception as exc:
            reasons.append(f"estimate_c1(alpha={slope:g}) raised: {exc}")
    return len(reasons), len(PROBE_TARGETS) + len(PROBE_SLOPES), reasons
