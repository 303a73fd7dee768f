"""Quadrature for the shrinkage constant c1 and the comparison error rate p_e.

For Gaussian features the score difference of a uniformly drawn pair is a
centered Gaussian N(0, sigma_s^2) that fully determines both quantities: c1
is four times the expected link derivative at the score difference, and p_e
is the probability that the sampled label disagrees with its sign.

In standard-normal units u = s / sigma_s both are integrals of a link term
against the density phi(u) over u > 0, and a link of slope k enters only
through tau = k * sigma_s: its term changes over a width of 1/tau in u.  The
half line is cut at fixed multiples of that width, and at u = 9 for flat
links, and each piece gets a 24-node Gauss-Legendre rule.  The rule thus
follows the link from tau = 1e-6 to 1e307 at a relative error near 1e-15.

The inverse problem, the logistic slope for a target p_e, is Newton's method
on log p_e against log tau inside a shrinking bracket, started at the probit
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .comparisons import DeterministicLink, LinkFunction, LogisticLink
from .randomness import SpdMatrix


class DegenerateModelError(ValueError):
    """The model's weight vector is zero, so score differences are identically zero."""


class LinkNotDifferentiableError(ValueError):
    """c1 requested for a link with no derivative (the noiseless sign link)."""


@dataclass(frozen=True)
class ScoreDifferenceLaw:
    """Distribution of the score difference of a random pair: N(0, sigma_s^2)."""

    sigma_s: float

    def __post_init__(self):
        if not 0 < self.sigma_s < math.inf:
            raise ValueError(f"sigma_s must be finite and > 0, got {self.sigma_s}")

    @classmethod
    def from_parameters(cls, beta, sigma: SpdMatrix) -> "ScoreDifferenceLaw":
        """Law with sigma_s^2 = 2 beta' sigma beta, the pair-difference variance."""
        beta = np.asarray(beta, dtype=float)
        if beta.shape != (sigma.dim,):
            raise ValueError(f"beta has shape {beta.shape}, expected ({sigma.dim},)")
        variance = 2.0 * float(beta @ sigma.entries @ beta)
        if variance <= 0:
            raise DegenerateModelError("weight vector is zero; score differences have no spread")
        return cls(math.sqrt(variance))


_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(24)
_WEIGHTS = _WEIGHTS / math.sqrt(2.0 * math.pi)  # folds in phi's normalization
# Piece ends in link widths 1/tau.  The logistic term has poles at
# u = +-i pi / tau, so the piece at the origin is 2 widths long and the
# pieces farther from the poles grow.  By 48 widths the term has fallen by
# e^-48, and what lies beyond is below 1e-17 of the integral.
_WIDTHS = np.array([0.0, 2.0, 8.0, 24.0, 48.0])
# Every integrand here is phi times a term that decreases on u > 0, so the
# part beyond u = 9 is at most 2 P(Z > 9) = 2.3e-19 of the whole.
_GAUSS_END = 9.0
_PE_REL_TOL = 1e-12


def _half_line(tau: float):
    """Nodes u and weights w with sum(w * g(u)) = int_0^inf g(u) phi(u) du for a
    term g that changes over a width 1/tau.  Pieces cut to zero length at
    u = 9 get zero weight."""
    # Every tau below 2/9 already cuts all pieces but the first at u = 9; the
    # floor on tau only keeps 48 / tau finite.
    ends = np.minimum(_WIDTHS / max(tau, 1e-300), _GAUSS_END)
    a, b = ends[:-1, None], ends[1:, None]
    half = 0.5 * (b - a)
    u = (0.5 * (a + b) + half * _NODES).ravel()
    return u, (half * _WEIGHTS).ravel() * np.exp(-0.5 * u * u)


def _tau(link: LinkFunction, law: ScoreDifferenceLaw) -> float:
    """The link's steepness in units of the score difference's deviation."""
    tau = (link.slope if isinstance(link, LogisticLink) else link.scale) * law.sigma_s
    if not tau < math.inf:
        raise ValueError(f"{link} at sigma_s = {law.sigma_s} is steeper than a float can hold")
    return tau


def estimate_c1(link: LinkFunction, law: ScoreDifferenceLaw) -> float:
    """Shrinkage constant c1 = 4 E[f'(s)] = 8 int_0^inf f'(sigma_s u) phi(u) du for a
    differentiable link; the returned value is strictly positive."""
    if isinstance(link, DeterministicLink):
        raise LinkNotDifferentiableError(
            "the sign link has no derivative; c1 (and the norm-error metric) is undefined at p_e = 0"
        )
    u, w = _half_line(_tau(link, law))
    return 8.0 * float(w @ link.derivative(law.sigma_s * u))


def estimate_pe(link: LinkFunction, law: ScoreDifferenceLaw) -> float:
    """Probability that a sampled label contradicts the sign of the score difference.

    By symmetry this is twice the mass of (label = +1, score difference < 0):
    2 int_0^inf f(-sigma_s u) phi(u) du.  The sign link never contradicts it.
    For a link flat over u in [0, 9] the rule's weights sum to 1e-15 above
    1/2, so the result is capped at the coin-flip limit 1/2.
    """
    if isinstance(link, DeterministicLink):
        return 0.0
    u, w = _half_line(_tau(link, law))
    return min(0.5, 2.0 * float(w @ link.prob(-law.sigma_s * u)))


def solve_alpha_for_pe(target_pe: float, law: ScoreDifferenceLaw) -> float:
    """Logistic slope whose error rate matches ``target_pe`` to 1e-12 relative.

    Solves log p_e(tau) = log target_pe for x = log tau, tau = alpha * sigma_s,
    by Newton's method from the probit closed form tau_0 = 1.702 / tan(pi p_e),
    which is within 7% of the root.  p_e falls as tau grows, so each iterate
    narrows a bracket on the root, and a step that leaves it is replaced by
    bisection.  Targets of 0 or 1/2 are rejected: zero noise is the sign link,
    not a finite slope, and 1/2 is the coin-flip limit.  Below about 1e-308,
    or when tau / sigma_s would overflow a float, that raises ValueError too.
    """
    if not 0 < target_pe < 0.5:
        raise ValueError(f"target_pe must lie in (0, 1/2), got {target_pe}")
    goal = math.log(target_pe)
    lo, hi = -math.inf, math.inf
    x = math.log(1.702 / math.tan(math.pi * target_pe))
    for _ in range(100):
        if not x < 709.0 or not math.exp(x) / law.sigma_s < math.inf:
            raise ValueError(f"target_pe = {target_pe} at sigma_s = {law.sigma_s} needs a slope beyond the float range")
        tau = math.exp(x)
        u, w = _half_line(tau)
        t = tau * u
        q = expit(-t)
        pe = 2.0 * float(w @ q)
        gap = math.log(pe) - goal
        if abs(gap) <= _PE_REL_TOL:
            return tau / law.sigma_s
        if gap > 0:
            lo = x
        else:
            hi = x
        # d log p_e / d log tau = tau p_e'(tau) / p_e, with p_e' = -2 int u q (1 - q) phi du
        x -= gap * pe / (-2.0 * float(w @ (t * q * (1.0 - q))))
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
    raise ValueError(f"no logistic slope found for target_pe = {target_pe}")
