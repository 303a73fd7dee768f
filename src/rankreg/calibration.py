"""Quadrature for the shrinkage constant c1 and the comparison error rate p_e.

For Gaussian features the score difference of a uniformly drawn pair is a
centered Gaussian whose standard deviation sigma_s fully determines both
quantities: c1 is four times the expected link derivative at the score
difference, and p_e is the probability that the sampled label disagrees
with the sign of the score difference.  Both are one-dimensional integrals
evaluated with the trapezoidal rule on a truncated uniform grid; the
inverse problem (pick the logistic slope for a target p_e) is solved by
bisection on the slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .comparisons import DeterministicLink, LinkFunction, LogisticLink, ModelSpec, is_differentiable
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
        if not self.sigma_s > 0:
            raise ValueError(f"sigma_s must be > 0, got {self.sigma_s}")

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


@dataclass(frozen=True)
class QuadratureSpec:
    """Uniform trapezoidal grid: ``points`` nodes spanning ``half_width`` sigmas per side."""

    points: int = 4097
    half_width: float = 4.0

    def __post_init__(self):
        if self.points < 3 or self.points % 2 == 0:
            raise ValueError(f"points must be an odd integer >= 3, got {self.points}")
        if not self.half_width >= 3:
            raise ValueError(f"half_width must be >= 3, got {self.half_width}")


def score_sigma(spec: ModelSpec) -> ScoreDifferenceLaw:
    """Standard deviation of the score difference under the model's feature law."""
    return ScoreDifferenceLaw.from_parameters(spec.beta, spec.sigma)


def _trapezoid(values: np.ndarray, step: float) -> float:
    return float(step * (values.sum() - 0.5 * (values[0] + values[-1])))


def _normal_pdf(s: np.ndarray, sigma: float) -> np.ndarray:
    return np.exp(-0.5 * (s / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))


def estimate_c1(
    link: LinkFunction, law: ScoreDifferenceLaw, quad: QuadratureSpec = QuadratureSpec()
) -> float:
    """Shrinkage constant c1 = 4 E[f'(s)] for a differentiable link.

    Quadrature over [-half_width * sigma_s, +half_width * sigma_s]; the
    returned value is strictly positive.
    """
    if not is_differentiable(link):
        raise LinkNotDifferentiableError(
            "the sign link has no derivative; c1 (and the norm-error metric) is undefined at p_e = 0"
        )
    edge = quad.half_width * law.sigma_s
    grid = np.linspace(-edge, edge, quad.points)
    values = link.derivative(grid) * _normal_pdf(grid, law.sigma_s)
    return 4.0 * _trapezoid(values, grid[1] - grid[0])


def estimate_pe(
    link: LinkFunction, law: ScoreDifferenceLaw, quad: QuadratureSpec = QuadratureSpec()
) -> float:
    """Probability that a sampled label contradicts the sign of the score difference.

    By symmetry this is twice the mass of (label = +1, score difference < 0),
    integrated over [-half_width * sigma_s, 0].
    """
    return _pe_rule(law, quad)(link)


def _pe_rule(law: ScoreDifferenceLaw, quad: QuadratureSpec):
    """p_e as a function of the link, with the grid and the density built once for ``law``."""
    edge = quad.half_width * law.sigma_s
    grid = np.linspace(-edge, 0.0, quad.points)
    pdf = _normal_pdf(grid, law.sigma_s)
    step = grid[1] - grid[0]
    return lambda link: 2.0 * _trapezoid(link.prob(grid) * pdf, step)


def solve_alpha_for_pe(
    target_pe: float, law: ScoreDifferenceLaw, quad: QuadratureSpec = QuadratureSpec()
) -> float:
    """Logistic slope whose error rate matches ``target_pe`` within 1e-6.

    The error rate is strictly decreasing in the slope, so a bracket is found
    by doubling or halving from slope 1 and then bisected.  Targets of 0 or
    1/2 are rejected: zero noise is the sign link, not a finite slope, and
    1/2 is the unreachable coin-flip limit.
    """
    if not 0 < target_pe < 0.5:
        raise ValueError(f"target_pe must lie in (0, 1/2), got {target_pe}")

    pe_of = _pe_rule(law, quad)

    def pe(alpha: float) -> float:
        return pe_of(LogisticLink(alpha))

    lo = hi = 1.0
    value = pe(1.0)
    if abs(value - target_pe) <= 1e-6:
        return 1.0
    if value > target_pe:
        for _ in range(200):
            lo, hi = hi, hi * 2.0
            if pe(hi) < target_pe:
                break
        else:
            raise ValueError(f"no slope reaches p_e = {target_pe}")
    else:
        for _ in range(200):
            hi, lo = lo, lo / 2.0
            if pe(lo) > target_pe:
                break
        else:
            # The quadrature's truncated flat-link limit caps p_e slightly
            # below 1/2; targets above the cap never bracket.
            raise ValueError(
                f"p_e = {target_pe} is not reachable: the flat-slope limit on this grid is {pe(lo):.6f}"
            )
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        value = pe(mid)
        if abs(value - target_pe) <= 1e-6:
            return mid
        if value > target_pe:
            lo = mid
        else:
            hi = mid
    raise ValueError(f"bisection failed to reach p_e = {target_pe} within tolerance")
