"""Closed-form regularity-exponent machinery.

For the diffusion law with growth exponent ``p`` in spatial dimension ``d``,
iterating the available energy estimates raises the fractional time
differentiability of a solution geometrically,

    ``alpha_{i+1} = A * alpha_i + B``,
    ``A = 2/p + (p-2)/(d*(p-2) + 2*p)``,   ``B = 2/(d*(p-2) + 2*p)``,

with the heat case p = 2 degenerating to the arithmetic step ``alpha + 1/2``.
Two derived exponents organize everything:

* ``gamma0 = 2p / ((p-2)(d(p-2) + p))`` -- the fixed point ``B/(1-A)`` of the
  recurrence, i.e. the ceiling when full differentiability is out of reach;
* ``gamma1 = 2/p + p/(d(p-2) + 2p)`` -- the value ``A + B``, i.e. the open
  ceiling obtainable by one crossing step launched from just below
  differentiability one.

The regime split is ``gamma0 <= 1  <=>  p >= 2 + 2/sqrt(d+1)``; the boundary
is classified as Fractional (the low-regularity regime includes equality).

All formulas here are rational in (p, d) except the Hoelder-range endpoints,
so passing ``fractions.Fraction`` values keeps the algebra exact; floats fall
back to the documented 1e-12 tolerances.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

from .errors import UnreachableTargetError, UnsupportedDimensionError, require_finite, require_real


class Regime(enum.Enum):
    HEAT = "heat"                       # p = 2
    FULL_DERIVATIVE = "full_derivative"  # 2 < p < 2 + 2/sqrt(d+1)
    FRACTIONAL = "fractional"            # p >= 2 + 2/sqrt(d+1)


def growth_threshold(d: int) -> float:
    """The critical growth exponent 2 + 2/sqrt(d+1) separating the regimes."""
    _check_p_d(None, d)
    return 2.0 + 2.0 / math.sqrt(d + 1)


def _check_p_d(p, d) -> None:
    """Raise ``ValueError`` unless the growth exponent p is a finite number >= 2
    (p None: a formula of d alone) and the dimension d an integral value >= 1."""
    if p is not None:
        require_finite("growth exponent p", p, at_least=2)
    require_real("dimension d", d)
    if not (d >= 1 and float(d).is_integer()):
        raise ValueError(f"dimension d must be an integral value >= 1, got {d!r}")


def gamma0(p, d):
    """Ceiling of the fractional regime: 2p / ((p-2)(d(p-2)+p)); requires p > 2."""
    _check_p_d(p, d)
    if p <= 2:
        raise ValueError("gamma0 requires p > 2 (the denominator vanishes at p = 2)")
    return 2 * p / ((p - 2) * (d * (p - 2) + p))


def gamma1(p, d):
    """Crossing ceiling 2/p + p/(d(p-2)+2p); defined for all p >= 2."""
    _check_p_d(p, d)
    return 2 / p + p / (d * (p - 2) + 2 * p)


def recurrence_coefficients(p, d):
    """Contraction factor A and increment B of one iteration step.

    At p = 2 the step is alpha -> alpha + 1/2, i.e. (A, B) = (1, 1/2); for
    p > 2 we have A in (0,1) and B > 0, so the sequence contracts onto
    B/(1-A) = gamma0.  In every case A + B = gamma1.
    """
    _check_p_d(p, d)
    if p == 2:
        return p - 1, (p - 1) / 2  # (1, 1/2) in the caller's own arithmetic
    denom = d * (p - 2) + 2 * p
    return 2 / p + (p - 2) / denom, 2 / denom


def classify(p, d) -> Regime:
    """Regime of (p, d).

    The boundary test is done through ``gamma0 <= 1``, which is equivalent to
    ``p >= 2 + 2/sqrt(d+1)`` but rational in (p, d), hence exact for exact
    inputs.  The boundary itself belongs to the Fractional regime.
    """
    _check_p_d(p, d)
    if p == 2:
        return Regime.HEAT
    return Regime.FRACTIONAL if gamma0(p, d) <= 1 else Regime.FULL_DERIVATIVE


def ceiling(p, d):
    """Regime ceiling of the iteration: gamma0 in the Fractional regime, gamma1
    otherwise.  Exponents at or above it are out of reach of the recurrence."""
    return gamma0(p, d) if classify(p, d) is Regime.FRACTIONAL else gamma1(p, d)


@dataclass
class IterationTrace:
    """Record of one run of the exponent iteration.

    ``alphas`` holds the formal sequence up to the last value <= 1 that was
    produced; once the formal step would exceed one, the achievable exponents
    form an open interval whose endpoint is never claimed (``cap``).
    ``limit`` is gamma0, the fixed point B/(1-A) of the recurrence (inf at p = 2).
    ``p``, ``d`` and ``alpha0`` are the caller's values, in the caller's
    arithmetic.
    """

    alphas: list
    A: float
    B: float
    limit: float
    target: float
    n_steps: int
    crossed_one: bool
    p: float
    d: int
    alpha0: float
    cap: float | None = None

    def steps_to(self, target) -> int:
        """Step count N(target) of :func:`iterate` from the same (p, d, alpha0);
        raises wherever :func:`iterate` raises."""
        return iterate(self.p, self.d, self.alpha0, target).n_steps


def _run_iteration(A, B, alpha0, target, g1):
    """The recurrence loop of :func:`iterate`; returns (alphas, n_steps, crossed, cap).

    Every step either raises alpha or ends the loop, so it terminates: a step
    that no longer raises alpha means the float recurrence has settled below
    the target (just under gamma0), and the target is unreachable.
    """
    alphas = [alpha0]
    while True:
        nxt = A * alphas[-1] + B
        if nxt > 1:
            # Crossing step: from a base <= 1 every exponent strictly below
            # A*base + B is achievable, the endpoint never.  If that open
            # interval still misses the target, one more launch from bases
            # approaching 1 raises the cap to A + B = gamma1 (also open).
            cap = nxt
            if target < cap:
                return alphas, len(alphas), True, cap
            return alphas, len(alphas) + 1, True, g1
        if nxt <= alphas[-1]:
            raise UnreachableTargetError(
                f"target {target} lies above {alphas[-1]!r}, where the iteration settles")
        alphas.append(nxt)
        if nxt >= target:
            return alphas, len(alphas) - 1, False, None


def iterate(p, d, alpha0, target) -> IterationTrace:
    """Run the exponent recurrence from ``alpha0`` until ``target`` is certified.

    Preconditions: ``0 <= alpha0 < target`` and the target must lie strictly
    below :func:`ceiling`; beyond it the recurrence cannot reach and an
    UnreachableTargetError is raised.  So is it for a target just under
    gamma0 that the float recurrence settles below.
    """
    require_real("alpha0", alpha0)
    require_real("target", target)
    if not 0 <= alpha0 < target:
        raise ValueError(f"need 0 <= alpha0 < target, got alpha0 = {alpha0!r} "
                         f"and target = {target!r}")
    top = ceiling(p, d)
    if target >= top:
        raise UnreachableTargetError(f"target {target} is at/above the regime ceiling {top}")
    A, B = recurrence_coefficients(p, d)
    limit = math.inf if p == 2 else gamma0(p, d)
    alphas, n_steps, crossed, cap = _run_iteration(A, B, alpha0, target, gamma1(p, d))
    return IterationTrace(alphas=[float(a) for a in alphas], A=float(A), B=float(B),
                          limit=float(limit), target=float(target), n_steps=n_steps,
                          crossed_one=crossed, p=p, d=d, alpha0=alpha0,
                          cap=None if cap is None else float(cap))


def closed_form_alpha(p, d, n, alpha0=0.0):
    """n-th formal iterate alpha0*A^n + B*(1-A^n)/(1-A) (geometric closed form),
    for a step count n that is an integer >= 0."""
    A, B = recurrence_coefficients(p, d)
    if not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"step count n must be an integer >= 0, got {n!r}")
    if p == 2:
        return alpha0 + n * B
    return alpha0 * A**n + B * (1 - A**n) / (1 - A)


@dataclass(frozen=True)
class InterpParams:
    """Parameters produced by one interpolation of the two energy legs.

    The new time differentiability is the affine map
    ``alpha' = alpha_coeff * alpha_i + alpha_const`` of the current level.
    ``q0_any_finite`` flags the branch where the space-integrability formula
    leaves q0 unconstrained (any finite value works).
    """

    alpha_coeff: float
    alpha_const: float
    p0: float
    q0: float | None
    q0_any_finite: bool

    def next_alpha(self, alpha_i, p):
        """Induced recurrence alpha_{i+1} = alpha' - 1/p0 + 1/p."""
        return self.alpha_coeff * alpha_i + self.alpha_const - 1 / self.p0 + 1 / p


def interp_params(theta, p, d) -> InterpParams:
    """Interpolation bookkeeping between the high-space and high-time legs.

    The high-space leg carries (alpha_i * 2/p)-order differentiability with
    integrability p, the high-time leg (1 + alpha_i)-order with the conjugate
    exponent; mixing them with weight ``theta`` yields

        alpha' = (alpha_i/p) * (2 + (p-2)*theta/2) + theta/2,
        p0 = 2p / (theta*(p-2) + 2),
        q0 = 2dp / (p*theta*d + (1-theta)*(2d - 2p))   (when in (1, inf)).

    At theta = 2p/(d(p-2)+2p) the space exponent closes (q0 = p) and the
    induced alpha-map reproduces the A, B recurrence; theta = 0 gives p0 = p
    but alpha' < alpha_i (no gain), and at p = 2 the choice theta = 1 gives
    the arithmetic half step.
    """
    require_real("theta", theta)
    if not 0 <= theta <= 1:
        raise ValueError("theta must lie in [0, 1]")
    _check_p_d(p, d)
    alpha_coeff = (2 + (p - 2) * theta / 2) / p
    alpha_const = theta / 2
    p0 = 2 * p / (theta * (p - 2) + 2)
    denom = p * theta * d + (1 - theta) * (2 * d - 2 * p)
    if denom > 0:
        q0_tilde = 2 * d * p / denom
        if q0_tilde > 1:
            return InterpParams(alpha_coeff, alpha_const, p0, q0_tilde, False)
    return InterpParams(alpha_coeff, alpha_const, p0, None, True)


def closing_theta(p, d):
    """The weight theta = 2p/(d(p-2)+2p) that makes q0 close at p."""
    _check_p_d(p, d)
    return 2 * p / (d * (p - 2) + 2 * p)


def holder_range(d: int):
    """Growth-exponent interval on which solutions are Hoelder continuous.

    d = 2 gives [2, 4); d = 3 gives [2, (9 + sqrt(33))/4).  Other dimensions
    are unsupported.
    """
    if d not in (2, 3):
        raise UnsupportedDimensionError("Hoelder range is tabulated for d in {2, 3} only")
    return 2.0, holder_upper_formula(d)


def holder_upper_formula(d: int) -> float:
    """(3 + 2d + sqrt(8d+9)) / (d+1): the upper endpoint in closed form."""
    _check_p_d(None, d)
    return (3.0 + 2.0 * d + math.sqrt(8.0 * d + 9.0)) / (d + 1.0)


def sobolev_embedding_exponent(d: int) -> float:
    """Critical Sobolev exponent 2d/(d-2) for d >= 3; inf marks 'any finite' at
    d = 2 and at d = 1, where W^{1,2} embeds into every L^q with q < inf (at
    d = 1 into L^inf too)."""
    _check_p_d(None, d)
    if d <= 2:
        return math.inf
    return 2.0 * d / (d - 2.0)


def alternate_leg_gains(p, d) -> bool:
    """Whether swapping the high-space leg for its L^2-in-time variant still gains.

    The alternative endpoint produces an increase of time differentiability
    only for p <= 2 + 4/(d+1); that bound is never better than the parabolic
    embedding bound 2 + 4/d, and for d >= 3 it is no better than the regime
    threshold 2 + 2/sqrt(d+1).
    """
    _check_p_d(p, d)
    return p <= 2 + 4 / (d + 1)
