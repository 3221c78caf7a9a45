"""The structural-inequality harness of the Nikolskii-Bochner seminorm calculus.

``check_inequality`` evaluates both sides of one of the ten structural
inequalities that the seminorm calculus obeys (step-cap equivalence,
difference-order change, the Marchaud bound, derivative/difference conversion,
interpolation, embeddings, the Hoelder bound and the first-order Sobolev
equivalence) and reports them with the constant used and the margin.  The
norms come from :mod:`symplap.function_spaces`: every check on one
``TimeGridFunction`` reads the norm contexts that function owns, through
their norm methods: no check reads a context's feature rows.  A check's
``constant_factor`` or ``calibrated`` constant must be a finite positive
number.  ``function_spaces`` re-exports every name defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import PreconditionError, require_finite, require_real
from .function_spaces import (EUCLID, L2, W12, WM12, TimeGridFunction, _check_order, dyadic_steps,
                              natural_order)

DELTA_EQ = "DELTA_EQ"
STEP_CHANGE = "STEP_CHANGE"
MARCHAUD = "MARCHAUD"
REDUCTION = "REDUCTION"
ACCESSION = "ACCESSION"
INTERPOLATION = "INTERPOLATION"
EMBED_SOBOLEV = "EMBED_SOBOLEV"
EMBED_NIK = "EMBED_NIK"
HOLDER = "HOLDER"
SOBOLEV_EQ = "SOBOLEV_EQ"

INEQUALITY_IDS = (DELTA_EQ, STEP_CHANGE, MARCHAUD, REDUCTION, ACCESSION,
                  INTERPOLATION, EMBED_SOBOLEV, EMBED_NIK, HOLDER, SOBOLEV_EQ)

PASS_SLACK = 1e-12


@dataclass
class InequalityReport:
    """One evaluated inequality: both sides, the constant, and the margin.

    ``passed`` is defined as lhs <= rhs + 1e-12 * max(1, rhs); for two-sided
    checks the reported pair is the one with the smallest margin and the
    remaining sides are echoed in ``params``.
    """

    inequality_id: str
    lhs: float
    rhs: float
    constant_used: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        # numpy scalars would print as np.float64(x) in csv_row
        self.lhs, self.rhs = float(self.lhs), float(self.rhs)
        self.constant_used = float(self.constant_used)

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs + PASS_SLACK * max(1.0, abs(self.rhs))

    def csv_row(self, function_name: str = "") -> list:
        blob = ";".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return [self.inequality_id, function_name, repr(self.lhs), repr(self.rhs),
                repr(self.constant_used), repr(self.margin),
                "1" if self.passed else "0", blob]


CSV_HEADER = ["id", "function", "lhs", "rhs", "constant_used", "margin", "passed", "params"]


def _worst_side(ineq_id, sides, constant, params) -> InequalityReport:
    """Pick the (lhs, rhs) pair of minimal margin; echo every side in params."""
    for i, (name, lhs, rhs) in enumerate(sides):
        params[f"side{i}_{name}"] = f"{lhs:.6e}<={rhs:.6e}"
    lhs, rhs = min(((l, r) for _, l, r in sides), key=lambda t: t[1] - t[0])
    return InequalityReport(ineq_id, lhs, rhs, constant, params)


def _check_time_exponents(**exponents) -> None:
    """Raise ``PreconditionError`` naming the first time exponent that is not >= 1
    or inf, for a check that derives a quantity from it before any norm does."""
    for name, value in exponents.items():
        if not value >= 1:
            raise PreconditionError(f"{name} must be >= 1 or inf, got {value!r}")


def _step_cap_equivalence(ineq_id, f, alpha, r, delta1, delta2, p, x_norm, factor, params):
    """The step-cap equivalence |f|_{d1} <= |f|_{d2} <= (factor / d1^alpha) |f|_{d1} of the
    Nikolskii norm (alpha, r, p) on f's own context in ``x_norm``, for 0 < d1 <= d2 <= 1.

    ``params(n1, n2)`` gives the check's own report parameters from the two norms.
    """
    if not 0 < delta1 <= delta2 <= 1:
        raise PreconditionError("need 0 < delta1 <= delta2 <= 1")
    ctx = f.context(x_norm)
    n1 = ctx.nikolskii_norm(alpha, r, delta1, p)
    n2 = ctx.nikolskii_norm(alpha, r, delta2, p)
    c = factor / delta1**alpha
    params = {**params(n1, n2), "delta1": delta1, "delta2": delta2, "p": p, "x": x_norm.label()}
    return _worst_side(ineq_id, [("monotone", n1, n2), ("cap", n2, c * n1)], c, params)


def check_delta_equivalence(f, *, r=1, alpha=0.5, delta1=0.125, delta2=0.25,
                            p=math.inf, x_norm=EUCLID, constant_factor=None):
    """Step-cap equivalence: |f|_{r,d1} <= |f|_{r,d2} <= (3^r/d1^alpha) |f|_{r,d1}.

    The proof also yields the sharper factor (2^r + 1)/d1^alpha; its margin is
    recorded alongside for reference.
    """
    if constant_factor is not None:
        require_finite("constant_factor", constant_factor)
    if r < natural_order(alpha):
        raise PreconditionError("difference order must exceed alpha")
    return _step_cap_equivalence(
        DELTA_EQ, f, alpha, r, delta1, delta2, p, x_norm,
        3.0**r if constant_factor is None else constant_factor,
        lambda n1, n2: {"r": r, "alpha": alpha,
                        "proof_margin": f"{(2.0**r + 1.0) / delta1**alpha * n1 - n2:.6e}"})


def _step_change_cap(f, r, r0, alpha):
    return f.interval_len / (r * 2.0 ** (math.floor(1.0 / (2.0 * (r0 - alpha))) + 2))


def _capped_delta(delta, cap, what: str) -> float:
    """The step cap ``delta`` of a check whose proof needs delta <= ``cap``:
    ``min(cap, 1)`` when None; raises ``PreconditionError`` naming ``what`` when
    delta exceeds ``cap * (1 + 1e-12)`` or 1, the bound of ``SeminormSpec``."""
    cap = min(cap, 1.0)
    if delta is None:
        return cap
    if delta > cap * (1 + 1e-12) or delta > 1:
        raise PreconditionError(f"step cap for {what} violated: delta = {delta} > {cap:.6g}")
    return delta


def check_step_change(f, *, alpha=0.5, r=2, delta=None, p=math.inf, x_norm=EUCLID):
    """Difference-order change at fixed delta.

    Lowering the order is free up to 2^(r0-r); raising it costs
    (4 r^2 / ((r0 - alpha) delta^alpha))^(r - r0) and requires delta below
    interval_len / (r * 2^(floor(1/(2(r0-alpha))) + 2)).
    """
    r0 = natural_order(alpha)
    if r < r0:
        raise PreconditionError("r must be at least the natural order")
    delta = _capped_delta(delta, _step_change_cap(f, r, r0, alpha), "difference-order change")
    ctx = f.context(x_norm)
    n_r = ctx.nikolskii_norm(alpha, r, delta, p)
    n_r0 = ctx.nikolskii_norm(alpha, r0, delta, p)
    c_up = (4.0 * r**2 / ((r0 - alpha) * delta**alpha)) ** (r - r0)
    params = {"r": r, "r0": r0, "alpha": alpha, "delta": delta, "p": p, "x": x_norm.label()}
    return _worst_side(STEP_CHANGE,
                       [("lower", 2.0 ** (r0 - r) * n_r, n_r0), ("raise", n_r0, c_up * n_r)],
                       c_up, params)


def check_marchaud(f, *, r=2, p=math.inf, x_norm=EUCLID):
    """Order-raising remainder bound |D_h^r f - 2^-r D_2h^r f| <= (r/2) |D_h^{r+1} f|.

    The left side lives on the index set admitting steps of size 2rh, the
    right on the one admitting (r+1)h; checked over every dyadic h = 2^j dt
    that leaves room for the 2rh index set (worst margin reported).
    """
    _check_order(r)  # the caller's r, before the derived order 2r is checked
    ks = dyadic_steps(f, 2 * r, f.interval_len)
    if not ks:
        raise PreconditionError("no step h leaves room for the 2rh index set")
    ctx = f.context(x_norm)
    sides = [(f"h={k * f.dt:g}", ctx.marchaud_remainder(r, k, p),
              (r / 2.0) * ctx.difference_norm(r + 1, k, p)) for k in ks]
    return _worst_side(MARCHAUD, sides, r / 2.0, {"r": r, "p": p, "x": x_norm.label()})


def check_reduction(f, fprime, *, r=1, alpha=0.5, delta=0.25, p=math.inf, x_norm=EUCLID):
    """Derivatives control differences:
    [f]_{r+1, N^{1+alpha}} <= [f']_{r, N^alpha}, constant 1.

    The derivative order beta is fixed at 1: higher derivatives of corpus
    functions are not tabulated.
    """
    _check_order(r)  # the caller's r, before the derived order r + 1 is checked
    if fprime is None:
        raise PreconditionError("reduction needs the sampled derivative")
    if not r > alpha >= 0:
        raise PreconditionError("need r > alpha >= 0")
    lhs = f.context(x_norm).seminorm(1 + alpha, r + 1, delta, p)
    rhs = fprime.context(x_norm).seminorm(alpha, r, delta, p)
    return InequalityReport(REDUCTION, lhs, rhs, 1.0,
                            {"beta": 1, "r": r, "alpha": alpha, "delta": delta,
                             "p": p, "x": x_norm.label()})


def check_accession(f, fprime, *, alpha=1.5, r=2, delta=0.125,
                    p=math.inf, x_norm=EUCLID, calibrated=1.0):
    """Differences control derivatives:
    |f'|_{r-1, N^{alpha-1}} <= C * 6^r / delta^alpha * |f|_{r, N^alpha}.

    The derivative order beta is fixed at 1, as in ``check_reduction``.  The
    structural factor 6^r/delta^alpha is explicit; C is existential and
    supplied from the frozen calibration.
    """
    require_finite("calibrated", calibrated)
    _check_order(r)  # the caller's r, before the derived order r - 1 is checked
    if fprime is None:
        raise PreconditionError("accession needs the sampled derivative")
    if not r > alpha > 1:
        raise PreconditionError("need r > alpha > 1")
    lhs = fprime.context(x_norm).nikolskii_norm(alpha - 1, r - 1, delta, p)
    base = f.context(x_norm).nikolskii_norm(alpha, r, delta, p)
    c = calibrated * 6.0**r / delta**alpha
    return InequalityReport(ACCESSION, lhs, c * base, c,
                            {"beta": 1, "alpha": alpha, "r": r, "delta": delta,
                             "p": p, "x": x_norm.label(), "calibrated": calibrated})


def check_interpolation(f, *, alpha1=0.25, alpha2=1.25, p1=4.0, p2=4.0 / 3.0,
                        r=2, delta=0.125, calibrated=1.0):
    """Seminorm interpolation through the duality triple Z = L^2 between
    X = W^{1,2} and Y = W^{-1,2}, at the midpoint b = 1/2:

    [f]_{N^{alpha_b, p_b}(Z)} <= C [f]_{N^{alpha1,p1}(X)}^(1-b) [f]_{N^{alpha2,p2}(Y)}^b,
    alpha_b = (1-b) alpha1 + b alpha2,  1/p_b = (1-b)/p1 + b/p2.

    C covers the multiplicative constant of that triple and comes from the
    frozen calibration, which was measured at the step cap delta = 1/16
    (``verify.CANONICAL_PARAMS``), not at this default.
    """
    require_finite("calibrated", calibrated)
    if f.geometry is None:
        raise PreconditionError("interpolation needs spatial snapshots")
    for name, alpha in (("alpha1", alpha1), ("alpha2", alpha2)):  # before alpha_b is formed
        require_finite(f"smoothness exponent {name}", alpha, at_least=0)
    if r <= max(alpha1, alpha2):
        raise PreconditionError("need r > max(alpha1, alpha2)")
    _check_time_exponents(p1=p1, p2=p2)
    b = 0.5
    alpha_b = (1 - b) * alpha1 + b * alpha2
    p_b = 1.0 / ((1 - b) / p1 + b / p2)
    ctx_z, ctx_x, ctx_y = (f.context(norm) for norm in (L2, W12, WM12))
    lhs = ctx_z.seminorm(alpha_b, r, delta, p_b)
    leg_x = ctx_x.seminorm(alpha1, r, delta, p1)
    leg_y = ctx_y.seminorm(alpha2, r, delta, p2)
    rhs = calibrated * leg_x ** (1 - b) * leg_y**b
    return InequalityReport(INTERPOLATION, lhs, rhs, calibrated,
                            {"b": b, "alpha1": alpha1, "alpha2": alpha2, "p1": p1,
                             "p2": p2, "r": r, "delta": delta, "alpha_b": alpha_b,
                             "p_b": p_b, "calibrated": calibrated})


def check_embed_sobolev(f, *, gamma=0.4, k=1, p=math.inf, delta=0.125,
                        x_norm=EUCLID, calibrated=1.0):
    """Fractional order buys whole derivatives:
    |f|_{W^{k,p}} <= C * k 6^k / (gamma delta^{k+gamma}) * |f|_{N^{k+gamma,p}}.

    The W^{k,p} side is realized by divided differences on the grid.
    """
    require_finite("calibrated", calibrated)
    if not 0 < gamma < 1 or k < 1:
        raise PreconditionError("need k >= 1 and gamma in (0, 1)")
    ctx = f.context(x_norm)
    lhs = ctx.sobolev_norm(k, p)
    alpha = k + gamma
    base = ctx.nikolskii_norm(alpha, k + 1, delta, p)
    c = calibrated * k * 6.0**k / (gamma * delta**alpha)
    return InequalityReport(EMBED_SOBOLEV, lhs, c * base, c,
                            {"gamma": gamma, "k": k, "p": p, "delta": delta,
                             "x": x_norm.label(), "calibrated": calibrated})


def _embed_structural_constant(alpha, alpha_p, beta, delta):
    """Displayed constant of the Nikolskii-to-Nikolskii embedding (inner C := 1)."""
    gap = alpha - alpha_p
    if gap == 0:
        return 1.0
    frac_ap = natural_order(alpha_p) - alpha_p
    if alpha == math.floor(alpha):
        lead = (gap + 2) ** 2 / frac_ap**3
    else:
        lead = (gap + 2) ** 2 / (frac_ap * (alpha - math.floor(alpha)) ** 3)
    lead = max(lead, 1.0 / gap)
    core = lead * 6.0**alpha / ((min(beta, gap) ** 2 if min(beta, gap) < 1 else 1.0)
                                * delta ** (1 + alpha))
    return core ** (gap + 2)


def _embed_delta_cap(f, alpha, alpha_p, beta):
    gap = alpha - alpha_p
    frac_ap = natural_order(alpha_p) - alpha_p
    if alpha == math.floor(alpha):
        c_tilde = (gap + 2) / frac_ap
    else:
        c_tilde = (gap + 2) / (frac_ap * (alpha - math.floor(alpha)))
    return f.interval_len / 2.0 ** (math.floor(c_tilde / beta) + 3)


def check_embed_nikolskii(f, *, alpha=0.75, p=math.inf, alpha_p=0.25, q=4.0,
                          delta=None, x_norm=EUCLID, calibrated=1.0):
    """Nikolskii-to-Nikolskii embedding: needs beta = alpha - 1/p - (alpha' - 1/q) > 0.

    The structural constant is the displayed piecewise formula (its interior
    numerical constant set to one); C multiplies it from the calibration.
    """
    require_finite("calibrated", calibrated)
    _check_time_exponents(p=p, q=q)
    beta = alpha - 1.0 / p - (alpha_p - 1.0 / q)
    if not (beta > 0 and alpha >= alpha_p):  # NaN fails too
        raise PreconditionError("embedding needs alpha >= alpha' and beta > 0")
    require_finite("smoothness exponent alpha", alpha, at_least=-math.inf)  # inf passes above
    delta = _capped_delta(delta, _embed_delta_cap(f, alpha, alpha_p, beta), "the embedding")
    ctx = f.context(x_norm)
    lhs = ctx.nikolskii_norm(alpha_p, natural_order(alpha_p), delta, q)
    base = ctx.nikolskii_norm(alpha, natural_order(alpha), delta, p)
    c = calibrated * _embed_structural_constant(alpha, alpha_p, beta, delta)
    return InequalityReport(EMBED_NIK, lhs, c * base, c,
                            {"alpha": alpha, "alpha_p": alpha_p, "p": p, "q": q,
                             "beta": beta, "delta": delta, "calibrated": calibrated})


def check_holder(f, *, alpha=0.75, p=4.0, delta=0.25, x_norm=EUCLID):
    """Hoelder seminorm bound |f|_{C^{0,alpha-1/p}} <= 3/delta^alpha |f|_{N^{alpha,p}}."""
    _check_time_exponents(p=p)
    lam = alpha - 1.0 / p
    if not 0 < alpha < 1 or lam <= 0:
        raise PreconditionError("need alpha in (0,1) with alpha - 1/p > 0")
    ctx = f.context(x_norm)
    lhs = ctx.holder_seminorm(lam)
    base = ctx.nikolskii_norm(alpha, 1, delta, p)
    c = 3.0 / delta**alpha
    return InequalityReport(HOLDER, lhs, c * base, c,
                            {"alpha": alpha, "p": p, "delta": delta, "lam": lam,
                             "x": x_norm.label()})


def check_sobolev_equivalence(f, *, delta1=0.125, delta2=0.5, p=2.0, x_norm=EUCLID):
    """First-order step-cap equivalence of the difference-based W^{1,p} norm:
    |f|_{d1} <= |f|_{d2} <= (3/d1) |f|_{d1}."""
    return _step_cap_equivalence(SOBOLEV_EQ, f, 1.0, 1, delta1, delta2, p, x_norm, 3.0,
                                 lambda n1, n2: {})


_CHECKS = {
    DELTA_EQ: check_delta_equivalence,
    STEP_CHANGE: check_step_change,
    MARCHAUD: check_marchaud,
    REDUCTION: check_reduction,
    ACCESSION: check_accession,
    INTERPOLATION: check_interpolation,
    EMBED_SOBOLEV: check_embed_sobolev,
    EMBED_NIK: check_embed_nikolskii,
    HOLDER: check_holder,
    SOBOLEV_EQ: check_sobolev_equivalence,
}

_NEEDS_DERIVATIVE = {REDUCTION, ACCESSION}


def _checker(ineq_id: str):
    """The check of ``ineq_id``; ``ValueError`` for an unknown id."""
    if ineq_id not in _CHECKS:
        raise ValueError(f"unknown inequality id {ineq_id!r}")
    return _CHECKS[ineq_id]


def check_inequality(ineq_id: str, f: TimeGridFunction, fprime: TimeGridFunction | None = None,
                     **params) -> InequalityReport:
    """Evaluate one structural inequality on f; see the per-id checkers."""
    check = _checker(ineq_id)
    for name, value in params.items():  # no check compares a complex number
        require_real(name, value)
    if ineq_id in _NEEDS_DERIVATIVE:
        return check(f, fprime, **params)
    return check(f, **params)
