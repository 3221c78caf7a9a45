"""Regularity measurements of computed trajectories on interior sub-cylinders.

A trajectory is restricted to a parabolic sub-cylinder (ball times centered
time window of halfwidth r^2 by default), and its time regularity is probed
through the discrete seminorm machinery: for each state-space norm in the
regime's table, the difference norms |D_h^r u|_{L^p(X)} are computed over
dyadic steps h and a log-log slope estimate turns the decay rate into a
measured exponent.  "Membership" of a sampled trajectory in a smoothness
class is not decidable; its observable signatures are (a) the measured slope
and (b) stability of the seminorm values under time-grid refinement, and the
two interior checks below assert exactly those.

``check_seminorm_bounds`` evaluates every left-hand-side norm of the
applicable interior estimate on the inner cylinder, the data bundle
(1 + sup-L^2 norm + energy norm)/(R - r) on the outer one, and reports the
empirical exponent log(lhs)/log(bundle); the structural constants of the
estimate are existential, so assertions are finiteness, refinement stability
and a frozen-baseline comparison, never a literal constant.

``check_caccioppoli`` evaluates the stationary ball estimate: the sup over
time of the gradient energy of the square-root field inside the small ball
against (1 + 1/phi''(0))/(R-r)^2 times the sup of potential energy plus
squared time derivative over the large ball.  Its left side depends only on
the inner ball; the observed ratio is compared to a frozen constant.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import exponent_engine as ee
from .errors import (GeometryError, InsufficientResolutionError, PreconditionError,
                     real_array, require_finite, require_real)
from . import stencil
from .function_spaces import (L2, W12, TimeGridFunction, _NormContext, _sample_blocks, _weighted_sup,
                              dyadic_steps, lp, lp_norm, natural_order, w1p, wm1p)
from .function_spaces import raw_seminorm  # noqa: F401  uncalled; the benchmark tracer wraps it
from .pde_solver import Trajectory, sym_gradient
from .tensor_models import frob, phi, v_map

INTERIOR_MARGIN = 0.1  # fraction of each domain extent kept clear around a cylinder


@dataclass(frozen=True)
class SubCylinder:
    """Parabolic space-time cylinder: ball of radius r times a time window.

    ``time_halfwidth`` defaults to r^2 (parabolic scaling).
    """

    center: tuple          # (x1, x2, t)
    r: float
    time_halfwidth: float | None = None

    def __post_init__(self):
        center = real_array("center", self.center)
        if center.shape != (3,):
            raise GeometryError(f"cylinder center {self.center!r} is not three coordinates (x1, x2, t)")
        if not np.isfinite(center).all():
            raise GeometryError(f"cylinder center {tuple(center.tolist())} is not finite")
        require_finite("ball radius r", self.r, error=GeometryError)
        if self.time_halfwidth is not None:
            require_finite("time_halfwidth", self.time_halfwidth, error=GeometryError)

    @property
    def halfwidth(self) -> float:
        return self.r**2 if self.time_halfwidth is None else self.time_halfwidth

    def time_window(self):
        t = self.center[2]
        return t - self.halfwidth, t + self.halfwidth


def _ball_mask(grid, center_xy, r) -> np.ndarray:
    """Grid nodes within r of the centre on the torus; the centre is taken modulo
    the period, and one that is not two finite coordinates raises ``GeometryError``."""
    center_xy = real_array("center_xy", center_xy)
    if np.shape(center_xy) != (2,) or not np.isfinite(center_xy).all():
        raise GeometryError(f"ball center {center_xy!r} is not two finite coordinates (x1, x2)")
    x1, x2 = grid.coordinates()
    extent = 2.0 * math.pi
    d1 = np.abs(x1 - center_xy[0]) % extent
    d2 = np.abs(x2 - center_xy[1]) % extent
    d1 = np.minimum(d1, extent - d1)
    d2 = np.minimum(d2, extent - d2)
    return d1**2 + d2**2 <= r**2 * (1 + 1e-12)


def _check_radius(r: float) -> None:
    """Reject a ball radius that leaves no interior margin on the torus."""
    if r > (0.5 - INTERIOR_MARGIN) * (2.0 * math.pi):
        raise GeometryError(f"ball radius {r} leaves no interior margin on the torus")


def _check_margins(traj: Trajectory, cyl: SubCylinder) -> None:
    _check_radius(cyl.r)
    lo, hi = cyl.time_window()
    t_lo, t_hi = 0.0, traj.t_final
    pad = INTERIOR_MARGIN * (t_hi - t_lo)
    if lo < t_lo + pad - 1e-12 or hi > t_hi - pad + 1e-12:
        raise GeometryError(
            f"time window [{lo:g}, {hi:g}] violates the {INTERIOR_MARGIN:.0%} interior margin "
            f"of [0, {t_hi:g}]")


def restrict(traj: Trajectory, cyl: SubCylinder, target: str = "u", *,
             _box: bool = False) -> TimeGridFunction:
    """Time-sampled restriction to the sub-cylinder.

    ``target`` selects the solution itself ("u") or the square-root field of
    its symmetrized gradient ("vmap", applied pointwise snapshot by snapshot
    before any differencing).  The ball enters as a norm mask; gradients keep
    using the ambient periodic field.

    ``_box`` is for the analyzer's own rows that read the field only
    pointwise on the ball (L^q norms): a "vmap" restriction is then evaluated
    on the ball's periodic box with a one-point halo only
    (:func:`stencil.periodic_box`), equal on the mask bit for bit and with
    the masked entries in full-grid order.  "u" restrictions always keep the
    full grid, which their dictionary and spectral norms need.
    """
    _check_margins(traj, cyl)
    lo, hi = cyl.time_window()
    k_lo = int(math.ceil(lo / traj.dt - 1e-9))
    k_hi = int(math.floor(hi / traj.dt + 1e-9))
    if k_hi - k_lo < 1:
        raise GeometryError("time window contains fewer than two snapshots")
    values = traj.snapshots[k_lo : k_hi + 1]
    mask = _ball_mask(traj.grid, cyl.center[:2], cyl.r)
    if target == "vmap":
        if _box:
            box = np.ix_(*stencil.periodic_box(mask, 1))
            values, mask = values[(slice(None),) + box], mask[box]
        values = _vmap_stack(values, traj)
    elif target != "u":
        raise ValueError(f"unknown restriction target {target!r}")
    if not mask.any():
        raise GeometryError(f"ball of radius {cyl.r} contains no grid nodes")
    return TimeGridFunction(values, t0=k_lo * traj.dt, dt=traj.dt,
                            geometry=traj.grid.geometry(mask))


def _vmap_stack(values: np.ndarray, traj: Trajectory) -> np.ndarray:
    """``v_map(sym_gradient(values))`` written block by block of samples
    (``function_spaces._sample_blocks``) into one array: both maps act on
    each snapshot on its own, so the result is the one-call one bit for bit,
    without its whole-stack temporaries."""
    out = np.empty(values.shape + values.shape[-1:])
    for s in _sample_blocks(values.shape):
        out[s] = v_map(sym_gradient(values[s], traj.grid), traj.model)
    return out


sym_gradient4 = sym_gradient  # a name the benchmark tracer wraps


def _measure_table(traj: Trajectory, cyl: SubCylinder, table, measure) -> list:
    """``measure(f, ctx, *row)`` for each norm-table row, in order, with the row's
    restriction f and a throwaway ``_NormContext`` ctx of f in the row's norm.

    The "u" rows share one full-grid restriction per call, made on first use: it
    is a read-only view of the trajectory.  Each "vmap" row makes its own, on the
    ball's box when it reads pointwise (L^q).  Each row is measured in a call of
    its own, so its context and "vmap" field die when that call returns, and at
    most one context and one "vmap" field are alive at a time.  Contexts owned
    by the restrictions (``TimeGridFunction.context``) would all stay alive
    until the last row: they raised the ``regularity-p3`` benchmark's peak RSS
    from 104.5-104.8 to 107.2 MB (2-core x86_64 box, three runs of 20 s each).
    """
    shared_u = functools.cache(lambda: restrict(traj, cyl))

    def measured(row):
        target, x_norm = row[:2]
        f = shared_u() if target == "u" else \
            restrict(traj, cyl, target=target, _box=x_norm.kind == "lp")
        return measure(f, _NormContext(f, x_norm), *row)

    return [measured(row) for row in table]


def estimate_exponent(h_values, norms):
    """Least-squares slope of log(norm) against log(h).

    Returns (alpha_hat, r_squared).  Exact constancy (all norms zero) is
    flagged with the +inf sentinel; individual zero entries are dropped.  The
    steps must be finite and positive, one per norm, and the norms finite and
    >= 0 (``ValueError``).
    """
    h_values, norms = real_array("h_values", h_values), real_array("norms", norms)
    if not (np.isfinite(norms) & (norms >= 0)).all():
        raise ValueError(f"norms must be finite numbers >= 0, got {norms.tolist()}")
    if h_values.shape != norms.shape:
        raise ValueError(f"h_values of shape {h_values.shape} and norms of shape "
                         f"{norms.shape} must be two lists of equal length")
    if not (np.isfinite(h_values) & (h_values > 0)).all():
        raise ValueError(f"h_values must be finite positive steps, got {h_values.tolist()}")
    if len(h_values) < 4:
        raise InsufficientResolutionError("slope estimation needs at least 4 dyadic points")
    keep = norms > 0
    if not np.any(keep):
        return math.inf, 1.0
    if np.sum(keep) < 4:
        raise InsufficientResolutionError("fewer than 4 nonzero difference norms")
    x = np.log(h_values[keep])
    y = np.log(norms[keep])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_sq = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), r_sq


@dataclass
class SweepRow:
    """Differences of one field in one state-space norm at one difference order."""

    target: str            # "u" or "vmap"
    x_label: str
    time_p: float
    r: int
    alpha_grid: list
    seminorms: list        # one per alpha, sup over the dyadic steps
    h_values: list
    diff_norms: list
    alpha_hat: float
    r_squared: float
    predicted: float | None = None
    lower_bound_norm: bool = False


def regime_norm_table(p: float, alpha: float) -> list:
    """State-space norms probed for a given growth exponent, with predictions.

    Entries are (target, x_norm, time_p, alpha_pred): the expected time
    differentiability of each listed norm at level ``alpha``, which must be
    finite, >= 0 and below the regime ceiling.  The low-growth regimes replace
    the fractional rows by full-derivative rows (alpha_pred 1 or 2), plus the vmap row.
    """
    require_finite("smoothness exponent alpha", alpha, at_least=0)
    ceiling = ee.ceiling(p, 2)
    if alpha >= ceiling:
        raise PreconditionError(f"alpha = {alpha} is not below the regime ceiling {ceiling} of p = {p}")
    regime = ee.classify(p, 2)
    pp = p / (p - 1.0)
    if regime is ee.Regime.FRACTIONAL:
        return [
            ("u", L2, math.inf, alpha),
            ("vmap", L2, 2.0, alpha),
            ("u", wm1p(pp), pp, 1.0 + alpha),
            ("u", W12, 2.0, alpha),
            ("u", lp(p), p, alpha),
            ("u", w1p(p), p, 2.0 * alpha / p),
        ]
    rows = [
        ("u", lp(p), p, alpha),
        ("u", wm1p(pp), pp, 2.0),
        ("u", L2, math.inf, 1.0),
        ("vmap", L2, 2.0, 1.0),
        ("u", W12, 2.0, 1.0),
    ]
    if p > 2:
        rows.append(("u", w1p(p), p, 2.0 / p))
    return rows


def seminorm_sweep(traj: Trajectory, cyl: SubCylinder, alphas, delta: float,
                   table=None) -> list[SweepRow]:
    """Measure every listed norm over the sub-cylinder.

    For each (target, X, time-p) entry: difference norms over dyadic steps at
    the natural order of the row's prediction, the slope estimate, and the
    seminorm sup for each alpha of the non-empty, one-dimensional grid
    (finite, >= 0).  The
    default table is the regime table of the trajectory's own growth exponent,
    which admits alphas below its ceiling only.  Requires at least 4
    admissible dyadic steps.
    """
    if np.ndim(alphas) != 1:
        raise ValueError(f"alphas must be a list of exponents, got {alphas!r}")
    alphas = list(alphas)
    if not alphas:
        raise ValueError("alphas lists no exponent")
    for a in alphas:
        require_finite("smoothness exponent in alphas", a, at_least=0)
    if table is None:
        table = regime_norm_table(traj.model.p, max(alphas))

    def measure(f, ctx, target, x_norm, time_p, alpha_pred):
        r = natural_order(alpha_pred + 1e-12)  # difference order strictly above the prediction
        ks = dyadic_steps(f, r, delta)[1:]  # from 2 dt on
        if len(ks) < 4:
            raise InsufficientResolutionError(
                f"only {len(ks)} dyadic steps fit below delta = {delta}")
        h_values = [k * f.dt for k in ks]
        diffs = [ctx.difference_norm(r, k, time_p) for k in ks]
        alpha_hat, r_sq = estimate_exponent(h_values, diffs)
        semis = [_weighted_sup(f.dt, ks, a, diffs) for a in alphas]
        return SweepRow(target=target, x_label=x_norm.label(), time_p=time_p,
                        r=r, alpha_grid=alphas, seminorms=semis,
                        h_values=h_values, diff_norms=diffs,
                        alpha_hat=alpha_hat, r_squared=r_sq,
                        predicted=alpha_pred,
                        lower_bound_norm=x_norm.is_lower_bound(f.geometry))

    return _measure_table(traj, cyl, table, measure)


@dataclass
class InteriorEstimateReport:
    """Interior seminorm bound, measured.

    ``norms`` maps row labels to full Nikolskii/Sobolev-style norms of the
    solution (and of the square-root field) on the inner cylinder; ``bundle``
    is the outer data bundle; ``kappa_hat`` the empirical exponent.  When a
    refined trajectory is supplied, ``growth_factors`` holds the per-row
    ratio fine/coarse (finiteness proxy: below 1.5 when dt halves).
    """

    case: str
    alpha: float
    norms: dict
    bundle: float
    kappa_hat: float
    growth_factors: dict = field(default_factory=dict)
    stable: bool | None = None


def _interior_norms(traj: Trajectory, cyl: SubCylinder, alpha: float, delta: float) -> dict:
    def measure(f, ctx, target, x_norm, time_p, alpha_pred):
        if alpha_pred == int(alpha_pred):
            # full-derivative row: divided differences up to the predicted order
            return ctx.sobolev_norm(int(alpha_pred), time_p)
        return ctx.nikolskii_norm(alpha_pred, natural_order(alpha_pred), delta, time_p)

    table = regime_norm_table(traj.model.p, alpha)
    norms = _measure_table(traj, cyl, table, measure)
    return {f"{target}:{x_norm.label()}:p{time_p:g}": norm
            for (target, x_norm, time_p, _), norm in zip(table, norms)}


def check_seminorm_bounds(traj: Trajectory, inner: SubCylinder, outer: SubCylinder,
                          alpha: float, delta: float | None = None,
                          traj_fine: Trajectory | None = None) -> InteriorEstimateReport:
    """Measure the interior estimate: inner-cylinder norms vs the outer data bundle.

    ``alpha`` must lie strictly below the regime's predicted ceiling
    (:func:`regime_norm_table` raises above it).  The outer bundle is
    (1 + sup_t L^2 + energy-norm)/(R - r); the constants of the bound being
    existential, the report records the empirical exponent and, when a
    dt-halved trajectory is given, the per-norm refinement growth factor.
    """
    p = traj.model.p
    if outer.r <= inner.r:
        raise GeometryError("outer cylinder must be strictly larger")
    if delta is None:
        delta = min(1.0, inner.halfwidth / 2.0)

    norms = _interior_norms(traj, cyl=inner, alpha=alpha, delta=delta)

    f_outer = restrict(traj, outer, target="u")
    sup_l2 = lp_norm(f_outer, math.inf, L2)
    energy_norm = lp_norm(f_outer, p, w1p(p))
    bundle = (1.0 + sup_l2 + energy_norm) / (outer.r - inner.r)
    total = sum(norms.values())
    kappa_hat = math.log(total) / math.log(bundle) \
        if total > 0 and abs(math.log(bundle)) > 1e-9 else math.nan

    report = InteriorEstimateReport(case=ee.classify(p, 2).value, alpha=alpha, norms=norms,
                                    bundle=bundle, kappa_hat=kappa_hat)
    if traj_fine is not None:
        fine = _interior_norms(traj_fine, cyl=inner, alpha=alpha, delta=delta)
        report.growth_factors = {k: fine[k] / norms[k] if norms[k] > 0 else 1.0 for k in norms}
        report.stable = all(g < 1.5 for g in report.growth_factors.values())
    return report


@dataclass
class BallEstimateReport:
    lhs: float
    rhs: float
    observed_constant: float
    rhs_sup: float = 0.0   # the outer-ball sup integral before the prefactor
    hypothesis_flag: str = "ok"

    def passed(self, frozen_constant: float) -> bool:
        return self.lhs <= frozen_constant * self.rhs


def check_caccioppoli(traj: Trajectory, center_xy, r: float, big_r: float) -> BallEstimateReport:
    """Stationary ball estimate on nested balls.

    lhs: sup over interior snapshots of the B_r integral of
    |grad vmap(Du)|^2 + phi''(0) |grad Du|^2;
    rhs: (1 + 1/phi''(0)) / (R-r)^2 times the sup over the same snapshots of
    the B_R integral of phi(|grad u|) + |u_t|^2, with u_t the backward divided
    difference the implicit stepper controls.  The observed lhs/rhs ratio is
    the quantity frozen as a regression baseline; lhs does not depend on R.
    Each integral is evaluated on the periodic box of its ball
    (:func:`stencil.periodic_box`), equal to the full-grid sum bit for bit.
    An inner ball with no grid node raises ``GeometryError``, as in
    :func:`restrict`.

    Rough initial data (the ``kink`` tag) voids the bounded-time-derivative
    hypothesis; such runs are flagged, not failed.
    """
    require_real("r", r)
    require_real("big_r", big_r)
    if not 0 < r < big_r:  # the ball masks see only r**2 and R**2
        raise GeometryError(f"need 0 < r < R, got r = {r}, R = {big_r}")
    _check_radius(big_r)
    grid = traj.grid
    mask_r = _ball_mask(grid, center_xy, r)
    if not mask_r.any():
        raise GeometryError(f"ball of radius {r} contains no grid nodes")
    mask_R = _ball_mask(grid, center_xy, big_r)
    # lhs differences u twice, rhs once: each works on its ball's box with that halo
    box_r = np.ix_(*stencil.periodic_box(mask_r, 2))
    box_R = np.ix_(*stencil.periodic_box(mask_R, 1))
    in_r, in_R = mask_r[box_r], mask_R[box_R]
    h2 = grid.h**2
    phi_dd0 = traj.model.phi_dd0

    lhs = 0.0
    rhs_sup = 0.0
    u_prev = traj.snapshots[0][box_R]
    for k in range(1, traj.n_steps + 1):
        du = sym_gradient(traj.snapshots[k][box_r], grid)
        vdu = v_map(du, traj.model)
        grad_v = stencil.gradient(vdu, grid.h, (0, 1))
        grad_du = stencil.gradient(du, grid.h, (0, 1))
        dens = np.sum(grad_v**2, axis=(-3, -2, -1)) + phi_dd0 * np.sum(grad_du**2, axis=(-3, -2, -1))
        lhs = max(lhs, h2 * float(np.sum(dens[in_r])))

        u = traj.snapshots[k][box_R]
        ut = (u - u_prev) / traj.dt
        u_prev = u
        dens_rhs = phi(frob(stencil.gradient(u, grid.h, (0, 1))), traj.model) + np.sum(ut**2, axis=-1)
        rhs_sup = max(rhs_sup, h2 * float(np.sum(dens_rhs[in_R])))

    rhs = (1.0 + 1.0 / phi_dd0) / (big_r - r) ** 2 * rhs_sup
    observed = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)
    flag = "kink-data: bounded u_t hypothesis unverified" \
        if traj.meta.get("ic") == "kink" else "ok"
    return BallEstimateReport(lhs=lhs, rhs=rhs, observed_constant=observed,
                              rhs_sup=rhs_sup, hypothesis_flag=flag)
