"""Implicit solver for the symmetric-gradient diffusion system on the 2-D torus.

The system is the gradient flow u_t = div stress(Du) of the convex energy
``E(u) = sum_x phi(|Du(x)|) h^2`` on the periodic square [0, 2pi)^2, with
Du the symmetrized centered-difference gradient.  Backward Euler is used for
time stepping: dissipation of the discrete energy then follows from convexity
alone, with no step-size restriction, so regularity measurements on the
trajectories are attributable to the system rather than to the integrator.

Discrete calculus.  Gradient and divergence are the centered second-order
periodic differences of :mod:`symplap.stencil`; they satisfy the exact duality
``<div T, v> = -<T, Dv>`` (summation by parts with no boundary terms), so the
scheme inherits the weak-form structure: the implicit step solves
``u - u_prev - dt * div stress(Du) = 0`` by Newton iteration with the exact
Hessian of the energy, and the linearized systems are symmetric positive
definite.  They are solved by the module's own preconditioned conjugate
gradients (:func:`cg`; Saad, *Iterative Methods for Sparse Linear Systems*,
2nd ed., Alg. 9.1) from x0 = 0, stopping once ``|r| < max(rtol |b|, atol)``,
with a constant-coefficient spectral preconditioner inverted mode by mode on
the half spectrum of ``rfft2``.

Inexact Newton.  The Newton systems are solved only as far as the nonlinear
iteration needs: the k-th to ``eta_k |r_k|``, with the Eisenstat-Walker
forcing term, choice 2 -- ``eta_0 = 0.1`` and ``eta_k = min(0.1, 0.9
(|r_k| / |r_{k-1}|)^2)`` (Eisenstat and Walker, SIAM J. Sci. Comput. 17,
1996; Knoll and Keyes, J. Comput. Phys. 193, 2004).  :func:`solve` starts
every step after the first from the linear predictor ``2 u_k - u_{k-1}``.
Neither changes what a step returns beyond the Newton tolerance: the sup +
L^2 stopping rule is the same.

Field layout: vector fields -- states, snapshots, residuals and the CG
vectors -- are arrays of shape (n, n, 2), spatial axes first, component last.
The public tensor fields of :func:`sym_gradient` and :func:`divergence` are
(n, n, 2, 2), so the pointwise tensor algebra of ``tensor_models`` applies
along trailing axes.  Inside :func:`step` a symmetric tensor field is three
contiguous planes (e11, e12, e22) of shape (3, n, n): the differences then
run on unit-stride planes, and ``|Q|^2`` and ``Q:H`` are sums of three
products rather than reductions over two length-2 axes.  Every plane kernel
does the arithmetic of its (2, 2) form in the same order, so the step's
results are the same bits either way.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import stencil
from .errors import SolverFailureError, TimeStepError, TrajectoryFormatError, require_finite
from .function_spaces import SpaceGeometry
from .tensor_models import ModelParams, _phi_d_over_t, _plane_dot, _rank_one_coefficient, phi
# The step calls neither of these (..., 2, 2) maps; they stay attributes of this
# module because the benchmark's tracer (bench/tracing.py) wraps them here.
from .tensor_models import stress, stress_derivative_apply  # noqa: F401

__all__ = [
    "TorusGrid", "SpatialField", "Trajectory", "StepDiagnostics",
    "sym_gradient", "divergence", "energy", "step", "step_count", "solve",
    "initial_condition", "save_trajectory", "load_trajectory",
]


@dataclass(frozen=True)
class TorusGrid:
    """Uniform n-by-n sampling of [0, 2pi)^2; n a power of two >= 8."""

    n: int

    def __post_init__(self):
        if self.n < 8 or self.n & (self.n - 1):
            raise ValueError("grid size must be a power of two, at least 8")

    @property
    def h(self) -> float:
        return 2.0 * math.pi / self.n

    @property
    def d(self) -> int:
        return 2

    def coordinates(self):
        x = np.arange(self.n) * self.h
        return np.meshgrid(x, x, indexing="ij")

    def geometry(self, mask=None) -> SpaceGeometry:
        return SpaceGeometry(h=self.h, ndim=2, mask=mask)


@dataclass
class SpatialField:
    """One time slice of the solution: (n, n, 2) array plus its grid."""

    data: np.ndarray
    grid: TorusGrid

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        n = self.grid.n
        if self.data.shape != (n, n, self.grid.d):
            raise ValueError(f"field shape {self.data.shape} does not match grid {(n, n, self.grid.d)}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("field entries must be finite")


def _sym_gradient_planes(u: np.ndarray, h: float, e11, e12, e22, work) -> None:
    """The three distinct entries of the symmetrized gradient of ``u``, written in place.

    ``u`` has shape (..., n, n, 2); ``e11 = d_1 u_1``, ``e22 = d_2 u_2`` and
    ``e12 = (d_2 u_1 + d_1 u_2)/2`` are differences along the last two axes
    of the component views, with ``work`` as scratch of their shape.  This is
    the arithmetic of ``tensor_models.sym`` on the full gradient, so the
    entries are those of :func:`sym_gradient` bit for bit.
    """
    u1, u2 = u[..., 0], u[..., 1]
    stencil.difference(u1, -2, h, e11)
    stencil.difference(u2, -1, h, e22)
    stencil.difference(u1, -1, h, e12)
    e12 += stencil.difference(u2, -2, h, work)
    e12 *= 0.5


def _divergence_row(t1: np.ndarray, t2: np.ndarray, h: float, out, work1, work2) -> None:
    """``out = d_1 t1 + d_2 t2`` along the last two axes: one row of a divergence.

    Summed as ``(0 + d_1 t1) + d_2 t2``, the order of a sum started from zero,
    as the (2, 2) divergence always summed: the ``+ 0`` changes only the sign
    of a zero, and keeps those bits.
    """
    stencil.difference(t1, -2, h, work1)
    work1 += 0.0
    np.add(work1, stencil.difference(t2, -1, h, work2), out=out)


def _plane_contraction(e: np.ndarray, f: np.ndarray, out: np.ndarray,
                       work: np.ndarray) -> np.ndarray:
    """``out = Q:H`` for the planes ``e = (e11, e12, e22)`` of Q and ``f`` of H: the
    entries (11, 12, 12, 22) in C order, so bit for bit ``np.sum(Q * H, axis=(-2, -1))``."""
    return _plane_dot((e[0], e[1], e[1], e[2]), (f[0], f[1], f[1], f[2]), out, work)


def _plane_norm(e: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Frobenius norm sqrt(Q:Q) of the planes ``e``, as a fresh array: bit for bit ``frob``."""
    t = _plane_contraction(e, e, np.empty_like(work), work)
    return np.sqrt(t, out=t)


def sym_gradient(u: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Symmetrized gradient (d_j u_i + d_i u_j)/2: (..., n, n, 2) -> (..., n, n, 2, 2)."""
    out = np.empty(u.shape + (2,))
    # e12 is built unit-stride and then copied twice; the (2, 1) entry serves
    # as scratch, so a stack needs only one plane beyond its result
    e12 = np.empty(u.shape[:-1])
    _sym_gradient_planes(u, grid.h, out[..., 0, 0], e12, out[..., 1, 1], out[..., 1, 0])
    out[..., 0, 1] = e12
    out[..., 1, 0] = e12
    return out


def divergence(t_field: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Row-wise divergence of a tensor field: (div T)_i = sum_j d_j T_ij.

    Accepts leading axes, (..., n, n, 2, 2) -> (..., n, n, 2); exactly minus
    the adjoint of ``sym_gradient`` (periodic centered differences telescope).
    """
    out = np.empty(t_field.shape[:-1])
    work1, work2 = np.empty(t_field.shape[:-2]), np.empty(t_field.shape[:-2])
    for i in range(2):
        _divergence_row(t_field[..., i, 0], t_field[..., i, 1], grid.h, out[..., i], work1, work2)
    return out


def inner(u: np.ndarray, v: np.ndarray, grid: TorusGrid) -> float:
    """Grid inner product h^2 sum over points and components."""
    return float(grid.h**2 * np.sum(u * v))


def energy(u: np.ndarray, model: ModelParams, grid: TorusGrid) -> float:
    """Discrete dissipated energy h^2 * sum phi(|Du|)."""
    e, work = np.empty((3,) + u.shape[:-1]), np.empty(u.shape[:-1])
    _sym_gradient_planes(u, grid.h, *e, work)
    return float(grid.h**2 * np.sum(phi(_plane_norm(e, work), model)))


def _spectral_preconditioner(grid: TorusGrid, dt: float, gbar: float):
    """Inverse of v -> v + dt*gbar*(-div D v) computed mode by mode.

    Centered differences act diagonally in Fourier space with the real symbol
    s_j = sin(k_j h)/h.  The per-mode 2x2 block a I + c s s^T, with
    c = dt*gbar/2 and a = 1 + c|s|^2, has the closed-form inverse
    I/a - w s s^T with w = c/(a (a + c|s|^2)); its three distinct entries are
    computed once, when the preconditioner is built.  The block is even in k,
    so it maps real fields to real fields and acts on the half spectrum of
    ``rfft2``.  For the linear model (constant coefficient) this
    preconditioner is the exact inverse, so CG converges in one iteration.
    """
    n = grid.n
    s = stencil.symbol(n, grid.h)
    s1, s2 = s[:, None], s[None, : n // 2 + 1]
    c = 0.5 * dt * gbar
    ssq = s1**2 + s2**2
    a = 1.0 + c * ssq
    w = c / (a * (a + c * ssq))
    m11, m12, m22 = 1.0 / a - w * s1**2, -w * s1 * s2, 1.0 / a - w * s2**2

    def apply(v: np.ndarray) -> np.ndarray:
        # one transform per contiguous component plane: the same 1-D
        # transforms as ``axes=(0, 1)`` on the (n, n, 2) field, without strides
        v1 = np.fft.rfft2(np.ascontiguousarray(v[..., 0]))
        v2 = np.fft.rfft2(np.ascontiguousarray(v[..., 1]))
        out = np.empty_like(v)
        out[..., 0] = np.fft.irfft2(m11 * v1 + m12 * v2, s=(n, n))
        out[..., 1] = np.fft.irfft2(m12 * v1 + m22 * v2, s=(n, n))
        return out

    return apply


MAX_NEWTON = 50      # Newton iterations per step before SolverFailureError
TOL_FACTOR = 1e-10   # residual tolerance relative to 1 + |u_prev|_inf
ETA_MAX = 0.1        # forcing term (module docstring): eta_0 and the ceiling of eta_k
ETA_GAMMA = 0.9      # forcing term: factor and power of the residual-norm ratio
ETA_ALPHA = 2.0
CG_RTOL = 1e-12      # CG stops once |r| < max(CG_RTOL |b|, atol)
CG_MAXITER = 600     # CG iterations per linear solve before SolverFailureError


def cg(matvec, b: np.ndarray, *, precond, atol: float, callback=None):
    """Preconditioned conjugate gradients for ``matvec(x) = b`` from x0 = 0.

    Saad, *Iterative Methods for Sparse Linear Systems*, 2nd ed., Alg. 9.1:
    ``matvec`` must be symmetric positive definite and ``precond`` an SPD
    approximation of its inverse.  Arrays may have any shape; inner products
    and norms run over all entries.  The iteration stops when
    ``|r| < max(CG_RTOL |b|, atol)``, tested before each iteration, and
    ``callback(x)`` is called after each one.  The operations and their order
    are those of the library PCG that the tests take as reference, so the
    iterates equal its iterates bit for bit.  Returns ``(x, 0)`` on
    convergence and ``(x, CG_MAXITER)`` when the iteration budget runs out.
    """
    bnorm = np.linalg.norm(b)
    atol = max(float(atol), CG_RTOL * float(bnorm))
    if bnorm == 0:
        return b.copy(), 0
    x, r = np.zeros_like(b), b.copy()
    for it in range(CG_MAXITER):
        if np.linalg.norm(r) < atol:
            return x, 0
        z = precond(r)
        rho = np.vdot(r, z)
        if it == 0:
            p = z.copy()
        else:
            p *= rho / rho_prev
            p += z
        q = matvec(p)
        alpha = rho / np.vdot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
        if callback is not None:
            callback(x)
    return x, CG_MAXITER


def _forcing_term(ratio: float) -> float:
    """The forcing term eta_k of the module docstring for the ratio |r_k| / |r_{k-1}|."""
    # No safeguard (Eisenstat and Walker, 1996, Sec. 2): it raises eta_k to
    # ETA_GAMMA eta_{k-1}^ETA_ALPHA only when that exceeds 0.1, and with every
    # eta_{k-1} <= ETA_MAX = 0.1 it is at most 0.009, so it could never bind.
    return min(ETA_MAX, ETA_GAMMA * ratio**ETA_ALPHA)


def step_count(t_final: float, dt: float) -> int:
    """Number of steps of size ``dt`` to ``t_final``.

    Raises ``TimeStepError`` (a ``ValueError``) naming the argument when
    ``dt`` or ``t_final`` is not a finite positive number, or when
    ``t_final`` is not an integer multiple of ``dt`` to within 1e-9 steps.
    """
    require_finite("dt", dt, error=TimeStepError)
    require_finite("t_final", t_final, error=TimeStepError)
    n_steps = t_final / dt
    if abs(n_steps - round(n_steps)) > 1e-9:
        raise TimeStepError(f"t_final = {t_final!r} is not an integer multiple of dt = {dt!r}")
    return round(n_steps)


@dataclass
class StepDiagnostics:
    newton_iterations: int
    residual: float
    cg_iterations: int


class _StepKernels:
    """The residual and the Hessian action of one backward-Euler step.

    Symmetric tensor fields are held as three contiguous planes
    (e11, e12, e22) of shape (3, n, n); vector fields keep the (n, n, 2)
    layout.  The scratch planes and the Hessian action's result are allocated
    once, here.  The arithmetic and its order are those of the (2, 2) forms,
    so both maps are bit for bit the compositions of :func:`sym_gradient`,
    ``tensor_models.stress`` / ``stress_derivative_apply`` and
    :func:`divergence` on (n, n, 2, 2) fields.
    """

    def __init__(self, u_prev: np.ndarray, dt: float, model: ModelParams, grid: TorusGrid):
        n = grid.n
        self.u_prev, self.dt, self.model, self.h = u_prev, dt, model, grid.h
        self.f = np.empty((3, n, n))  # planes of the stress, or of H and then g H + c2 (Q:H) Q
        self.work1, self.work2, self.qh = np.empty((3, n, n))
        self.div, self.action = np.empty_like(u_prev), np.empty_like(u_prev)
        self.actions = 0  # Hessian actions so far

    def _divergence_of_f(self) -> np.ndarray:
        f, div = self.f, self.div
        _divergence_row(f[0], f[1], self.h, div[..., 0], self.work1, self.work2)
        _divergence_row(f[1], f[2], self.h, div[..., 1], self.work1, self.work2)
        return div

    def residual(self, u: np.ndarray):
        """``(e, t, g, r)`` at ``u``: the planes of Du, |Du|, g = phi'(|Du|)/|Du| and
        the residual ``(u - u_prev)/dt - div(g Du)``, all fresh arrays."""
        e = np.empty_like(self.f)
        _sym_gradient_planes(u, self.h, *e, self.work1)
        t = _plane_norm(e, self.work1)
        g = _phi_d_over_t(t, self.model)
        np.multiply(e, g, out=self.f)
        r = u - self.u_prev
        r /= self.dt
        r -= self._divergence_of_f()
        return e, t, g, r

    def hessian_action(self, v: np.ndarray, e: np.ndarray, g: np.ndarray, c2: np.ndarray):
        """``v/dt - div(g H + c2 (Q:H) Q)`` with H = Dv, Q the planes ``e`` and ``c2``
        the rank-one coefficient at Q, written into (and returning) one buffer."""
        self.actions += 1
        f, work = self.f, self.work1
        _sym_gradient_planes(v, self.h, *f, work)
        _plane_contraction(e, f, self.qh, work)
        self.qh *= c2
        f *= g
        for k in range(3):
            f[k] += np.multiply(self.qh, e[k], out=work)
        np.divide(v, self.dt, out=self.action)
        self.action -= self._divergence_of_f()
        return self.action


def step(u_prev: np.ndarray, dt: float, model: ModelParams, grid: TorusGrid,
         guess: np.ndarray | None = None):
    """One backward-Euler step: solve (u - u_prev)/dt = div stress(Du).

    Inexact Newton iteration on the divided-difference residual with the
    exact energy Hessian, started from ``guess`` (``u_prev`` when None).  The
    k-th linear system is solved by preconditioned CG only until its residual
    is below ``eta_k |r_k|`` (Euclidean norms of the residual arrays, and never
    below ``1e-14 (1 + |r_k|_inf)``), with the forcing term eta_k of the
    module docstring.  Convergence requires both the sup and the L^2 norm
    of the residual below ``TOL_FACTOR * (1 + |u_prev|_inf)``, so the
    forcing measured along a trajectory vanishes at solver precision in
    either norm however loosely the linear systems were solved.  Damps the
    update by halving, at most 12 times, while the residual fails to
    decrease; raises SolverFailureError (with the residual history attached)
    if the tolerance is not met within ``MAX_NEWTON`` iterations.  Returns
    (u_next, StepDiagnostics); its ``cg_iterations`` counts Hessian actions,
    one per CG iteration.

    The preconditioner is built once, from the mean of ``g = phi'(|Du|)/|Du|``
    at the guess.  The accepted trial's residual, Du, |Du| and g serve the
    next Newton iteration, and a Hessian action costs one gradient, one
    pointwise product and one divergence.  Both maps run on plane-stored
    symmetric fields (:class:`_StepKernels`), bit for bit their (2, 2) forms.
    """
    require_finite("dt", dt, error=TimeStepError)
    tol = TOL_FACTOR * (1.0 + float(np.max(np.abs(u_prev))))
    l2_weight = grid.h  # sqrt(h^2) per sample
    kernels = _StepKernels(u_prev, dt, model, grid)
    u = u_prev.copy() if guess is None else guess  # never written in place
    e, t, g, r = kernels.residual(u)
    apply_m = _spectral_preconditioner(grid, dt, float(np.mean(g)))

    def precond(v):
        z = apply_m(v)
        z *= dt
        return z

    history, eta = [], ETA_MAX
    for it in range(MAX_NEWTON):
        rsup, rnorm = float(np.max(np.abs(r))), float(np.sqrt(np.sum(r**2)))
        history.append(rsup)
        worst = max(rsup, l2_weight * rnorm)
        if worst < tol:
            return u, StepDiagnostics(newton_iterations=it, residual=worst,
                                      cg_iterations=kernels.actions)
        if it:
            eta = _forcing_term(rnorm / rnorm_prev)
        rnorm_prev = rnorm
        matvec = functools.partial(kernels.hessian_action, e=e, g=g,
                                   c2=_rank_one_coefficient(t, model))
        delta, info = cg(matvec, -r, precond=precond,
                         atol=max(1e-14 * (1.0 + rsup), eta * rnorm))
        if info != 0:
            raise SolverFailureError("linear solver stalled inside Newton iteration",
                                     residual_history=history)
        for j in range(13):  # damping 2**-j; the last trial is taken whatever its residual
            trial = u + 0.5**j * delta
            state = kernels.residual(trial)
            if j == 12 or float(np.max(np.abs(state[3]))) < rsup:
                break
        u, (e, t, g, r) = trial, state
    raise SolverFailureError(
        f"Newton iteration did not reach tolerance {tol:.3e} in {MAX_NEWTON} steps",
        residual_history=history)


@dataclass
class Trajectory:
    """Time-indexed snapshots of the computed solution plus per-step diagnostics."""

    snapshots: np.ndarray          # (n_steps+1, n, n, 2)
    dt: float
    model: ModelParams
    grid: TorusGrid
    diagnostics: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def n_steps(self) -> int:
        return self.snapshots.shape[0] - 1

    @property
    def t_final(self) -> float:
        return self.n_steps * self.dt

    def energies(self) -> np.ndarray:
        """Discrete energy of every snapshot, n_steps + 1 values; loaded trajectories too."""
        return np.array([energy(u, self.model, self.grid) for u in self.snapshots])


def _require_finite_data(u: np.ndarray, model: ModelParams, grid: TorusGrid) -> None:
    """Raise ``ValueError`` unless the energy and the stress of the state ``u`` are finite."""
    e, work = np.empty((3,) + u.shape[:-1]), np.empty(u.shape[:-1])
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is what is checked
        _sym_gradient_planes(u, grid.h, *e, work)
        t = _plane_norm(e, work)
        finite = (np.isfinite(np.sum(phi(t, model)))
                  and np.isfinite(_phi_d_over_t(t, model) * e).all())
    if not finite:
        raise ValueError(f"initial data with max |u0| = {np.max(np.abs(u)):.3g} overflow: "
                         "their energy or stress is not finite")


def solve(u0: SpatialField, t_final: float, dt: float, model: ModelParams,
          meta: dict | None = None) -> Trajectory:
    """March the implicit scheme from u0 to t_final (must be a multiple of dt).

    ``dt`` and ``t_final`` are checked by :func:`step_count` before anything
    is allocated, and u0 is rejected with a ``ValueError`` when its energy or
    its stress overflows.  On a step failure the partially computed
    trajectory is attached to the raised SolverFailureError as ``partial``
    together with the failing index.
    """
    n_steps = step_count(t_final, dt)
    grid = u0.grid
    _require_finite_data(u0.data, model, grid)
    snapshots = np.empty((n_steps + 1,) + u0.data.shape)
    snapshots[0] = u0.data
    diagnostics = []
    for k in range(n_steps):
        guess = None
        if k:  # the predictor 2 u_k - u_{k-1}, built in the slot of u_{k+1}: no fresh array
            guess = np.multiply(snapshots[k], 2.0, out=snapshots[k + 1])
            guess -= snapshots[k - 1]
        try:
            snapshots[k + 1], diag = step(snapshots[k], dt, model, grid, guess)
        except SolverFailureError as exc:
            exc.step_index = k
            exc.partial = Trajectory(snapshots[: k + 1].copy(), dt, model, grid,
                                     diagnostics, dict(meta or {}, failed_at_step=k))
            raise
        diagnostics.append(diag)
    return Trajectory(snapshots, dt, model, grid, diagnostics, dict(meta or {}))


def initial_condition(tag: str, grid: TorusGrid, seed: int = 0, cutoff: int = 3,
                      amplitude: float = 1.0) -> SpatialField:
    """Built-in initial data.

    ``eigenfield``     divergence-free trigonometric field; for the linear
                       model it decays exactly exponentially, and on the grid
                       it is an exact eigenfield of the discrete operator.
    ``random_smooth``  seeded band-limited random field (modes up to
                       ``cutoff``, an integer in [1, n/2 - 1]), normalized
                       to the requested amplitude.
    ``kink``           periodic triangle-wave profile whose symmetrized
                       gradient jumps across two lines; probes how rough an
                       initial state the implicit stepping tolerates.
    """
    x1, x2 = grid.coordinates()
    if tag == "eigenfield":
        data = amplitude * np.stack([np.sin(x1) * np.cos(x2), -np.cos(x1) * np.sin(x2)], axis=-1)
    elif tag == "random_smooth":
        if not 1 <= cutoff <= grid.n // 2 - 1:  # modes n/2 feed the kernel of sym_gradient
            raise ValueError(f"cutoff must be an integer in [1, n/2 - 1] = [1, {grid.n // 2 - 1}] "
                             f"at n = {grid.n}, got {cutoff!r}")
        rng = np.random.default_rng(seed)
        data = np.zeros((grid.n, grid.n, 2))
        for k1 in range(-cutoff, cutoff + 1):
            for k2 in range(-cutoff, cutoff + 1):
                if k1 == 0 and k2 == 0:
                    continue
                phase = rng.uniform(0.0, 2.0 * math.pi, size=2)
                amp = rng.normal(size=2) / (1.0 + k1**2 + k2**2)
                for c in range(2):
                    data[..., c] += amp[c] * np.cos(k1 * x1 + k2 * x2 + phase[c])
        data *= amplitude / max(np.max(np.abs(data)), 1e-30)
    elif tag == "kink":
        tri = np.pi / 2.0 - np.abs(np.mod(x1, 2.0 * np.pi) - np.pi)
        data = amplitude * np.stack([tri, np.zeros_like(tri)], axis=-1)
    else:
        raise ValueError(f"unknown initial-condition tag {tag!r}")
    return SpatialField(data, grid)


_HEADER_COUNT = 4  # n, d, dt, step count, all little-endian float64


def save_trajectory(traj: Trajectory, path) -> None:
    """Flat binary snapshots plus a key = value sidecar at ``<path>.meta``.

    Binary layout: header [n, d, dt, step count] as little-endian float64,
    then the snapshot array (step count + 1, n, n, d) in C order, float64 LE.
    """
    n = traj.grid.n
    header = np.array([n, traj.grid.d, traj.dt, traj.n_steps], dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        np.ascontiguousarray(traj.snapshots, dtype="<f8").tofile(fh)
    lines = {
        "model": traj.model.model,
        "p": repr(traj.model.p),
        "mu": repr(traj.model.mu),
        "n": n,
        "dt": repr(traj.dt),
        "steps": traj.n_steps,
        "layout": "snapshots,x1,x2,component",
    }
    lines.update(traj.meta)
    with open(f"{path}.meta", "w") as fh:
        for key, val in lines.items():
            fh.write(f"{key} = {val}\n")


def load_trajectory(path) -> Trajectory:
    """Read a trajectory written by :func:`save_trajectory`.

    Raises ``TrajectoryFormatError`` when the file size disagrees with its
    header, when the header's dt is not a finite positive number, when a
    snapshot holds a non-finite entry, or when the
    ``<path>.meta`` sidecar is missing or lacks the model parameters
    (``model``, ``p``, ``mu``).
    """
    header_bytes = 8 * _HEADER_COUNT
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < header_bytes:
            raise TrajectoryFormatError(
                f"{path}: {size} bytes, shorter than the {header_bytes}-byte header")
        header = np.frombuffer(fh.read(header_bytes), dtype="<f8")
        n, d, dt, steps = int(header[0]), int(header[1]), float(header[2]), int(header[3])
        require_finite(f"{path}: header dt", dt, error=TrajectoryFormatError)
        expected = header_bytes + 8 * (steps + 1) * n * n * d
        if min(n, d, steps + 1) < 1 or size != expected:
            raise TrajectoryFormatError(
                f"{path}: {size} bytes, but its header (n = {n}, d = {d}, steps = {steps}) "
                f"needs {expected}")
        data = np.fromfile(fh, dtype="<f8").reshape(steps + 1, n, n, d)
    for k, snapshot in enumerate(data):  # one snapshot at a time: no array-sized temporary
        if not np.isfinite(snapshot).all():
            raise TrajectoryFormatError(f"{path}: snapshot {k} has a non-finite entry")
    meta = {}
    try:
        with open(f"{path}.meta") as fh:
            for line in fh:
                if "=" in line:
                    key, val = line.split("=", 1)
                    meta[key.strip()] = val.strip()
    except FileNotFoundError:
        raise TrajectoryFormatError(
            f"{path}.meta is missing, so the model parameters are unknown") from None
    missing = [key for key in ("model", "p", "mu") if key not in meta]
    if missing:
        raise TrajectoryFormatError(f"{path}.meta lacks {', '.join(missing)}")
    model = ModelParams(p=float(meta["p"]), mu=float(meta["mu"]), model=meta["model"])
    return Trajectory(data, dt, model, TorusGrid(n), [], meta)
