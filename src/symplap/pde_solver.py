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
preconditioned by the exact inverse of the constant-coefficient Hessian
``v/dt - gbar div D v`` (gbar the mean of ``phi'(|Du|)/|Du|``), inverted
mode by mode on the half spectrum of ``rfft2``.

Inexact Newton.  The Newton systems are solved only as far as the nonlinear
iteration needs: the k-th to ``eta_k |r_k|``, with the Eisenstat-Walker
forcing term, choice 2 -- ``eta_0 = 0.1`` and ``eta_k = min(0.1, 0.9
(|r_k| / |r_{k-1}|)^2)`` (Eisenstat and Walker, SIAM J. Sci. Comput. 17,
1996; Knoll and Keyes, J. Comput. Phys. 193, 2004).  :func:`solve` starts
step k >= 1 from the extrapolation of order m = min(q, k) through the
states u_{k-m}, ..., u_k, ``sum_{j=0..m} (-1)^j C(m+1, j+1) u_{k-j}``,
which is exact for polynomials in t of degree m; the second step thus
starts from ``2 u_1 - u_0``.  q is ``PREDICTOR_ORDER``, or 1 for the linear
model p = 2, where any start takes one Newton iteration
(:func:`_predictor_order`).  Neither changes what a step returns beyond
the Newton tolerance: the sup + L^2 stopping rule is the same.

Field layout: public vector fields -- states, snapshots and the files of
:func:`save_trajectory` -- are arrays of shape (n, n, 2), spatial axes
first, component last, and the public tensor fields of :func:`sym_gradient`
and :func:`divergence` are (n, n, 2, 2), so the pointwise tensor algebra of
``tensor_models`` applies along trailing axes.  Inside :func:`step`, vectors
-- the iterates, the residual and the CG vectors -- are planar,
component-stacked (2, n, n).  :func:`solve` keeps the previous state and
the accepted iterate planar across steps and writes each accepted iterate
once, transposed, into its snapshot; it builds the predictor from the
snapshots, which hold the past states contiguously; a lone ``step``
transposes its input on entry and its result on exit.  A symmetric tensor
field is three contiguous planes (e11, e12, e22) of shape (3, n, n).  One
difference along each spatial axis then covers both components, one
``rfft2``/``irfft2`` pair both planes of the preconditioner, and ``|Q|^2``
and ``Q:H`` are sums of three products rather than reductions over two
length-2 axes.  The public functions reach
the same plane kernels through ``np.moveaxis`` views.  Every plane kernel
does the arithmetic of its (2, 2) form in the same order, so its results
are the same bits either way; sums over all entries, as in CG's inner
products and the residual norm, run in planar order.  :func:`solve`
allocates the step's buffers once (:class:`_Workspace`), and every step
reuses them, with the preconditioner's mode blocks while ``(dt, gbar)``
stays the same.  Each step records the energy of its result, which it has
at hand from the last residual evaluation (:attr:`StepDiagnostics.energy`).
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from . import stencil
from .errors import (SolverFailureError, TimeStepError, TrajectoryFormatError, real_array,
                     require_finite)
from .function_spaces import SpaceGeometry
from .tensor_models import ModelParams, _phi_d_over_t, _plane_dot, _rank_one_coefficient, phi
# The step calls neither of these (..., 2, 2) maps; they stay attributes of this
# module because the benchmark's tracer (bench/tracing.py) wraps them here.
from .tensor_models import stress, stress_derivative_apply  # noqa: F401

__all__ = [
    "TorusGrid", "SpatialField", "Trajectory", "StepDiagnostics",
    "sym_gradient", "divergence", "inner", "energy", "step", "step_count", "solve",
    "initial_condition", "save_trajectory", "load_trajectory",
]


@dataclass(frozen=True)
class TorusGrid:
    """Uniform n-by-n sampling of [0, 2pi)^2; n a power of two >= 8."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral):
            raise ValueError(f"grid size n must be an integer, got {self.n!r}")
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
        self.data = _check_state("field", self.data, self.grid)


def _check_state(name: str, u, grid: TorusGrid) -> np.ndarray:
    """``u`` as a float array (:func:`errors.real_array`); raises ``ValueError``
    naming ``name`` unless it is a finite (n, n, 2) state of ``grid``."""
    u = real_array(name, u)
    shape = (grid.n, grid.n, grid.d)
    if np.shape(u) != shape:
        raise ValueError(f"{name} shape {np.shape(u)} does not match grid {shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError(f"{name} entries must be finite")
    return u


def _check_axes(u, grid: TorusGrid, box: bool = False, tensor: bool = False,
                name: str = "u") -> np.ndarray:
    """The field ``u`` as a float array (:func:`errors.real_array`, which raises
    ``TypeError`` naming ``name`` for complex data); raises ``ValueError`` naming
    it unless it ends in the grid's (n, n, 2) axes, or (n, n, 2, 2) with
    ``tensor``, or, with ``box``, in the (a, b, 2) axes, a, b <= n, of one of
    its periodic boxes (:func:`stencil.periodic_box`), on which the analyzer
    differences, or unless its entries are finite."""
    u = real_array(name, u)
    n, comps = grid.n, (grid.d,) * (2 if tensor else 1)
    tail = np.shape(u)[-2 - len(comps):]
    if not (len(tail) == 2 + len(comps) and tail[2:] == comps
            and (max(tail[:2]) <= n if box else tail[:2] == (n, n))):
        axes = f"({'a, b' if box else 'n, n'}, {', '.join(map(str, comps))})"
        raise ValueError(f"{name} of shape {np.shape(u)} does not end in the axes {axes}"
                         f"{' with a, b <= n' if box else ''} of the grid, n = {n}")
    if not np.isfinite(u).all():
        raise ValueError(f"{name} entries must be finite")
    return u


def _sym_gradient_planes(u: np.ndarray, h: float, d1: np.ndarray, d2: np.ndarray) -> None:
    """The three distinct entries of the symmetrized gradient of the planar field ``u``.

    ``u`` is component-stacked, (2, ..., n, n); ``d1`` and ``d2`` are two-plane
    views of its shape.  One difference along each spatial axis covers both
    components: ``d1 = (d_1 u_1, d_1 u_2)`` and ``d2 = (d_2 u_1, d_2 u_2)``,
    then ``d2[0] = e12 = (d_2 u_1 + d_1 u_2)/2``.  So ``e11 = d1[0]``,
    ``e12 = d2[0]`` and ``e22 = d2[1]``, and ``d1[1]`` is left as scratch.
    This is the arithmetic of ``tensor_models.sym`` on the full gradient, so
    the entries are those of :func:`sym_gradient` bit for bit.
    """
    stencil.difference(u, -2, h, d1)
    stencil.difference(u, -1, h, d2)
    d2[0] += d1[1]
    d2[0] *= 0.5


def _divergence_planes(c1: np.ndarray, c2: np.ndarray, h: float, out: np.ndarray,
                       work: np.ndarray) -> None:
    """``out = d_1 c1 + d_2 c2`` along the last two axes, for two-plane stacks: the
    divergence with rows ``(c1[i], c2[i])``, with ``work`` as scratch of its shape.

    Summed as ``(0 + d_1 c1) + d_2 c2``, the order of a sum started from zero,
    as the (2, 2) divergence always summed: the ``+ 0`` changes only the sign
    of a zero, and keeps those bits.
    """
    stencil.difference(c1, -2, h, work)
    work += 0.0
    np.add(work, stencil.difference(c2, -1, h, out), out=out)


def _plane_contraction(e: np.ndarray, f: np.ndarray, out: np.ndarray,
                       work: np.ndarray) -> np.ndarray:
    """``out = Q:H`` for the planes ``e = (e11, e12, e22)`` of Q and ``f`` of H: the
    entries (11, 12, 12, 22) in C order, so bit for bit ``np.sum(Q * H, axis=(-2, -1))``."""
    return _plane_dot((e[0], e[1], e[1], e[2]), (f[0], f[1], f[1], f[2]), out, work)


def _plane_norm(e: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """``out`` = Frobenius norm sqrt(Q:Q) of the planes ``e``: bit for bit ``frob``."""
    return np.sqrt(_plane_contraction(e, e, out, work), out=out)


def _strain_planes(u: np.ndarray, h: float, state: np.ndarray, work: np.ndarray):
    """``(e, t)``: the planes ``e = state[:3]`` of the symmetrized gradient of the
    planar ``u`` and their norm ``t = state[3]``, with ``work`` one plane of scratch."""
    _sym_gradient_planes(u, h, state[0::3], state[1:3])
    return state[:3], _plane_norm(state[:3], state[3], work)


def _strain(u: np.ndarray, h: float):
    """:func:`_strain_planes` of the (..., n, n, 2) field ``u``, as fresh arrays."""
    buf = np.empty((5,) + u.shape[:-1])
    return _strain_planes(np.moveaxis(u, -1, 0), h, buf[:4], buf[4])


def sym_gradient(u: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Symmetrized gradient (d_j u_i + d_i u_j)/2: (..., n, n, 2) -> (..., n, n, 2, 2).

    The spatial axes may also be those of a periodic box of the grid, (a, b)
    with a, b <= n: the result then equals the full-grid one at every point
    whose neighbours lie in the box (:func:`stencil.periodic_box`).
    """
    u = _check_axes(u, grid, box=True)
    out = np.empty(u.shape + (2,))
    # the entries (11, 12, 21, 22) as planes; the (2, 1) entry serves as
    # scratch, so a stack needs nothing beyond its result
    q = np.moveaxis(out.reshape(u.shape[:-1] + (4,)), -1, 0)
    _sym_gradient_planes(np.moveaxis(u, -1, 0), grid.h, q[0::2], q[1::2])
    q[2] = q[1]
    return out


def divergence(t_field: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Row-wise divergence of a tensor field: (div T)_i = sum_j d_j T_ij.

    Accepts leading axes, (..., n, n, 2, 2) -> (..., n, n, 2); exactly minus
    the adjoint of ``sym_gradient`` (periodic centered differences telescope).
    """
    t_field = _check_axes(t_field, grid, tensor=True, name="t_field")
    out = np.empty(t_field.shape[:-1])
    rows = np.moveaxis(t_field, (-2, -1), (0, 1))  # rows[i, j] = T_ij
    _divergence_planes(rows[:, 0], rows[:, 1], grid.h, np.moveaxis(out, -1, 0),
                       np.empty((2,) + out.shape[:-1]))
    return out


def inner(u: np.ndarray, v: np.ndarray, grid: TorusGrid) -> float:
    """Grid inner product h^2 sum over points and components of two (..., n, n, 2)
    fields of one shape."""
    u, v = _check_axes(u, grid), _check_axes(v, grid, name="v")
    if np.shape(u) != np.shape(v):
        raise ValueError(f"u of shape {np.shape(u)} and v of shape {np.shape(v)} differ")
    return float(grid.h**2 * np.sum(u * v))


def _energy(t: np.ndarray, model: ModelParams, h: float) -> float:
    """h^2 * sum phi(t) over the strain magnitudes t = |Du|."""
    return float(h**2 * np.sum(phi(t, model)))


def energy(u: np.ndarray, model: ModelParams, grid: TorusGrid) -> float:
    """Discrete dissipated energy h^2 * sum phi(|Du|) of the (..., n, n, 2) field ``u``."""
    u = _check_axes(u, grid)
    return _energy(_strain(u, grid.h)[1], model, grid.h)


def _symbol_factors(grid: TorusGrid):
    """The grid-only factors of :func:`_spectral_preconditioner` on the half
    spectrum of ``rfft2``: s1, s2, s1**2, s2**2 and |s|^2, broadcastable."""
    s = stencil.symbol(grid.n, grid.h)
    s1, s2 = s[:, None], s[None, : grid.n // 2 + 1]
    s1sq, s2sq = s1**2, s2**2
    return s1, s2, s1sq, s2sq, s1sq + s2sq


def _spectral_preconditioner(symbol, dt: float, gbar: float):
    """Inverse of the constant-coefficient Hessian v -> v/dt - gbar div D v,
    computed mode by mode, on planar (2, n, n) fields, from the factors
    ``symbol`` of :func:`_symbol_factors`.

    Centered differences act diagonally in Fourier space with the real symbol
    s_j = sin(k_j h)/h.  dt times the operator has the per-mode 2x2 block
    a I + c s s^T, with c = dt*gbar/2 and a = 1 + c|s|^2, whose closed-form
    inverse is I/a - w s s^T with w = c/(a (a + c|s|^2)); its three distinct
    entries are computed once, when the preconditioner is built, and each
    apply multiplies the transformed-back field by dt.  The block is even in
    k, so it maps real fields to real fields and acts on the half spectrum of
    ``rfft2``.  For the linear model (constant coefficient) this is the
    exact inverse of the Newton operator, so CG converges in one iteration.
    """
    s1, s2, s1sq, s2sq, ssq = symbol
    n = s1.shape[0]
    c = 0.5 * dt * gbar
    a = 1.0 + c * ssq
    w = c / (a * (a + c * ssq))
    m11, m12, m22 = 1.0 / a - w * s1sq, -w * s1 * s2, 1.0 / a - w * s2sq

    def apply(v: np.ndarray) -> np.ndarray:
        # one transform pair for both component planes.  No ``out=`` on the
        # transforms: numpy < 2.0 lacks it, and on numpy 2.4.6
        # ``np.fft.irfft2(..., out=)`` is wrong: it returns a fresh array and
        # never writes ``out``, so ``out`` keeps what it held (an ``np.empty``
        # buffer differed from the result by 4.7 to 1.3e4 on unit-normal
        # (2, 256, 256) data)
        vhat = np.fft.rfft2(v)
        first = m11 * vhat[0]
        first += m12 * vhat[1]
        vhat[1] *= m22  # m12 v1 + m22 v2 in place: the products commute bit for bit
        vhat[1] += m12 * vhat[0]
        vhat[0] = first
        z = np.fft.irfft2(vhat, s=(n, n))
        z *= dt
        return z

    return apply


MAX_NEWTON = 50      # Newton iterations per step before SolverFailureError
PREDICTOR_ORDER = 4  # solve's predictor: order of the extrapolation of past states
TOL_FACTOR = 1e-10   # residual tolerance relative to 1 + |u_prev|_inf
ETA_MAX = 0.1        # forcing term (module docstring): eta_0 and the ceiling of eta_k
ETA_GAMMA = 0.9      # forcing term: factor and power of the residual-norm ratio
ETA_ALPHA = 2.0
CG_RTOL = 1e-12      # CG stops once |r| < max(CG_RTOL |b|, atol)
CG_MAXITER = 600     # CG iterations per linear solve before SolverFailureError
_DOT_SLICE = 8192    # entries per BLAS inner product; OpenBLAS runs this few on one thread


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """``np.vdot(a, b)``, summed in order over slices of at most ``_DOT_SLICE`` entries.

    One slice is exactly ``np.vdot``.  A longer product done in one call would
    be split over the BLAS threads, and its rounding would then depend on
    their number; slice by slice it is the same at any thread count.
    """
    a, b = a.ravel(), b.ravel()
    total = np.vdot(a[:_DOT_SLICE], b[:_DOT_SLICE])
    for i in range(_DOT_SLICE, a.size, _DOT_SLICE):
        total += np.vdot(a[i:i + _DOT_SLICE], b[i:i + _DOT_SLICE])
    return total


def cg(matvec, b: np.ndarray, *, precond, atol: float, callback=None, _work=None):
    """Preconditioned conjugate gradients for ``matvec(x) = b`` from x0 = 0.

    Saad, *Iterative Methods for Sparse Linear Systems*, 2nd ed., Alg. 9.1:
    ``matvec`` must be symmetric positive definite and ``precond`` an SPD
    approximation of its inverse that returns a fresh array, which then
    serves as the iteration's scratch.  Arrays may have any shape; inner
    products and norms run over all entries.  The iteration stops when
    ``|r| < max(CG_RTOL |b|, atol)``, tested before each iteration, and
    ``callback(x)`` is called after each one.  The operations and their order
    are those of the library PCG that the tests take as reference.  Its inner
    products and norms are one BLAS call each; here they are :func:`_dot`,
    the same call on at most ``_DOT_SLICE`` entries, where the iterates equal
    the reference's bit for bit, and an in-order sum of slices beyond, where
    they do not depend on the BLAS thread count.  Returns ``(x, 0)`` on
    convergence and ``(x, CG_MAXITER)`` when the iteration budget runs out.
    ``_work``, private to :func:`step`, holds three arrays of ``b``'s shape
    for x, r and p; x is then returned in its buffer.
    """
    bnorm = np.sqrt(_dot(b, b))
    atol = max(float(atol), CG_RTOL * float(bnorm))
    if bnorm == 0:
        return b.copy(), 0
    x, r, p = (np.empty_like(b) for _ in range(3)) if _work is None else _work
    x.fill(0.0)
    np.copyto(r, b)
    for it in range(CG_MAXITER):
        if np.sqrt(_dot(r, r)) < atol:
            return x, 0
        z = precond(r)
        rho = _dot(r, z)
        if it == 0:
            np.copyto(p, z)
        else:
            p *= rho / rho_prev
            p += z
        q = matvec(p)
        alpha = rho / _dot(p, q)
        x += np.multiply(alpha, p, out=z)  # z is spent: it holds the products
        r -= np.multiply(alpha, q, out=z)
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
    """What one :func:`step` reports besides its result.

    ``newton_iterations`` counts Newton iterations, ``cg_iterations`` Hessian
    actions (one per CG iteration), ``residual`` is the larger of the sup and
    grid-L^2 norms of the returned state's residual, and ``energy`` is
    ``h^2 * sum phi(|Du|)`` of the returned state, computed from the ``|Du|``
    of its last residual evaluation: bit for bit :func:`energy` of the result.
    ``residual_evaluations`` counts the evaluations of the residual: one at the
    start, and j + 1 for each Newton update that the line search damped by
    2**-j, so it exceeds ``newton_iterations + 1`` by the damping halvings.
    """

    newton_iterations: int
    residual: float
    cg_iterations: int
    energy: float
    residual_evaluations: int


class _Workspace:
    """The buffers of :func:`step` and its :func:`cg`, allocated once per solve.

    Vectors are planar, (2, n, n).  ``u_prev`` is the previous state and
    ``u`` the Newton iterate: the start of a step, then its accepted result;
    ``trial`` is the line search's trial, and after a step the scratch in
    which the predictor is built (:meth:`advance`).  ``state`` holds the planes
    (e11, e12, e22) of the current Du and then |Du|, ``flux`` the planes of
    the stress or of the Hessian action's tensor and then Q:H.  One residual
    state lives here, so each line-search trial overwrites the last; the
    state of the iterate is dead once its linear system is solved.  The
    preconditioner's grid-only symbol factors are built here too, and
    ``blocks`` keeps the last step's ``(dt, gbar)`` with the preconditioner
    built from them.
    """

    def __init__(self, grid: TorusGrid):
        n = grid.n
        self.u_prev, self.u, self.trial, self.r, self.action, self.work = np.empty((6, 2, n, n))
        self.state, self.flux = np.empty((2, 4, n, n))
        self.cg = tuple(np.empty((3, 2, n, n)))  # x, r and p of cg
        self.symbol = _symbol_factors(grid)
        self.blocks = None

    def load(self, u_prev: np.ndarray, guess: np.ndarray | None = None) -> None:
        """Start a step from the (n, n, 2) states ``u_prev`` and ``guess`` (``u_prev``
        when None), transposed into ``u_prev`` and ``u``."""
        np.copyto(self.u_prev, np.moveaxis(u_prev, -1, 0))
        np.copyto(self.u, self.u_prev if guess is None else np.moveaxis(guess, -1, 0))

    def advance(self, past: np.ndarray) -> None:
        """Start the next step after an accepted one: ``u`` becomes ``u_prev``, and
        ``u`` the :func:`_predictor` of ``past``, the contiguous (m + 1, n, n, 2)
        states u_{k-m}, ..., u_k, the last of them the accepted one.  The
        predictor is built in ``trial``, read as one (n, n, 2) state, and copied
        plane by plane into the buffer of the old ``u_prev``."""
        guess = _predictor(past, out=self.trial.reshape(-1)).reshape(past.shape[1:])
        self.u_prev, self.u = self.u, self.u_prev
        for c in range(guess.shape[-1]):
            self.u[c] = guess[..., c]


def _predictor_order(model: ModelParams) -> int:
    """Order of :func:`solve`'s predictor: ``PREDICTOR_ORDER``, or 1 (the
    linear ``2 u_k - u_{k-1}``) for the linear model p = 2, whose steps take
    one Newton and one CG iteration from any start, so a longer
    extrapolation would only cost reads of past states."""
    return 1 if model.p == 2.0 else PREDICTOR_ORDER


def _predictor(past: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``sum_{j=0..m} (-1)^j C(m+1, j+1) u_{k-j}`` of the contiguous states
    ``past = (u_{k-m}, ..., u_k)``, flat (in ``out`` when given): the value at
    t_{k+1} of the polynomial of degree m in t through them.

    One BLAS product of the weights with the states, each read as one row,
    which reads the m + 1 states once and writes one.  Each entry is the sum
    of its m + 1 products in one order; OpenBLAS splits such a product over
    its threads by entries, not by sums, so the bits do not depend on the
    thread count (an n = 256 solve is byte-identical at one and two threads).
    """
    m = len(past) - 1
    weights = np.array([(-1) ** (m - i) * math.comb(m + 1, m + 1 - i) for i in range(m + 1)],
                       dtype=float)
    return np.dot(weights, past.reshape(m + 1, -1), out=out)


def _residual(u, u_prev, dt: float, model: ModelParams, h: float, ws: _Workspace):
    """``(e, t, g, r)`` at the planar ``u``: the planes of Du, |Du|,
    g = phi'(|Du|)/|Du| and the residual ``(u - u_prev)/dt - div(g Du)``.
    All but the fresh ``g`` are views of ``ws``.  Entry by entry the bits of
    :func:`sym_gradient`, ``tensor_models.stress`` and :func:`divergence`."""
    f, work = ws.flux, ws.work
    e, t = _strain_planes(u, h, ws.state, work[0])
    g = _phi_d_over_t(t, model)
    np.multiply(e, g, out=f[:3])
    _divergence_planes(f[0:2], f[1:3], h, ws.r, work)
    np.subtract(u, u_prev, out=work)
    work /= dt
    np.subtract(work, ws.r, out=ws.r)
    return e, t, g, ws.r


def _hessian_action(v, e, g, c2, dt: float, h: float, ws: _Workspace) -> np.ndarray:
    """``v/dt - div(g H + c2 (Q:H) Q)`` with H = Dv, Q the planes ``e`` and ``c2`` the
    rank-one coefficient at Q, for the planar ``v``; returns ``ws.action``.  Entry by
    entry the bits of :func:`sym_gradient`, ``tensor_models.stress_derivative_apply``
    and :func:`divergence`."""
    f, work = ws.flux, ws.work
    _sym_gradient_planes(v, h, f[0::3], f[1:3])
    qh = f[3]
    _plane_contraction(e, f[:3], qh, work[0])
    qh *= c2
    f[:3] *= g
    for k in range(3):
        f[k] += np.multiply(qh, e[k], out=work[0])
    _divergence_planes(f[0:2], f[1:3], h, ws.action, work)
    np.divide(v, dt, out=work)
    return np.subtract(work, ws.action, out=ws.action)


def step(u_prev: np.ndarray, dt: float, model: ModelParams, grid: TorusGrid,
         guess: np.ndarray | None = None, *, _work: _Workspace | None = None):
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
    (u_next, StepDiagnostics), u_next a fresh (n, n, 2) array.  ``u_prev`` and
    ``guess`` must be finite (n, n, 2) states of ``grid`` (``ValueError``).

    The preconditioner is built from the mean of ``g = phi'(|Du|)/|Du|`` at
    the guess.  The accepted trial's residual, Du, |Du| and g serve the next
    Newton iteration, and a Hessian action costs one gradient, one pointwise
    product and one divergence.  Inside, vectors are planar (2, n, n):
    ``u_prev`` and the guess are transposed on entry, and the result on exit.

    ``_work``, private to :func:`solve`, is the :class:`_Workspace` that its
    steps share.  The step then starts from the planar states the caller put
    in its ``u_prev`` and ``u`` (:meth:`_Workspace.load`,
    :meth:`_Workspace.advance`) and neither reads nor checks ``u_prev`` or
    ``guess``; it returns the planar result, the workspace's ``u``, which the
    next step on the workspace overwrites.  It reuses the workspace's preconditioner
    when ``(dt, gbar)`` is that of its last build.
    """
    require_finite("dt", dt, error=TimeStepError)
    ws = _work
    if ws is None:
        u_prev = _check_state("u_prev", u_prev, grid)
        if guess is not None:
            guess = _check_state("guess", guess, grid)
        ws = _Workspace(grid)
        ws.load(u_prev, guess)
    tol = TOL_FACTOR * (1.0 + float(np.max(np.abs(ws.u_prev))))
    l2_weight = grid.h  # sqrt(h^2) per sample
    u, trial = ws.u, ws.trial
    e, t, g, r = _residual(u, ws.u_prev, dt, model, grid.h, ws)
    key = (dt, float(np.mean(g)))
    if ws.blocks is None or ws.blocks[0] != key:
        ws.blocks = key, _spectral_preconditioner(ws.symbol, *key)
    actions, evaluations = 0, 1

    def matvec(v):  # reads the current g and c2
        nonlocal actions
        actions += 1
        return _hessian_action(v, e, g, c2, dt, grid.h, ws)

    history, eta, rsup = [], ETA_MAX, float(np.max(np.abs(r)))
    for it in range(MAX_NEWTON):
        rnorm = float(np.sqrt(np.sum(r**2)))
        history.append(rsup)
        worst = max(rsup, l2_weight * rnorm)
        if worst < tol:
            ws.u, ws.trial = u, trial
            diag = StepDiagnostics(newton_iterations=it, residual=worst, cg_iterations=actions,
                                   energy=_energy(t, model, grid.h),
                                   residual_evaluations=evaluations)
            return (u if _work is not None else np.moveaxis(u, 0, -1).copy()), diag
        if it:
            eta = _forcing_term(rnorm / rnorm_prev)
        rnorm_prev = rnorm
        c2 = _rank_one_coefficient(t, model)
        delta, info = cg(matvec, -r, precond=ws.blocks[1],
                         atol=max(1e-14 * (1.0 + rsup), eta * rnorm), _work=ws.cg)
        if info != 0:
            raise SolverFailureError("linear solver stalled inside Newton iteration",
                                     residual_history=history)
        for j in range(13):  # damping 2**-j; the last trial is taken whatever its residual
            np.multiply(delta, 0.5**j, out=trial)  # trial = u + 2**-j delta
            trial += u
            e, t, g, r = _residual(trial, ws.u_prev, dt, model, grid.h, ws)
            trial_sup = float(np.max(np.abs(r)))
            if trial_sup < rsup or j == 12:
                break
        evaluations += j + 1
        u, trial, rsup = trial, u, trial_sup
    raise SolverFailureError(
        f"Newton iteration did not reach tolerance {tol:.3e} in {MAX_NEWTON} steps",
        residual_history=history)


@dataclass
class Trajectory:
    """Time-indexed snapshots of the computed solution plus per-step diagnostics.

    ``snapshots`` are real, (n_steps + 1, n, n, 2) states of ``grid``, and
    ``dt`` is a finite positive number (``TimeStepError``).  Their entries are
    not checked here, which would take a pass over the whole trajectory:
    :func:`solve` and :func:`load_trajectory` make finite ones, and every
    reader of a snapshot (:func:`energy`, ``regularity_analyzer.restrict``)
    rejects a non-finite entry.
    """

    snapshots: np.ndarray          # (n_steps+1, n, n, 2)
    dt: float
    model: ModelParams
    grid: TorusGrid
    diagnostics: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.snapshots = real_array("snapshots", self.snapshots)
        state = (self.grid.n, self.grid.n, self.grid.d)
        if self.snapshots.ndim != 4 or self.snapshots.shape[1:] != state or not len(self.snapshots):
            raise ValueError(f"snapshots of shape {self.snapshots.shape} are not "
                             f"(n_steps + 1, {', '.join(map(str, state))}) states of the grid")
        require_finite("time step dt", self.dt, error=TimeStepError)

    @property
    def n_steps(self) -> int:
        return self.snapshots.shape[0] - 1

    @property
    def t_final(self) -> float:
        return self.n_steps * self.dt

    def energies(self) -> np.ndarray:
        """Discrete energy of every snapshot, n_steps + 1 values, bit for bit :func:`energy`.

        When the diagnostics cover every step, as those of :func:`solve` and
        of a failed solve's ``partial`` do, the energies after step 0 are the
        recorded :attr:`StepDiagnostics.energy` and only the initial snapshot
        is evaluated.  Otherwise, as for loaded trajectories, which carry no
        diagnostics, every snapshot is.
        """
        if len(self.diagnostics) == self.n_steps:
            first = energy(self.snapshots[0], self.model, self.grid)
            return np.array([first] + [diag.energy for diag in self.diagnostics])
        return np.array([energy(u, self.model, self.grid) for u in self.snapshots])


def _require_finite_data(u: np.ndarray, model: ModelParams, grid: TorusGrid) -> None:
    """Raise ``ValueError`` unless the energy and the stress of the state ``u`` are finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is what is checked
        e, t = _strain(u, grid.h)
        # |Du| itself can overflow to inf or NaN, which phi rejects
        finite = (np.isfinite(t).all() and math.isfinite(_energy(t, model, grid.h))
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
    diagnostics, work, order = [], _Workspace(grid), _predictor_order(model)
    work.load(u0.data)
    for k in range(n_steps):
        if k:  # from the extrapolation of the last min(order, k) + 1 states
            work.advance(snapshots[max(k - order, 0): k + 1])
        try:
            u_next, diag = step(snapshots[k], dt, model, grid, _work=work)
        except SolverFailureError as exc:
            exc.step_index = k
            exc.partial = Trajectory(snapshots[: k + 1].copy(), dt, model, grid,
                                     diagnostics, dict(meta or {}, failed_at_step=k))
            raise
        # plane by plane: at n = 256 on numpy 2.4.6 this took 0.1 ms, and copying
        # the whole transposed view 0.5 ms
        for c in range(grid.d):
            snapshots[k + 1, ..., c] = u_next[c]
        diagnostics.append(diag)
    return Trajectory(snapshots, dt, model, grid, diagnostics, dict(meta or {}))


def initial_condition(tag: str, grid: TorusGrid, seed: int = 0, cutoff: int = 3,
                      amplitude: float = 1.0) -> SpatialField:
    """Built-in initial data, scaled by the finite number ``amplitude``; ``seed``
    is a non-negative integer.

    ``eigenfield``     divergence-free trigonometric field; for the linear
                       model it decays exactly exponentially, and on the grid
                       it is an exact eigenfield of the discrete operator.
    ``random_smooth``  seeded band-limited random field (modes up to
                       ``cutoff``, an integer in [1, n/2 - 1]), normalized
                       to the requested amplitude.
    ``kink``           periodic triangle-wave profile whose symmetrized
                       gradient jumps across two lines; probes how rough an
                       initial state the implicit stepping tolerates.

    ``random_smooth`` is the trigonometric polynomial
    ``sum_k a_k cos(k . x + theta_k)`` per component over the modes
    ``0 < |k|_inf <= cutoff``, with ``a_k = N(0, 1) / (1 + |k|^2)`` and
    ``theta_k`` uniform on [0, 2 pi).  Each mode draws its two phases, then
    its two amplitudes, with k1 and then k2 running from -cutoff to cutoff.
    The sum is the real part of one inverse FFT of the spectrum
    ``a_k exp(i theta_k)`` placed at ``k mod n``, taken unnormalized
    (``norm="forward"``), which differs from the cosine sum by rounding only.
    """
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    require_finite("amplitude", amplitude, at_least=-math.inf)
    if tag == "eigenfield":
        x1, x2 = grid.coordinates()
        data = amplitude * np.stack([np.sin(x1) * np.cos(x2), -np.cos(x1) * np.sin(x2)], axis=-1)
    elif tag == "random_smooth":
        # modes n/2 feed the kernel of sym_gradient
        if not isinstance(cutoff, numbers.Integral) or not 1 <= cutoff <= grid.n // 2 - 1:
            raise ValueError(f"cutoff must be an integer in [1, n/2 - 1] = [1, {grid.n // 2 - 1}] "
                             f"at n = {grid.n}, got {cutoff!r}")
        rng = np.random.default_rng(seed)
        spectrum = np.zeros((grid.n, grid.n, 2), dtype=complex)
        for k1 in range(-cutoff, cutoff + 1):
            for k2 in range(-cutoff, cutoff + 1):
                if k1 == 0 and k2 == 0:
                    continue
                phase = rng.uniform(0.0, 2.0 * math.pi, size=2)
                amp = rng.normal(size=2) / (1.0 + k1**2 + k2**2)
                spectrum[k1, k2] = amp * np.exp(1j * phase)  # negative k wrap to k mod n
        data = np.ascontiguousarray(np.fft.ifft2(spectrum, axes=(0, 1), norm="forward").real)
        data *= amplitude / max(np.max(np.abs(data)), 1e-30)
    elif tag == "kink":
        x1 = grid.coordinates()[0]
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
    header, when a header count (n, d, step count) is not an integer, when
    the header's n is not a ``TorusGrid`` size or its d is not the grid's
    two components, when the header's dt is not a finite positive number, when a
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
        n, d, dt, steps = map(float, header)
        for name, count in (("n", n), ("d", d), ("steps", steps)):
            if not count.is_integer():
                raise TrajectoryFormatError(f"{path}: header {name} = {count!r} is not an integer")
        n, d, steps = int(n), int(d), int(steps)
        require_finite(f"{path}: header dt", dt, error=TrajectoryFormatError)
        try:
            grid = TorusGrid(n)
        except ValueError as exc:
            raise TrajectoryFormatError(f"{path}: header n = {n}: {exc}") from None
        if d != grid.d:
            raise TrajectoryFormatError(
                f"{path}: header d = {d}, but a torus snapshot has {grid.d} components")
        expected = header_bytes + 8 * (steps + 1) * n * n * d
        if steps < 0 or size != expected:
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
    return Trajectory(data, dt, model, grid, [], meta)
