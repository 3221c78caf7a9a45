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
forcing term, choice 2 -- ``eta_0 = 0.1``, ``eta_k = min(0.1, 0.9
(|r_k| / |r_{k-1}|)^2)`` and the standard safeguard (Eisenstat and Walker,
SIAM J. Sci. Comput. 17, 1996; Knoll and Keyes, J. Comput. Phys. 193,
2004).  :func:`solve` starts every step after the first from the linear
predictor ``2 u_k - u_{k-1}``.  Neither changes what a step returns beyond
the Newton tolerance: the sup + L^2 stopping rule is the same.

Field layout: vector fields are arrays of shape (n, n, 2) -- spatial axes
first, component last -- and tensor fields (n, n, 2, 2), so the pointwise
tensor algebra applies along trailing axes without reshuffling.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import stencil
from .errors import SolverFailureError, TrajectoryFormatError
from .function_spaces import SpaceGeometry
from .tensor_models import (ModelParams, _symmetrize, frob, hessian_coefficients, phi,
                            stress, stress_derivative_apply)

__all__ = [
    "TorusGrid", "SpatialField", "Trajectory", "StepDiagnostics",
    "sym_gradient", "divergence", "energy", "step", "solve",
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

    @classmethod
    def zero(cls, grid: TorusGrid) -> "SpatialField":
        return cls(np.zeros((grid.n, grid.n, grid.d)), grid)


def sym_gradient(u: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Symmetrized gradient (d_j u_i + d_i u_j)/2: (..., n, n, 2) -> (..., n, n, 2, 2)."""
    return _symmetrize(stencil.gradient(u, grid.h, (-3, -2)))


def divergence(t_field: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Row-wise divergence of a tensor field: (div T)_i = sum_j d_j T_ij.

    Accepts leading axes, (..., n, n, 2, 2) -> (..., n, n, 2); exactly minus
    the adjoint of ``sym_gradient`` (periodic centered differences telescope).
    """
    out, term = np.zeros(t_field.shape[:-1]), np.empty(t_field.shape[:-1])
    out += stencil.difference(t_field[..., 0], -3, grid.h, term)
    out += stencil.difference(t_field[..., 1], -2, grid.h, term)
    return out


def inner(u: np.ndarray, v: np.ndarray, grid: TorusGrid) -> float:
    """Grid inner product h^2 sum over points and components."""
    return float(grid.h**2 * np.sum(u * v))


def energy(u: np.ndarray, model: ModelParams, grid: TorusGrid) -> float:
    """Discrete dissipated energy h^2 * sum phi(|Du|)."""
    return float(grid.h**2 * np.sum(phi(frob(sym_gradient(u, grid)), model)))


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
        vhat = np.fft.rfft2(v, axes=(0, 1))
        out = np.empty_like(vhat)
        out[..., 0] = m11 * vhat[..., 0] + m12 * vhat[..., 1]
        out[..., 1] = m12 * vhat[..., 0] + m22 * vhat[..., 1]
        return np.fft.irfft2(out, s=(n, n), axes=(0, 1))

    return apply


MAX_NEWTON = 50      # Newton iterations per step before SolverFailureError
TOL_FACTOR = 1e-10   # residual tolerance relative to 1 + |u_prev|_inf
ETA_MAX = 0.1        # Eisenstat-Walker choice 2: eta_0 and the ceiling of eta_k
ETA_GAMMA = 0.9      # eta_k = min(ETA_MAX, ETA_GAMMA (|r_k| / |r_{k-1}|)^ETA_ALPHA)
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


def _forcing_term(eta_prev: float, ratio: float) -> float:
    """Eisenstat-Walker forcing term, choice 2, for a residual-norm ratio |r_k| / |r_{k-1}|.

    ``eta_k = min(ETA_MAX, ETA_GAMMA ratio^ETA_ALPHA)``, raised to
    ``ETA_GAMMA eta_{k-1}^ETA_ALPHA`` when that exceeds 0.1 -- the safeguard
    against a forcing term that falls faster than the residual (Eisenstat and
    Walker, SIAM J. Sci. Comput. 17, 1996, Sec. 2).  With ``ETA_MAX = 0.1``
    every eta_{k-1} the solver produces keeps the safeguard at 0.009 or less,
    so it acts only on a larger ``eta_prev``.
    """
    eta = min(ETA_MAX, ETA_GAMMA * ratio**ETA_ALPHA)
    safeguard = ETA_GAMMA * eta_prev**ETA_ALPHA
    return max(eta, safeguard) if safeguard > 0.1 else eta


@dataclass
class StepDiagnostics:
    newton_iterations: int
    residual: float
    cg_iterations: int


def step(u_prev: np.ndarray, dt: float, model: ModelParams, grid: TorusGrid,
         guess: np.ndarray | None = None):
    """One backward-Euler step: solve (u - u_prev)/dt = div stress(Du).

    Inexact Newton iteration on the divided-difference residual with the
    exact energy Hessian, started from ``guess`` (``u_prev`` when None).  The
    k-th linear system is solved by preconditioned CG only until its residual
    is below ``eta_k |r_k|`` (Euclidean norms of the residual arrays, and never
    below ``1e-14 (1 + |r_k|_inf)``), with the Eisenstat-Walker forcing term,
    choice 2: ``eta_0 = ETA_MAX`` and ``eta_k`` from :func:`_forcing_term`
    (Eisenstat and Walker, SIAM J. Sci. Comput. 17, 1996; Knoll and Keyes,
    J. Comput. Phys. 193, 2004).  Convergence requires both the sup and the
    L^2 norm of the residual below ``TOL_FACTOR * (1 + |u_prev|_inf)``, so the
    forcing measured along a trajectory vanishes at solver precision in
    either norm however loosely the linear systems were solved.  Damps the
    update by halving while the residual fails to decrease; raises
    SolverFailureError (with the residual history attached) if the tolerance
    is not met within ``MAX_NEWTON`` iterations.  Returns
    (u_next, StepDiagnostics); its ``cg_iterations`` counts Hessian actions,
    one per CG iteration.

    The residual and symmetric gradient of the accepted line-search trial are
    carried into the next Newton iteration rather than evaluated again, and
    the Hessian coefficients are evaluated once per Newton iteration, so a
    Hessian action costs one gradient, one pointwise product and one
    divergence.
    """
    if dt <= 0:
        raise ValueError("time step must be positive")
    tol = TOL_FACTOR * (1.0 + float(np.max(np.abs(u_prev))))
    l2_weight = grid.h  # sqrt(h^2) per sample

    def residual(u):
        du = sym_gradient(u, grid)
        return du, (u - u_prev) / dt - divergence(stress(du, model), grid)

    precond, actions = None, 0
    u = u_prev.copy() if guess is None else guess  # never written in place
    du, r = residual(u)
    history, eta = [], ETA_MAX
    for it in range(MAX_NEWTON):
        rsup, rnorm = float(np.max(np.abs(r))), float(np.sqrt(np.sum(r**2)))
        history.append(rsup)
        worst = max(rsup, l2_weight * rnorm)
        if worst < tol:
            return u, StepDiagnostics(newton_iterations=it, residual=worst, cg_iterations=actions)
        if it:
            eta = _forcing_term(eta, rnorm / rnorm_prev)
        rnorm_prev = rnorm
        coefficients = hessian_coefficients(du, model)
        if precond is None:
            apply_m = _spectral_preconditioner(grid, dt, float(np.mean(coefficients[0])))

            def precond(v):
                return dt * apply_m(v)

        def matvec(v):
            nonlocal actions
            actions += 1
            jac = stress_derivative_apply(du, sym_gradient(v, grid), coefficients)
            return v / dt - divergence(jac, grid)

        delta, info = cg(matvec, -r, precond=precond,
                         atol=max(1e-14 * (1.0 + rsup), eta * rnorm))
        if info != 0:
            raise SolverFailureError("linear solver stalled inside Newton iteration",
                                     residual_history=history)
        s = 1.0
        for _ in range(12):
            trial = u + s * delta
            trial_du, trial_r = residual(trial)
            if float(np.max(np.abs(trial_r))) < rsup:
                u, du, r = trial, trial_du, trial_r
                break
            s *= 0.5
        else:  # no halving decreased the residual: take the smallest, not yet evaluated
            u = u + s * delta
            du, r = residual(u)
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

    def component_means(self) -> np.ndarray:
        return np.mean(self.snapshots, axis=(1, 2))


def solve(u0: SpatialField, t_final: float, dt: float, model: ModelParams,
          meta: dict | None = None) -> Trajectory:
    """March the implicit scheme from u0 to t_final (must be a multiple of dt).

    On a step failure the partially computed trajectory is attached to the
    raised SolverFailureError as ``partial`` together with the failing index.
    """
    n_steps = t_final / dt
    if abs(n_steps - round(n_steps)) > 1e-9:
        raise ValueError("t_final must be an integer multiple of dt")
    n_steps = round(n_steps)
    grid = u0.grid
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
                       ``cutoff``), normalized to the requested amplitude.
    ``kink``           periodic triangle-wave profile whose symmetrized
                       gradient jumps across two lines; probes how rough an
                       initial state the implicit stepping tolerates.
    """
    x1, x2 = grid.coordinates()
    if tag == "eigenfield":
        data = amplitude * np.stack([np.sin(x1) * np.cos(x2), -np.cos(x1) * np.sin(x2)], axis=-1)
    elif tag == "random_smooth":
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
        fh.write(np.ascontiguousarray(traj.snapshots, dtype="<f8").tobytes())
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
    header, or when the ``<path>.meta`` sidecar is missing or lacks the model
    parameters (``model``, ``p``, ``mu``).
    """
    header_bytes = 8 * _HEADER_COUNT
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < header_bytes:
            raise TrajectoryFormatError(
                f"{path}: {size} bytes, shorter than the {header_bytes}-byte header")
        header = np.frombuffer(fh.read(header_bytes), dtype="<f8")
        n, d, dt, steps = int(header[0]), int(header[1]), float(header[2]), int(header[3])
        expected = header_bytes + 8 * (steps + 1) * n * n * d
        if min(n, d, steps + 1) < 1 or size != expected:
            raise TrajectoryFormatError(
                f"{path}: {size} bytes, but its header (n = {n}, d = {d}, steps = {steps}) "
                f"needs {expected}")
        data = np.frombuffer(fh.read(), dtype="<f8").reshape(steps + 1, n, n, d).copy()
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
