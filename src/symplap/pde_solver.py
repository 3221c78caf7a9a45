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
definite (solved by conjugate gradients with a constant-coefficient spectral
preconditioner).

Field layout: vector fields are arrays of shape (n, n, 2) -- spatial axes
first, component last -- and tensor fields (n, n, 2, 2), so the pointwise
tensor algebra applies along trailing axes without reshuffling.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg

from . import stencil
from .errors import SolverFailureError, TrajectoryFormatError
from .function_spaces import SpaceGeometry
from .tensor_models import (ModelParams, _phi_d_over_t, frob, phi, stress,
                            stress_derivative_apply, sym)

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
    return sym(stencil.gradient(u, grid.h, (-3, -2)))


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
    s_j = sin(k_j h)/h; the per-mode 2x2 block (1 + c|s|^2) I + c s s^T
    inverts in closed form.  For the linear model (constant coefficient) this
    preconditioner is the exact inverse, so CG converges in one iteration.
    """
    s = stencil.symbol(grid.n, grid.h)
    s1, s2 = s[:, None], s[None, :]
    c = 0.5 * dt * gbar
    ssq = s1**2 + s2**2
    a = 1.0 + c * ssq

    def apply(v: np.ndarray) -> np.ndarray:
        vhat = np.fft.fft2(v, axes=(0, 1))
        sv = s1 * vhat[..., 0] + s2 * vhat[..., 1]
        factor = c * sv / (a + c * ssq)
        out = np.empty_like(vhat)
        out[..., 0] = (vhat[..., 0] - factor * s1) / a
        out[..., 1] = (vhat[..., 1] - factor * s2) / a
        return np.real(np.fft.ifft2(out, axes=(0, 1)))

    return apply


@dataclass
class StepDiagnostics:
    newton_iterations: int
    residual: float


def step(u_prev: np.ndarray, dt: float, model: ModelParams, grid: TorusGrid,
         max_newton: int = 50, tol_factor: float = 1e-10):
    """One backward-Euler step: solve (u - u_prev)/dt = div stress(Du).

    Newton iteration on the divided-difference residual with the exact energy
    Hessian; each linear system is solved by preconditioned CG.  Convergence
    requires both the sup and the L^2 norm of the residual below
    ``tol_factor * (1 + |u_prev|_inf)``, so the forcing measured along a
    trajectory vanishes at solver precision in either norm.  Damps the update
    by halving while the residual fails to decrease; raises
    SolverFailureError (with the residual history attached) if the tolerance
    is not met within ``max_newton`` iterations.  Returns
    (u_next, StepDiagnostics).
    """
    if dt <= 0:
        raise ValueError("time step must be positive")
    tol = tol_factor * (1.0 + float(np.max(np.abs(u_prev))))
    shape = u_prev.shape
    l2_weight = grid.h  # sqrt(h^2) per sample

    def residual(u):
        return (u - u_prev) / dt - divergence(stress(sym_gradient(u, grid), model), grid)

    def norms(r):
        return float(np.max(np.abs(r))), l2_weight * float(np.sqrt(np.sum(r**2)))

    precond = None
    u = u_prev.copy()
    history = []
    for it in range(max_newton):
        r = residual(u)
        rsup, rl2 = norms(r)
        history.append(rsup)
        if max(rsup, rl2) < tol:
            return u, StepDiagnostics(newton_iterations=it, residual=max(rsup, rl2))
        du = sym_gradient(u, grid)
        if precond is None:
            gbar = float(np.mean(_phi_d_over_t(frob(du), model)))
            apply_m = _spectral_preconditioner(grid, dt, gbar)
            precond = LinearOperator((u.size, u.size),
                                     matvec=lambda v: dt * apply_m(v.reshape(shape)).ravel())

        def matvec(v):
            vf = v.reshape(shape)
            jac = stress_derivative_apply(du, sym_gradient(vf, grid), model)
            return (vf / dt - divergence(jac, grid)).ravel()

        op = LinearOperator((u.size, u.size), matvec=matvec)
        delta, info = cg(op, -r.ravel(), rtol=1e-12, atol=1e-14 * (1.0 + rsup),
                         maxiter=600, M=precond)
        if info != 0:
            raise SolverFailureError("linear solver stalled inside Newton iteration",
                                     residual_history=history)
        delta = delta.reshape(shape)
        s = 1.0
        for _ in range(12):
            trial = u + s * delta
            if float(np.max(np.abs(residual(trial)))) < rsup:
                break
            s *= 0.5
        u = u + s * delta
    raise SolverFailureError(
        f"Newton iteration did not reach tolerance {tol:.3e} in {max_newton} steps",
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
        try:
            snapshots[k + 1], diag = step(snapshots[k], dt, model, grid)
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
