"""Implicit solver: discrete calculus, Newton convergence, dissipation, persistence."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
import symplap.pde_solver as ps
import symplap.tensor_models as tm
from symplap.baselines import NEWTON_ITER_BASELINE
from symplap.errors import SolverFailureError, TimeStepError, TrajectoryFormatError

LINEAR = tm.ModelParams(p=2, mu=1.0, model="A2")
P3 = tm.ModelParams(p=3, mu=1.0, model="A2")


@pytest.fixture(scope="module")
def grid32():
    return ps.TorusGrid(32)


def rand_field(grid, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * rng.normal(size=(grid.n, grid.n, 2))


def rand_sym_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    t = rng.normal(size=(grid.n, grid.n, 2, 2))
    return 0.5 * (t + np.swapaxes(t, -1, -2))


class TestGrid:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ps.TorusGrid(12)
        with pytest.raises(ValueError):
            ps.TorusGrid(4)
        with pytest.raises(ValueError, match="grid size n must be an integer"):
            ps.TorusGrid(16.0)
        assert ps.TorusGrid(8).h == pytest.approx(math.pi / 4)

    def test_field_validation(self, grid32):
        with pytest.raises(ValueError):
            ps.SpatialField(np.zeros((16, 16, 2)), grid32)
        with pytest.raises(ValueError):
            ps.SpatialField(np.full((32, 32, 2), np.nan), grid32)


class TestEntryPointShapes:
    GRID = ps.TorusGrid(8)
    U = ps.initial_condition("eigenfield", GRID).data

    @pytest.mark.parametrize("u_prev, guess, match", [
        (np.zeros((8, 8, 3)), None, r"^u_prev shape \(8, 8, 3\) does not match grid \(8, 8, 2\)$"),
        (np.zeros((2, 8, 8, 2)), None, r"^u_prev shape \(2, 8, 8, 2\) does not match grid"),
        (U, ps.initial_condition("eigenfield", ps.TorusGrid(16)).data,
         r"^guess shape \(16, 16, 2\) does not match grid \(8, 8, 2\)$"),
        (np.where(U > 0.5, np.nan, U), None, "^u_prev entries must be finite$"),
        (U, np.where(U > 0.5, np.inf, U), "^guess entries must be finite$"),
    ])
    def test_lone_step_checks_its_states(self, u_prev, guess, match):
        with pytest.raises(ValueError, match=match):
            ps.step(u_prev, 1e-2, P3, self.GRID, guess)

    @pytest.mark.parametrize("shape", [(16, 16, 2), (8, 8, 3), (8, 8), (8, 16, 2)])
    def test_sym_gradient_and_energy_check_the_grid_axes(self, shape):
        with pytest.raises(ValueError, match=rf"^u of shape {re.escape(str(shape))} does not end in"):
            ps.sym_gradient(np.zeros(shape), self.GRID)
        with pytest.raises(ValueError, match=rf"^u of shape {re.escape(str(shape))} does not end in"):
            ps.energy(np.zeros(shape), P3, self.GRID)

    @pytest.mark.parametrize("call, name", [
        (lambda u, g: ps.sym_gradient(u, g), "u"),
        (lambda u, g: ps.energy(u, P3, g), "u"),
        (lambda u, g: ps.divergence(np.stack([u, u], axis=-1), g), "t_field"),
        (lambda u, g: ps.inner(u.real, u, g), "v"),
    ], ids=["sym_gradient", "energy", "divergence", "inner"])
    def test_complex_fields_are_rejected_by_name(self, call, name):
        with pytest.raises(TypeError, match=f"^{name} must hold real numbers, got complex data$"):
            call(self.U + 1j, self.GRID)

    def test_sym_gradient_takes_a_box_and_energy_does_not(self):
        # the analyzer differences periodic boxes of the grid (stencil.periodic_box)
        box = self.U[np.ix_(range(2, 7), range(0, 3))]
        assert ps.sym_gradient(np.stack([box, box]), self.GRID).shape == (2, 5, 3, 2, 2)
        with pytest.raises(ValueError, match=r"^u of shape \(5, 3, 2\) does not end in the axes \(n, n, 2\)"):
            ps.energy(box, P3, self.GRID)

    @pytest.mark.parametrize("shape", [(16, 16, 2, 2), (8, 8, 3, 3), (8, 8, 2), (8, 8, 2, 3)])
    def test_divergence_checks_the_grid_axes(self, shape):
        # a 16-grid field once returned a 16-grid result with the 8-grid's h
        with pytest.raises(ValueError, match=rf"^t_field of shape {re.escape(str(shape))} "
                                             r"does not end in the axes \(n, n, 2, 2\)"):
            ps.divergence(np.zeros(shape), self.GRID)

    @pytest.mark.parametrize("u_shape, v_shape, match", [
        ((8, 8, 2), (16, 16, 2), r"^v of shape \(16, 16, 2\) does not end in the axes \(n, n, 2\)"),
        ((8, 8, 3), (8, 8, 3), r"^u of shape \(8, 8, 3\) does not end in the axes \(n, n, 2\)"),
        ((8, 8, 2), (2, 8, 8, 2), r"^u of shape \(8, 8, 2\) and v of shape \(2, 8, 8, 2\) differ$"),
    ])
    def test_inner_checks_both_fields(self, u_shape, v_shape, match):
        with pytest.raises(ValueError, match=match):
            ps.inner(np.zeros(u_shape), np.zeros(v_shape), self.GRID)


class TestDiscreteCalculus:
    def test_constant_field_has_zero_gradient(self, grid32):
        u = np.ones((32, 32, 2))
        assert np.all(ps.sym_gradient(u, grid32) == 0.0)

    def test_sym_gradient_off_diagonal(self, grid32):
        # u = (sin x2, 0): Du_12 = Du_21 = cos(x2)/2 up to O(h^2)
        x1, x2 = grid32.coordinates()
        u = np.stack([np.sin(x2), np.zeros_like(x2)], axis=-1)
        du = ps.sym_gradient(u, grid32)
        expect = 0.5 * np.cos(x2)
        h = grid32.h
        assert np.max(np.abs(du[..., 0, 1] - expect)) < h**2
        assert np.array_equal(du[..., 0, 1], du[..., 1, 0])
        assert np.max(np.abs(du[..., 0, 0])) < 1e-14

    def test_sym_gradient_diagonal(self, grid32):
        x1, _ = grid32.coordinates()
        u = np.stack([np.sin(x1), np.zeros_like(x1)], axis=-1)
        du = ps.sym_gradient(u, grid32)
        assert np.max(np.abs(du[..., 0, 0] - np.cos(x1))) < grid32.h**2

    def test_divergence_of_constant_tensor(self, grid32):
        t = np.ones((32, 32, 2, 2))
        assert np.all(ps.divergence(t, grid32) == 0.0)

    def test_summation_by_parts_duality(self, grid32):
        # <div T, v> = -<T, Dv> to 1e-10 relative on random fields
        for seed in range(5):
            t = rand_sym_field(grid32, seed)
            v = rand_field(grid32, seed + 100)
            lhs = ps.inner(ps.divergence(t, grid32), v, grid32)
            rhs = -float(grid32.h**2 * np.sum(t * ps.sym_gradient(v, grid32)))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_linear_stress_divergence_is_half_laplacian(self, grid32):
        # divergence-free trigonometric field: div stress(Du) = -lambda_h u
        # exactly on the grid, and -u up to O(h^2)
        u0 = ps.initial_condition("eigenfield", grid32)
        div_t = ps.divergence(tm.stress(ps.sym_gradient(u0.data, grid32), LINEAR), grid32)
        lam = (math.sin(grid32.h) / grid32.h) ** 2
        assert np.max(np.abs(div_t + lam * u0.data)) < 1e-13
        assert np.max(np.abs(div_t + u0.data)) < grid32.h**2

    def test_divergence_has_zero_mean(self, grid32):
        t = rand_sym_field(grid32, 7)
        div = ps.divergence(t, grid32)
        assert abs(np.sum(div)) < 1e-10 * np.sum(np.abs(div))


class TestStep:
    def test_constant_is_fixed_point(self, grid32):
        u = np.full((32, 32, 2), 1.7)
        out, diag = ps.step(u, 0.1, P3, grid32)
        assert np.array_equal(out, u)
        assert diag.newton_iterations == 0

    def test_linear_eigenfield_step_exact(self, grid32):
        # discrete operator has exact eigenvalue (sin h / h)^2 on this field
        u0 = ps.initial_condition("eigenfield", grid32).data
        dt = 1e-3
        lam = (math.sin(grid32.h) / grid32.h) ** 2
        out, diag = ps.step(u0, dt, LINEAR, grid32)
        tol = 1e-10 * (1.0 + np.max(np.abs(u0)))
        assert np.max(np.abs(out - u0 / (1.0 + lam * dt))) < tol
        # continuum decay factor agrees to the discretization error O(dt h^2)
        assert np.max(np.abs(out - u0 / (1.0 + dt))) < 2.0 * dt * grid32.h**2

    def test_p3_step_newton_count(self, grid32):
        u0 = ps.initial_condition("random_smooth", grid32, seed=11).data
        _, diag = ps.step(u0, 1e-3, P3, grid32)
        assert diag.newton_iterations <= NEWTON_ITER_BASELINE

    def test_jacobian_matches_finite_differences(self, grid32):
        # directional derivatives of the residual map, 20 random directions
        u = ps.initial_condition("random_smooth", grid32, seed=3).data
        dt = 1e-2
        rng = np.random.default_rng(12)

        def residual(w):
            return w - u - dt * ps.divergence(
                tm.stress(ps.sym_gradient(w, grid32), P3), grid32)

        du = ps.sym_gradient(u, grid32)
        eps = 1e-6
        for _ in range(20):
            v = rng.normal(size=u.shape)
            fd = (residual(u + eps * v) - residual(u - eps * v)) / (2 * eps)
            an = v - dt * ps.divergence(
                tm.stress_derivative_apply(du, ps.sym_gradient(v, grid32), P3), grid32)
            denom = np.max(np.abs(an))
            assert np.max(np.abs(fd - an)) <= 1e-5 * denom

    @staticmethod
    def fresh_residual(u, u_prev, dt, model, grid):
        return (u - u_prev) / dt - ps.divergence(tm.stress(ps.sym_gradient(u, grid), model), grid)

    @pytest.mark.parametrize("model, ic, dt", [(P3, "random_smooth", 1e-2),
                                               (tm.ModelParams(p=2.5, mu=0.5, model="A1"), "kink", 5e-3)])
    def test_reported_residual_is_that_of_the_returned_state(self, grid32, model, ic, dt):
        # the residual carried over from the line search is the one a fresh
        # evaluation at the returned state gives, bit for bit
        u = ps.initial_condition(ic, grid32, seed=5).data
        for _ in range(3):
            u_prev = u
            u, diag = ps.step(u_prev, dt, model, grid32)
            assert diag.newton_iterations >= 1
            r = self.fresh_residual(u, u_prev, dt, model, grid32)
            sup, l2 = float(np.max(np.abs(r))), grid32.h * float(np.sqrt(np.sum(r**2)))
            assert diag.residual == max(sup, l2)

    def test_failure_history_is_that_of_the_iterates(self, monkeypatch):
        # an ascent direction makes every halving fail, so each Newton update
        # takes the smallest, never evaluated step 2**-12
        grid = ps.TorusGrid(16)
        u_prev = ps.initial_condition("random_smooth", grid, seed=6).data
        dt = 1e-3
        directions = []

        def ascent(op, b, **kwargs):
            directions.append(np.moveaxis(-b, 0, -1))  # planar (2, n, n) to (n, n, 2)
            return -b, 0

        monkeypatch.setattr(ps, "cg", ascent)
        with pytest.raises(SolverFailureError) as failure:
            ps.step(u_prev, dt, P3, grid)
        history = failure.value.residual_history
        assert len(history) == len(directions) == ps.MAX_NEWTON
        u = u_prev.copy()
        for rsup, delta in zip(history, directions):
            assert rsup == float(np.max(np.abs(self.fresh_residual(u, u_prev, dt, P3, grid))))
            u = u + 0.5**12 * delta

    def test_stalled_linear_solve_keeps_the_residual_history(self, monkeypatch):
        # the second linear solve reports an exhausted budget: the step fails
        # with the sup residuals of the two Newton iterates reached so far
        grid = ps.TorusGrid(16)
        u_prev = ps.initial_condition("random_smooth", grid, seed=6).data
        solve, rhs = ps.cg, []

        def stalls_second(matvec, b, **kwargs):
            rhs.append(b)
            x, info = solve(matvec, b, **kwargs)
            return x, info if len(rhs) == 1 else ps.CG_MAXITER

        monkeypatch.setattr(ps, "cg", stalls_second)
        with pytest.raises(SolverFailureError, match="linear solver stalled") as failure:
            ps.step(u_prev, 1e-2, P3, grid)
        assert failure.value.residual_history == [float(np.max(np.abs(b))) for b in rhs]
        assert len(rhs) == 2

    def test_steps_sharing_a_workspace_equal_lone_steps(self):
        # two steps on one workspace, the second from its predictor: each
        # planar result, copied out before the next step overwrites it,
        # equals that of a lone step with its own buffers bit for bit
        grid = ps.TorusGrid(16)
        u0 = ps.initial_condition("random_smooth", grid, seed=9).data
        work = ps._Workspace(grid)
        work.load(u0)
        first, diag = ps.step(u0, 1e-2, P3, grid, _work=work)
        assert first is work.u
        first = np.moveaxis(first, 0, -1).copy()
        work.advance(np.stack([u0, first]))
        second, _ = ps.step(first, 1e-2, P3, grid, _work=work)
        second = np.moveaxis(second, 0, -1).copy()
        assert diag.newton_iterations >= 1
        alone, _ = ps.step(u0, 1e-2, P3, grid)
        assert alone.flags.owndata and alone.flags.c_contiguous
        assert np.array_equal(first.view(np.uint64), alone.view(np.uint64))
        alone, _ = ps.step(first, 1e-2, P3, grid, guess=2.0 * first - u0)
        assert np.array_equal(second.view(np.uint64), alone.view(np.uint64))

    def test_invalid_dt_rejected(self, grid32):
        with pytest.raises(ValueError):
            ps.step(np.zeros((32, 32, 2)), -0.1, P3, grid32)

    @pytest.mark.parametrize("dt", [math.inf, math.nan])
    def test_non_finite_dt_rejected(self, grid32, dt):
        with pytest.raises(TimeStepError, match="^dt must be a finite positive number"):
            ps.step(np.zeros((32, 32, 2)), dt, P3, grid32)

    def test_predictor_and_previous_state_reach_the_same_step(self, grid32):
        # both starts meet the Newton tolerance, so their states agree within
        # dt times it in grid L^2
        dt = 5e-3
        traj = ps.solve(ps.initial_condition("random_smooth", grid32, seed=13), 2 * dt, dt, P3)
        older, u_prev = traj.snapshots[1], traj.snapshots[2]
        from_prev, _ = ps.step(u_prev, dt, P3, grid32)
        from_guess, diag = ps.step(u_prev, dt, P3, grid32, guess=2.0 * u_prev - older)
        assert diag.newton_iterations >= 1
        bound = dt * ps.TOL_FACTOR * (1.0 + float(np.max(np.abs(u_prev))))
        assert grid32.h * float(np.sqrt(np.sum((from_guess - from_prev) ** 2))) <= bound


class TestForcingTerm:
    def test_choice_two(self):
        assert ps._forcing_term(0.3) == 0.9 * 0.3**2
        assert ps._forcing_term(0.01) == 0.9 * 0.01**2
        assert ps._forcing_term(1.0) == ps.ETA_MAX

    @given(st.floats(min_value=0.0, max_value=1e6))
    def test_forcing_term_stays_in_its_range(self, ratio):
        assert 0.0 <= ps._forcing_term(ratio) <= ps.ETA_MAX

    def test_safeguard_could_never_bind(self):
        # the Eisenstat-Walker safeguard ETA_GAMMA eta_{k-1}^ETA_ALPHA acts only
        # above 0.1, and eta_{k-1} <= ETA_MAX keeps it at or below this bound
        assert ps.ETA_GAMMA * ps.ETA_MAX**ps.ETA_ALPHA <= 0.1


class TestConjugateGradients:
    def test_budget_runs_out(self):
        # unpreconditioned CG on 1000 eigenvalues spread over six decades
        # needs more iterations than the budget allows
        lam = np.logspace(0.0, 6.0, 1000)
        b = np.ones(lam.size)
        iterates = []
        x, info = ps.cg(lambda v: lam * v, b, precond=np.copy, atol=0.0, callback=iterates.append)
        assert info == len(iterates) == ps.CG_MAXITER
        assert np.linalg.norm(lam * x - b) >= ps.CG_RTOL * np.linalg.norm(b)

    @pytest.mark.skipif(hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) < 2,
                        reason="two BLAS threads need two usable CPUs")
    def test_an_n256_solve_does_not_depend_on_the_blas_thread_count(self):
        # CG's inner products on the 131,072 entries of an n = 256 state once ran
        # as one threaded BLAS ddot: three p = 3 steps moved 5,490 entries at two threads
        src = str(Path(ps.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        probe = ("import sys, symplap.pde_solver as ps, symplap.tensor_models as tm\n"
                 "u0 = ps.initial_condition('random_smooth', ps.TorusGrid(256), seed=11)\n"
                 "traj = ps.solve(u0, 0.015, 0.005, tm.ModelParams(p=3.0))\n"
                 "sys.stdout.buffer.write(traj.snapshots[-1].tobytes())")
        finals = [np.frombuffer(subprocess.run(
            [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
            capture_output=True, timeout=120, check=True).stdout) for threads in ("1", "2")]
        assert finals[0].size == 256 * 256 * 2
        assert np.array_equal(finals[0].view(np.uint64), finals[1].view(np.uint64))

    def test_importing_the_package_loads_no_scipy(self):
        src = str(Path(ps.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        probe = "import symplap, sys; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=120, check=True)
        assert proc.stdout.strip() == "[]"


class TestSolve:
    def test_zero_data_stays_zero(self, grid32):
        traj = ps.solve(ps.SpatialField(np.zeros((32, 32, 2)), grid32), 0.05, 0.01, P3)
        assert np.all(traj.snapshots == 0.0)
        assert np.all(traj.energies() == 0.0)

    def test_t_final_must_be_multiple_of_dt(self, grid32):
        with pytest.raises(ValueError):
            ps.solve(ps.SpatialField(np.zeros((32, 32, 2)), grid32), 0.053, 0.01, P3)

    @pytest.mark.parametrize("t_final, dt, name", [
        (math.inf, 0.01, "t_final"), (math.nan, 0.01, "t_final"), (-0.05, 0.01, "t_final"),
        (0.05, math.inf, "dt"), (0.05, math.nan, "dt"), (1.0, 0.0, "dt"), (0.05, -0.01, "dt")])
    def test_non_finite_or_non_positive_time_rejected(self, grid32, t_final, dt, name):
        with pytest.raises(TimeStepError, match=f"^{name} must be a finite positive number"):
            ps.solve(ps.SpatialField(np.zeros((32, 32, 2)), grid32), t_final, dt, P3)

    @pytest.mark.parametrize("amplitude", [1e150, 1e200])
    def test_overflowing_data_fail_before_the_first_step(self, monkeypatch, amplitude):
        # at amplitude 1e150 and p = 3 the energy of u0 is already infinite
        def no_step(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(ps, "step", no_step)
        u0 = ps.initial_condition("random_smooth", ps.TorusGrid(16), amplitude=amplitude)
        with pytest.raises(ValueError, match="energy or stress is not finite"):
            ps.solve(u0, 0.02, 0.01, P3)

    def test_a_strain_that_overflows_to_nan_is_reported_as_overflow(self, monkeypatch):
        # u1 = 1e308 s(x2), u2 = -1e308 s(x1) with s = (1, 0, -1, 0, ...): at
        # odd i = j the two differences of e12 overflow to -inf and +inf, so
        # e12 and |Du| are NaN there, which phi rejects as an argument
        grid = ps.TorusGrid(16)
        s = np.tile([1.0, 0.0, -1.0, 0.0], 4)
        u = np.zeros((16, 16, 2))
        u[..., 0], u[..., 1] = 1e308 * s[None, :], -1e308 * s[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(ps._strain(u, grid.h)[1]).any()
        monkeypatch.setattr(ps, "step", None)
        with pytest.raises(ValueError, match="overflow: their energy or stress is not finite"):
            ps.solve(ps.SpatialField(u, grid), 0.02, 0.01, P3)

    @settings(max_examples=12, deadline=None)
    @given(p=st.sampled_from([2.0, 2.5, 3.0, 4.0]), model=st.sampled_from(["A1", "A2"]),
           seed=st.integers(0, 2**16), coeffs=st.lists(st.floats(-1.0, 1.0), min_size=8,
                                                       max_size=8))
    def test_symmetric_gradient_kernel_content_is_conserved(self, p, model, seed, coeffs):
        # the kernel of the discrete symmetric gradient: constants and the
        # Nyquist checkerboards (n/2, 0), (0, n/2), (n/2, n/2), per component
        n = 16
        grid = ps.TorusGrid(n)
        sign = (-1.0) ** np.arange(n)
        modes = [np.ones((n, n)), np.outer(sign, np.ones(n)), np.outer(np.ones(n), sign),
                 np.outer(sign, sign)]
        kernel = np.array([np.stack([m * (c == 0), m * (c == 1)], axis=-1)
                           for m in modes for c in (0, 1)])
        u0 = ps.initial_condition("random_smooth", grid, seed=seed).data
        u0 = u0 + np.tensordot(coeffs, kernel, axes=1)
        traj = ps.solve(ps.SpatialField(u0, grid), 0.04, 0.01, tm.ModelParams(p=p, mu=1.0,
                                                                             model=model))
        content = np.tensordot(traj.snapshots, kernel, axes=([1, 2, 3], [1, 2, 3])) / n**2
        tol = 1e-12 * (1.0 + np.max(np.abs(u0)))
        assert np.max(np.abs(content - coeffs)) <= tol

    def test_transient_memory_of_a_solve(self):
        # the workspace is allocated once per solve and reused by every step;
        # with one set of step buffers per step and fresh CG vectors, this
        # solve peaked 1,469,896 B above its snapshots (numpy 2.4.6, 22.4
        # fields of 64 x 64 x 2 doubles); the bound allows two fields more
        grid = ps.TorusGrid(64)
        u0 = ps.initial_condition("random_smooth", grid, seed=8)
        tracemalloc.start()
        try:
            traj = ps.solve(u0, 0.05, 0.005, P3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - traj.snapshots.nbytes <= 1_469_896 + 2 * u0.data.nbytes

    def test_large_finite_data_still_solve(self):
        u0 = ps.initial_condition("random_smooth", ps.TorusGrid(16), amplitude=1e3)
        assert np.all(np.isfinite(ps.solve(u0, 0.01, 0.01, P3).snapshots))

    def test_failed_step_keeps_the_solved_snapshots(self, monkeypatch):
        grid = ps.TorusGrid(16)
        u0 = ps.initial_condition("random_smooth", grid, seed=3)
        solved = ps.solve(u0, 0.05, 0.01, P3)
        real_step, calls = ps.step, []

        def fails_third(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise SolverFailureError("forced failure")
            return real_step(*args, **kwargs)

        monkeypatch.setattr(ps, "step", fails_third)
        with pytest.raises(SolverFailureError) as failure:
            ps.solve(u0, 0.05, 0.01, P3, meta={"ic": "random_smooth"})
        assert failure.value.step_index == 2
        partial = failure.value.partial
        assert partial.snapshots.shape == (3, 16, 16, 2)
        assert np.array_equal(partial.snapshots.view(np.uint64), solved.snapshots[:3].view(np.uint64))
        assert partial.meta == {"ic": "random_smooth", "failed_at_step": 2}
        assert len(partial.diagnostics) == 2
        want = np.array([ps.energy(u, P3, grid) for u in partial.snapshots])
        assert np.array_equal(partial.energies().view(np.uint64), want.view(np.uint64))

    def test_linear_decay_against_exact_solution(self):
        grid = ps.TorusGrid(16)
        u0 = ps.initial_condition("eigenfield", grid)
        t_final, dt = 0.2, 0.01
        traj = ps.solve(u0, t_final, dt, LINEAR)
        exact = math.exp(-t_final) * u0.data
        err = float(np.sqrt(grid.h**2 * np.sum((traj.snapshots[-1] - exact) ** 2)))
        assert err < (dt + grid.h**2) * 2.0

    def test_energy_dissipation_200_steps(self, grid32):
        u0 = ps.initial_condition("random_smooth", grid32, seed=21)
        traj = ps.solve(u0, 0.2, 1e-3, P3)
        energies = traj.energies()
        assert len(traj.diagnostics) == traj.n_steps == 200
        assert np.all(np.diff(energies) <= 0.0)

    def test_mean_preservation(self, grid32):
        u0_data = ps.initial_condition("random_smooth", grid32, seed=2).data + 0.35
        traj = ps.solve(ps.SpatialField(u0_data, grid32), 0.05, 5e-3, P3)
        means = np.mean(traj.snapshots, axis=(1, 2))
        scale = 1.0 + np.max(np.abs(u0_data))
        assert np.max(np.abs(means - means[0])) < 1e-10 * scale

    @settings(max_examples=25, deadline=None)
    @given(model=st.sampled_from(["A1", "A2"]), p=st.floats(2.0, 6.0), mu=st.floats(0.01, 1.0),
           log_dt=st.floats(-3.0, 0.0), n=st.sampled_from([8, 16, 32]),
           ic=st.sampled_from(["eigenfield", "random_smooth", "kink"]),
           log_amplitude=st.floats(-2.5, 1.0), seed=st.integers(0, 2**16))
    def test_energy_and_means_move_within_the_newton_tolerance(self, model, p, mu, log_dt, n,
                                                                ic, log_amplitude, seed):
        # the README's bounds per accepted step, tol = TOL_FACTOR (1 + |u_k|_inf):
        # E(u_{k+1}) - E(u_k) <= dt tol^2 / 4, and each component's grid mean
        # moves by at most dt tol
        grid, dt = ps.TorusGrid(n), 10.0**log_dt
        u0 = ps.initial_condition(ic, grid, seed=seed, amplitude=10.0**log_amplitude)
        traj = ps.solve(u0, 20 * dt, dt, tm.ModelParams(p=p, mu=mu, model=model))
        tol = ps.TOL_FACTOR * (1.0 + np.max(np.abs(traj.snapshots[:-1]), axis=(1, 2, 3)))
        assert np.all(np.diff(traj.energies()) <= dt * tol**2 / 4)
        means = np.mean(traj.snapshots, axis=(1, 2))
        assert np.all(np.abs(np.diff(means, axis=0)) <= dt * tol[:, None])

    def test_vanishing_forcing_along_trajectory(self, grid32):
        # divided-difference residual of the evolution law stays below the
        # Newton tolerance in L^2 at every accepted step
        u0 = ps.initial_condition("random_smooth", grid32, seed=13)
        traj = ps.solve(u0, 0.05, 5e-3, P3)
        for k in range(traj.n_steps):
            u_prev, u_next = traj.snapshots[k], traj.snapshots[k + 1]
            tol = 1e-10 * (1.0 + np.max(np.abs(u_prev)))
            forcing = (u_next - u_prev) / traj.dt - ps.divergence(
                tm.stress(ps.sym_gradient(u_next, grid32), P3), grid32)
            assert float(np.sqrt(grid32.h**2 * np.sum(forcing**2))) < tol

    def test_inexact_newton_meets_the_tolerance_with_fewer_cg_iterations(self, grid32, monkeypatch):
        # every step meets TOL_FACTOR in sup and L^2; solving each linear
        # system to 1e-14 from u_prev takes 443 CG iterations here
        solve, counted = ps.cg, []

        def counting(matvec, b, *, callback=None, **kwargs):
            return solve(matvec, b, callback=lambda x: counted.append(1), **kwargs)

        monkeypatch.setattr(ps, "cg", counting)
        dt = 5e-3
        traj = ps.solve(ps.initial_condition("random_smooth", grid32, seed=13), 20 * dt, dt, P3)
        for k, diag in enumerate(traj.diagnostics):
            u_prev, u = traj.snapshots[k], traj.snapshots[k + 1]
            r = TestStep.fresh_residual(u, u_prev, dt, P3, grid32)
            tol = ps.TOL_FACTOR * (1.0 + float(np.max(np.abs(u_prev))))
            assert float(np.max(np.abs(r))) < tol
            assert grid32.h * float(np.sqrt(np.sum(r**2))) < tol
            assert diag.newton_iterations <= NEWTON_ITER_BASELINE
        assert sum(d.cg_iterations for d in traj.diagnostics) == len(counted) < 300

    def test_linear_steps_take_one_newton_and_one_cg_iteration(self, grid32):
        # the preconditioner is exact for p = 2, from the predictor as from u_prev
        traj = ps.solve(ps.initial_condition("random_smooth", grid32, seed=4), 0.05, 5e-3, LINEAR)
        assert [(d.newton_iterations, d.cg_iterations) for d in traj.diagnostics] == [(1, 1)] * 10

    def test_kink_run_reports_rather_than_asserts(self, grid32):
        # rough data probe: either the solver converges or the failure carries
        # its residual history and the partial trajectory
        u0 = ps.initial_condition("kink", grid32)
        try:
            traj = ps.solve(u0, 0.02, 2e-3, P3, meta={"ic": "kink"})
            assert traj.n_steps == 10
        except SolverFailureError as exc:
            assert exc.residual_history
            assert exc.step_index is not None


class TestInitialCondition:
    @pytest.mark.parametrize("cutoff", [0, -1, 4, 5, 2.5])
    def test_random_smooth_cutoff_outside_the_band_is_rejected(self, cutoff):
        # 0 and -1 would give the zero field; 4 = n/2 and 5 would feed the Nyquist modes
        with pytest.raises(ValueError, match=r"cutoff must be an integer in \[1, n/2 - 1\]"):
            ps.initial_condition("random_smooth", ps.TorusGrid(8), cutoff=cutoff)

    @pytest.mark.parametrize("cutoff", [1, 3])
    def test_random_smooth_cutoff_in_the_band_is_accepted(self, cutoff):
        u0 = ps.initial_condition("random_smooth", ps.TorusGrid(8), cutoff=cutoff)
        assert np.max(np.abs(u0.data)) == 1.0

    @pytest.mark.parametrize("tag", ["eigenfield", "random_smooth", "kink"])
    @pytest.mark.parametrize("amplitude", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_amplitude_is_rejected_by_name(self, tag, amplitude):
        with pytest.raises(ValueError, match="^amplitude must be a finite number"):
            ps.initial_condition(tag, ps.TorusGrid(8), amplitude=amplitude)

    @pytest.mark.parametrize("tag", ["eigenfield", "random_smooth", "kink"])
    @pytest.mark.parametrize("seed", [-1, 1.5, None, "3"])
    def test_a_seed_that_is_not_a_non_negative_integer_is_rejected_by_name(self, tag, seed):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
            ps.initial_condition(tag, ps.TorusGrid(8), seed=seed)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.sampled_from([8, 16, 32, 64]), seed=st.integers(0, 2**32 - 1),
           amplitude=st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3) | st.sampled_from([1e-300, 1e300]))
    def test_random_smooth_is_the_cosine_sum_of_its_band(self, data, n, seed, amplitude):
        # one inverse FFT of the drawn spectrum in place of one full-grid cosine
        # per mode and component: the same field up to rounding, and nothing
        # outside the band |k|_inf <= cutoff, the Nyquist modes included.  The
        # cosine sum rounds its arguments k . x + theta, of size up to 4 pi
        # cutoff: the two differed by up to 1.0e-14 over 150 seeds at n = 64,
        # cutoff 31, and 2.9e-15 over 40 at n = 32, cutoff 8, hence an
        # allowance linear in the cutoff beyond 8
        cutoff = data.draw(st.integers(1, n // 2 - 1), label="cutoff")
        grid = ps.TorusGrid(n)
        u = ps.initial_condition("random_smooth", grid, seed=seed, cutoff=cutoff, amplitude=amplitude).data
        assert u.flags.c_contiguous
        want = reference.random_smooth(grid, seed, cutoff, amplitude)
        assert np.max(np.abs(u - want)) <= 1e-14 * max(1.0, cutoff / 8) * abs(amplitude)
        spectrum = np.abs(np.fft.rfft2(u, axes=(0, 1), norm="forward"))
        k1 = np.abs(np.fft.fftfreq(n, 1.0 / n))[:, None]
        k2 = np.arange(n // 2 + 1)[None, :]
        outside = (k1 > cutoff) | (k2 > cutoff)
        assert outside[n // 2].all() and outside[:, n // 2].all()
        assert np.max(spectrum[outside]) <= 1e-15 * abs(amplitude)

    def test_the_criterion_7_input_is_the_cosine_sum(self):
        grid = ps.TorusGrid(64)
        u = ps.initial_condition("random_smooth", grid, seed=8).data
        assert np.max(np.abs(u - reference.random_smooth(grid, 8, 3, 1.0))) <= 1e-14


class TestPersistence:
    def test_roundtrip(self, tmp_path, grid32):
        u0 = ps.initial_condition("random_smooth", grid32, seed=4)
        traj = ps.solve(u0, 0.02, 5e-3, P3, meta={"ic": "random_smooth", "seed": 4})
        path = tmp_path / "traj.bin"
        ps.save_trajectory(traj, path)
        loaded = ps.load_trajectory(path)
        assert np.array_equal(loaded.snapshots, traj.snapshots)
        # the loaded trajectory has no diagnostics and evaluates every snapshot;
        # the solved one reads its steps' records
        assert loaded.diagnostics == []
        assert np.array_equal(loaded.energies().view(np.uint64), traj.energies().view(np.uint64))
        assert loaded.dt == traj.dt
        assert loaded.model.p == traj.model.p
        assert loaded.model.model == traj.model.model
        assert loaded.meta["ic"] == "random_smooth"

    @pytest.fixture()
    def saved(self, tmp_path, grid32):
        traj = ps.solve(ps.SpatialField(np.zeros((32, 32, 2)), grid32), 0.01, 5e-3, P3)
        path = tmp_path / "t.bin"
        ps.save_trajectory(traj, path)
        return path

    def test_missing_meta_rejected(self, saved):
        Path(f"{saved}.meta").unlink()
        with pytest.raises(TrajectoryFormatError, match="meta is missing"):
            ps.load_trajectory(saved)

    @pytest.mark.parametrize("key", ["model", "p", "mu"])
    def test_meta_without_model_parameter_rejected(self, saved, key):
        meta = Path(f"{saved}.meta")
        lines = meta.read_text().splitlines(keepends=True)
        meta.write_text("".join(ln for ln in lines if not ln.startswith(f"{key} =")))
        with pytest.raises(TrajectoryFormatError, match=f"lacks {key}"):
            ps.load_trajectory(saved)

    def test_size_mismatch_rejected(self, saved):
        saved.write_bytes(saved.read_bytes()[:-8])
        with pytest.raises(TrajectoryFormatError, match="header"):
            ps.load_trajectory(saved)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_snapshot_rejected(self, saved, bad):
        # the saved trajectory has 3 snapshots; poison one entry of the last
        data = bytearray(saved.read_bytes())
        data[-8:] = np.array([bad], dtype="<f8").tobytes()
        saved.write_bytes(bytes(data))
        with pytest.raises(TrajectoryFormatError, match="snapshot 2 has a non-finite entry"):
            ps.load_trajectory(saved)

    @pytest.mark.parametrize("dt", [math.nan, 0.0, -5e-3, math.inf])
    def test_bad_header_time_step_rejected(self, saved, dt):
        # restrict divides the time window by dt
        data = bytearray(saved.read_bytes())
        data[16:24] = np.array([dt], dtype="<f8").tobytes()
        saved.write_bytes(bytes(data))
        with pytest.raises(TrajectoryFormatError, match="header dt must be a finite positive"):
            ps.load_trajectory(saved)

    @pytest.mark.parametrize("field, offset", [("n", 0), ("d", 8), ("steps", 24)])
    @pytest.mark.parametrize("bad", [math.inf, math.nan, 8.5])
    def test_bad_header_count_rejected(self, saved, field, offset, bad):
        data = bytearray(saved.read_bytes())
        data[offset : offset + 8] = np.array([bad], dtype="<f8").tobytes()
        saved.write_bytes(bytes(data))
        with pytest.raises(TrajectoryFormatError, match=f"header {field} = .* is not an integer"):
            ps.load_trajectory(saved)

    @pytest.mark.parametrize("n, d, match", [(12, 2, "header n = 12: grid size must be a power"),
                                             (8, 3, "header d = 3, but a torus snapshot has 2"),
                                             (8, 1, "header d = 1, but a torus snapshot has 2")])
    def test_header_grid_outside_the_torus_rejected(self, saved, n, d, match):
        # sizes agree with the header, so only the grid rule can reject the file
        steps = 2
        header = np.array([n, d, 5e-3, steps], dtype="<f8").tobytes()
        saved.write_bytes(header + np.zeros((steps + 1) * n * n * d, dtype="<f8").tobytes())
        with pytest.raises(TrajectoryFormatError, match=match) as err:
            ps.load_trajectory(saved)
        assert str(err.value).startswith(f"{saved}: ")

    def test_file_is_header_then_snapshot_bytes(self, tmp_path, grid32):
        traj = ps.solve(ps.initial_condition("random_smooth", grid32, seed=5), 0.01, 5e-3, P3)
        path = tmp_path / "t.bin"
        ps.save_trajectory(traj, path)
        header = np.array([32, 2, 5e-3, 2], dtype="<f8").tobytes()
        assert path.read_bytes() == header + traj.snapshots.astype("<f8").tobytes()
        data = ps.load_trajectory(path).snapshots
        assert data.flags.writeable and data.flags.c_contiguous
        assert np.array_equal(data.view(np.uint64), traj.snapshots.view(np.uint64))

    def test_header_is_little_endian_float64(self, tmp_path, grid32):
        traj = ps.solve(ps.SpatialField(np.zeros((32, 32, 2)), grid32), 0.01, 5e-3, P3)
        path = tmp_path / "t.bin"
        ps.save_trajectory(traj, path)
        raw = np.frombuffer(path.read_bytes()[:32], dtype="<f8")
        assert list(raw) == [32.0, 2.0, 5e-3, 2.0]  # n, d, dt, step count
