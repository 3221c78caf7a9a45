"""Implicit solver: discrete calculus, Newton convergence, dissipation, persistence."""

import math
from pathlib import Path

import numpy as np
import pytest

import symplap.pde_solver as ps
import symplap.tensor_models as tm
from symplap.baselines import NEWTON_ITER_BASELINE
from symplap.errors import SolverFailureError, TrajectoryFormatError

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
        assert ps.TorusGrid(8).h == pytest.approx(math.pi / 4)

    def test_field_validation(self, grid32):
        with pytest.raises(ValueError):
            ps.SpatialField(np.zeros((16, 16, 2)), grid32)
        with pytest.raises(ValueError):
            ps.SpatialField(np.full((32, 32, 2), np.nan), grid32)


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

    def test_invalid_dt_rejected(self, grid32):
        with pytest.raises(ValueError):
            ps.step(np.zeros((32, 32, 2)), -0.1, P3, grid32)


class TestSolve:
    def test_zero_data_stays_zero(self, grid32):
        traj = ps.solve(ps.SpatialField.zero(grid32), 0.05, 0.01, P3)
        assert np.all(traj.snapshots == 0.0)
        assert np.all(traj.energies() == 0.0)

    def test_t_final_must_be_multiple_of_dt(self, grid32):
        with pytest.raises(ValueError):
            ps.solve(ps.SpatialField.zero(grid32), 0.053, 0.01, P3)

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
        means = traj.component_means()
        scale = 1.0 + np.max(np.abs(u0_data))
        assert np.max(np.abs(means - means[0])) < 1e-10 * scale

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


class TestPersistence:
    def test_roundtrip(self, tmp_path, grid32):
        u0 = ps.initial_condition("random_smooth", grid32, seed=4)
        traj = ps.solve(u0, 0.02, 5e-3, P3, meta={"ic": "random_smooth", "seed": 4})
        path = tmp_path / "traj.bin"
        ps.save_trajectory(traj, path)
        loaded = ps.load_trajectory(path)
        assert np.array_equal(loaded.snapshots, traj.snapshots)
        assert np.array_equal(loaded.energies(), traj.energies())
        assert loaded.dt == traj.dt
        assert loaded.model.p == traj.model.p
        assert loaded.model.model == traj.model.model
        assert loaded.meta["ic"] == "random_smooth"

    @pytest.fixture()
    def saved(self, tmp_path, grid32):
        traj = ps.solve(ps.SpatialField.zero(grid32), 0.01, 5e-3, P3)
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

    def test_header_is_little_endian_float64(self, tmp_path, grid32):
        traj = ps.solve(ps.SpatialField.zero(grid32), 0.01, 5e-3, P3)
        path = tmp_path / "t.bin"
        ps.save_trajectory(traj, path)
        raw = np.frombuffer(path.read_bytes()[:32], dtype="<f8")
        assert list(raw) == [32.0, 2.0, 5e-3, 2.0]  # n, d, dt, step count
