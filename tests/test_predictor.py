"""The solve's predictor, the order-4 extrapolation of past states, and the
per-step count of residual evaluations that shows whether it makes the line
search damp."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import symplap.pde_solver as ps
import symplap.tensor_models as tm
from symplap.baselines import NEWTON_ITER_BASELINE

# the criterion-7 solve (p = 3, random_smooth seed 8, n = 64, 400 steps of
# 1/200) from the linear predictor 2 u_k - u_{k-1}: 865 Newton and 1,989 CG
# iterations, 1,265 residual evaluations
LINEAR_NEWTON, LINEAR_CG = 865, 1989


@pytest.fixture(scope="module")
def criterion_7():
    u0 = ps.initial_condition("random_smooth", ps.TorusGrid(64), seed=8)
    return ps.solve(u0, 2.0, 1 / 200, tm.ModelParams(p=3.0, mu=1.0, model="A2"))


def test_criterion_7_counts_fall_from_the_linear_predictor(criterion_7):
    diags = criterion_7.diagnostics
    newton = sum(d.newton_iterations for d in diags)
    cg = sum(d.cg_iterations for d in diags)
    evaluations = sum(d.residual_evaluations for d in diags)
    assert (newton, cg, evaluations) == (545, 921, 945)
    assert newton <= 0.75 * LINEAR_NEWTON and cg <= 0.70 * LINEAR_CG
    assert max(d.newton_iterations for d in diags) <= NEWTON_ITER_BASELINE
    # no update was damped: one evaluation at the start and one per update
    assert evaluations == len(diags) + newton


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, ps.PREDICTOR_ORDER), k=st.integers(0, 20),
       coeffs=st.lists(st.floats(-2.0, 2.0), min_size=5, max_size=5))
def test_predictor_is_exact_for_polynomials_of_its_degree(m, k, coeffs):
    # u_j = sum_i c_i (t_j)^i at t_j = j: the extrapolation through u_{k-m}, ...,
    # u_k is the polynomial's value at t_{k+1} when its degree is at most m
    t = np.arange(k, k + m + 2, dtype=float)
    values = sum(c * t**i for i, c in enumerate(coeffs[:m + 1]))
    past = np.broadcast_to(values[:-1, None, None, None], (m + 1, 4, 4, 2)).copy()
    got = ps._predictor(past)
    # the weights sum to 2**(m + 1) - 1 in absolute value, which bounds the
    # growth of the states' rounding
    scale = max(sum(abs(c) * t[-1]**i for i, c in enumerate(coeffs[:m + 1])), 1.0)
    assert np.max(np.abs(got - values[-1])) <= 2.0**(m + 1) * 1e-13 * scale


def test_residual_evaluations_count_the_residual_calls(monkeypatch):
    # amplitude 30 at p = 4 and dt = 0.1: the second step's start is far enough
    # off that the line search halves an update
    grid = ps.TorusGrid(16)
    u0 = ps.initial_condition("random_smooth", grid, seed=3, amplitude=30.0)
    model = tm.ModelParams(p=4.0, mu=1.0, model="A2")
    real_residual, real_step, calls, per_step = ps._residual, ps.step, [], []

    def counted_residual(*args):
        calls.append(args)
        return real_residual(*args)

    def counted_step(*args, **kwargs):
        before = len(calls)
        result = real_step(*args, **kwargs)
        per_step.append(len(calls) - before)
        return result

    monkeypatch.setattr(ps, "_residual", counted_residual)
    monkeypatch.setattr(ps, "step", counted_step)
    traj = ps.solve(u0, 0.3, 0.1, model)
    evaluations = [d.residual_evaluations for d in traj.diagnostics]
    assert all(type(count) is int for count in evaluations)
    assert evaluations == per_step and sum(per_step) == len(calls)
    assert any(d.residual_evaluations > d.newton_iterations + 1 for d in traj.diagnostics)
