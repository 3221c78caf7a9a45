"""The planar solve loop: it equals a chain of public steps, records each step's
energy bit for bit, and builds the preconditioner only when ``(dt, gbar)`` changes."""

import dataclasses

import numpy as np
import pytest

import symplap.pde_solver as ps
import symplap.tensor_models as tm

MODELS = [tm.ModelParams(p=p, mu=1.0, model=m) for p in (2.0, 3.0, 4.0) for m in ("A1", "A2")]
DT, STEPS = 5e-3, 4


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def diag_bits(diag):
    return bits(dataclasses.astuple(diag))


@pytest.fixture(scope="module")
def u0():
    return ps.initial_condition("random_smooth", ps.TorusGrid(16), seed=5)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: f"{m.model}-p{m.p:g}")
def test_solve_equals_a_chain_of_public_steps(u0, model):
    traj = ps.solve(u0, STEPS * DT, DT, model)
    states, diags = [u0.data], []
    for k in range(STEPS):
        guess = (ps._predictor(np.stack(states[max(k - ps._predictor_order(model), 0):k + 1]))
                 .reshape(u0.data.shape) if k else None)
        u, diag = ps.step(states[k], DT, model, u0.grid, guess)
        states.append(u)
        diags.append(diag)
    assert np.array_equal(bits(traj.snapshots), bits(np.stack(states)))
    assert len(traj.diagnostics) == STEPS
    for got, want in zip(traj.diagnostics, diags):
        assert np.array_equal(diag_bits(got), diag_bits(want))


@pytest.mark.parametrize("model", MODELS, ids=lambda m: f"{m.model}-p{m.p:g}")
def test_recorded_energy_is_the_energy_of_the_snapshot(u0, model):
    traj = ps.solve(u0, STEPS * DT, DT, model)
    recorded = [diag.energy for diag in traj.diagnostics]
    want = [ps.energy(u, model, u0.grid) for u in traj.snapshots[1:]]
    assert np.array_equal(bits(recorded), bits(want))
    assert np.array_equal(bits(traj.energies()), bits([ps.energy(u0.data, model, u0.grid)] + want))


def test_energies_of_a_solve_evaluate_only_the_initial_snapshot(monkeypatch, u0):
    real_energy, calls = ps.energy, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real_energy(*args, **kwargs)

    monkeypatch.setattr(ps, "energy", counted)
    traj = ps.solve(u0, STEPS * DT, DT, MODELS[3])
    traj.energies()
    assert len(calls) == 1 and np.shares_memory(calls[0][0], traj.snapshots[0])


@pytest.mark.parametrize("p, builds", [(2.0, 1), (3.0, STEPS)])
def test_preconditioner_is_rebuilt_only_when_dt_or_gbar_changes(monkeypatch, u0, p, builds):
    # at p = 2 g is constant, so every step has the same gbar; at p = 3 the
    # mean of g moves with the state
    real, calls = ps._spectral_preconditioner, []

    def counted(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(ps, "_spectral_preconditioner", counted)
    ps.solve(u0, STEPS * DT, DT, tm.ModelParams(p=p, mu=1.0, model="A2"))
    assert len(calls) == builds
    assert len(set(calls)) == builds
