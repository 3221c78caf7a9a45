"""The solver converges at its design orders: 1 in time (backward Euler) and 2 in
space (centred differences), by self-convergence at p = 3 and p = 4.

Each order is log2 of the ratio of two successive grid-L^2 differences between
solves that halve dt (or h).  The bounds come from the sequences measured on
these inputs, printed with the observed values (``pytest -s``):
- time, n = 16, T = 0.2, dt = 0.02 -> 0.00125: 0.955, 0.977, 0.988 at p = 3
  and 0.949, 0.974, 0.987 at p = 4.  Every order lies within 0.1 of 1, each
  nearer 1 than the one before, the last within 0.02 of 1;
- space, one band-limited u0 on n = 16 -> 128, T = 0.05, dt = 0.005, compared
  on the n = 16 nodes: 1.916, 1.982 at p = 3 and 1.909, 2.005 at p = 4.  The
  first (coarsest) order is at least 1.85 and the last within 0.05 of 2.
Both bounds are two-sided, so a scheme of higher order fails them too.
"""

import math

import numpy as np
import pytest

import symplap.pde_solver as ps
import symplap.tensor_models as tm

PS = [3.0, 4.0]


def observed_orders(finals, grid):
    diffs = np.array([math.sqrt(ps.inner(a - b, a - b, grid)) for a, b in zip(finals, finals[1:])])
    return np.log2(diffs[:-1] / diffs[1:])


def spectral_interpolation(u, n):
    """The (m, m, 2) field ``u`` as the trigonometric polynomial of its modes
    |k|_inf < m/2, sampled on the n-point grid, n >= m."""
    m, half = u.shape[0], u.shape[0] // 2
    coarse, fine = np.r_[0:half, m - half:m], np.r_[0:half, n - half:n]
    spectrum = np.zeros((n, n, 2), dtype=complex)
    spectrum[np.ix_(fine, fine)] = np.fft.fft2(u, axes=(0, 1))[np.ix_(coarse, coarse)]
    return np.fft.ifft2(spectrum, axes=(0, 1)).real * (n / m) ** 2


@pytest.mark.parametrize("p", PS)
def test_time_order_is_one(p):
    grid = ps.TorusGrid(16)
    u0 = ps.initial_condition("random_smooth", grid, seed=8)
    model = tm.ModelParams(p=p, mu=1.0, model="A2")
    finals = [ps.solve(u0, 0.2, 0.02 / 2**i, model).snapshots[-1] for i in range(5)]
    orders = observed_orders(finals, grid)
    print(f"p = {p:g}, time orders {np.round(orders, 3)}: each within 0.1 of 1, "
          "nearer 1 each time, the last within 0.02")
    assert np.all(np.abs(orders - 1.0) <= 0.1), orders
    assert np.all(np.diff(np.abs(orders - 1.0)) < 0), orders
    assert abs(orders[-1] - 1.0) <= 0.02, orders


@pytest.mark.parametrize("p", PS)
def test_space_order_is_two(p):
    # modes up to 3 are resolved on every grid, so u0 is one function for all n
    coarse = ps.TorusGrid(16)
    u0 = ps.initial_condition("random_smooth", coarse, seed=8, cutoff=3).data
    model = tm.ModelParams(p=p, mu=1.0, model="A2")
    finals = []
    for n in (16, 32, 64, 128):
        field = ps.SpatialField(spectral_interpolation(u0, n), ps.TorusGrid(n))
        finals.append(ps.solve(field, 0.05, 0.005, model).snapshots[-1][::n // 16, ::n // 16])
    orders = observed_orders(finals, coarse)
    print(f"p = {p:g}, space orders {np.round(orders, 3)}: the first >= 1.85, "
          "the last within 0.05 of 2")
    assert orders[0] >= 1.85, orders
    assert abs(orders[-1] - 2.0) <= 0.05, orders
