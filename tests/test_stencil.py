"""Property test of the centred periodic difference and the solver's calculus on it.

The gradient must equal the ``np.roll`` form of the stencil bit for bit, the
solver's symmetric gradient and divergence must act slice by slice on stacks
of fields, and summation by parts must hold for symmetric tensor fields.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import symplap.pde_solver as ps
import symplap.stencil as stencil

FLOATS = st.floats(-8.0, 8.0, allow_subnormal=False)


@st.composite
def stacks(draw, comp):
    n = draw(st.sampled_from([8, 16]))
    lead = tuple(draw(st.lists(st.integers(1, 3), min_size=0, max_size=2)))
    values = draw(hnp.arrays(np.float64, lead + (n, n) + comp, elements=FLOATS))
    return values, ps.TorusGrid(n)


def _bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _roll_gradient(a, h, axes):
    return np.stack([(np.roll(a, -1, axis=ax) - np.roll(a, 1, axis=ax)) / (2.0 * h)
                     for ax in axes], axis=-1)


@settings(max_examples=50, deadline=None)
@given(case=stacks((2,)), negative=st.booleans())
def test_gradient_equals_roll_reference(case, negative):
    values, grid = case
    axes = (-3, -2) if negative else (values.ndim - 3, values.ndim - 2)
    got = stencil.gradient(values, grid.h, axes)
    assert _bitwise_equal(got, _roll_gradient(values, grid.h, axes))


@settings(max_examples=50, deadline=None)
@given(case=stacks((2,)))
def test_sym_gradient_acts_slice_by_slice(case):
    u, grid = case
    got = ps.sym_gradient(u, grid)
    flat = u.reshape((-1,) + u.shape[-3:])
    expected = np.stack([ps.sym_gradient(s, grid) for s in flat]).reshape(got.shape)
    assert _bitwise_equal(got, expected)


@settings(max_examples=50, deadline=None)
@given(case=stacks((2, 2)))
def test_divergence_acts_slice_by_slice(case):
    t, grid = case
    got = ps.divergence(t, grid)
    flat = t.reshape((-1,) + t.shape[-4:])
    expected = np.stack([ps.divergence(s, grid) for s in flat]).reshape(got.shape)
    assert _bitwise_equal(got, expected)


@settings(max_examples=50, deadline=None)
@given(case=stacks((2, 2)), data=st.data())
def test_divergence_is_minus_adjoint_of_sym_gradient(case, data):
    t, grid = case
    t = 0.5 * (t + np.swapaxes(t, -1, -2))
    v = data.draw(hnp.arrays(np.float64, t.shape[:-1], elements=FLOATS))
    div_t, dv = ps.divergence(t, grid), ps.sym_gradient(v, grid)
    lhs = grid.h**2 * np.sum(div_t * v)
    rhs = -grid.h**2 * np.sum(t * dv)
    scale = grid.h**2 * (np.sum(np.abs(div_t * v)) + np.sum(np.abs(t * dv)))
    assert math.isclose(lhs, rhs, rel_tol=0.0, abs_tol=1e-12 * scale)
