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


def test_difference_of_a_one_dimensional_array():
    for n in (1, 2, 3, 9):
        a, h = np.arange(float(n)) ** 2, 2.0 * math.pi / n
        got = stencil.difference(a, 0, h, np.empty(n))
        assert _bitwise_equal(got, (np.roll(a, -1) - np.roll(a, 1)) / (2.0 * h))


def _strided_copy(a):
    """A non-contiguous array holding the values of ``a``."""
    out = np.empty(a.shape + (2,))[..., 0]
    out[...] = a
    return out


@settings(max_examples=80, deadline=None)
@given(values=hnp.arrays(np.float64, st.tuples(
           st.lists(st.integers(1, 3), max_size=2).map(tuple),
           st.sampled_from([1, 2, 3, 8])).map(lambda s: s[0] + (s[1],)), elements=FLOATS),
       strided_in=st.booleans(), strided_out=st.booleans(), data=st.data())
def test_contiguous_difference_equals_the_strided_one(values, strided_in, strided_out, data):
    # C-contiguous input and output take the flattened subtract along the last
    # axis; a strided input or output, or another axis, the sliced one
    h = 2.0 * math.pi / values.shape[-1]
    axis = data.draw(st.integers(-values.ndim, values.ndim - 1))
    a = _strided_copy(values) if strided_in else values.copy()
    out = _strided_copy(np.empty_like(values)) if strided_out else np.empty_like(values)
    got = stencil.difference(a, axis, h, out)
    strided = stencil.difference(_strided_copy(values), axis, h, _strided_copy(values))
    roll = (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2.0 * h)
    assert got is out
    assert np.array_equal(got.view(np.uint64), np.ascontiguousarray(strided).view(np.uint64))
    assert _bitwise_equal(np.ascontiguousarray(got), roll)


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
