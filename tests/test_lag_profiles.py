"""Bit-for-bit property tests of the blocked lag evaluation of ``_NormContext``.

The evaluator differences whole blocks of lags at once.  Every difference
norm, seminorm, lag profile and Hoelder seminorm must equal the per-lag
loops of ``reference`` exactly, compared as ``uint64`` views, for every
reduction of ``_features``: l2 on scalars, real rows, complex spectral
W^{-1,2} rows and row-space coordinates; the masked l^q reduction, W^{1,q}
with component blocks [2, 4] included; and the dictionary max-abs.  Data
are random, constant or affine in time (exact zeros through the snapping
floor) and may be scaled by 2^600 or 2^-600 (the ``_unit_exponent`` path).
The block constants are shrunk in some examples, so one profile spans many
blocks with a partial last one.  The kernels underneath are pinned on their
own: the plane-summed l2 of narrow rows, the strided lag windows and the
per-row time norm, whose Python-float root must still give inf, not raise,
when the rescaled norm overflows.
"""

import contextlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
import symplap.function_spaces as fs
from symplap.errors import EmptyDomainError

N = 8
GEOM = fs.SpaceGeometry(h=2 * math.pi / N, ndim=2)
TIME_PS = [1.0, 4.0 / 3.0, 2.0, 3.0, 4.0, math.inf]
KINDS = ["scalar", "rows", "spectral", "row space", "lq", "masked w1q", "dictionary"]


def bits(x):
    """uint64 view of floats; complex entries through their real view."""
    x = np.asarray(x)
    if x.dtype.kind == "c":
        x = np.ascontiguousarray(x).view(float)
    return np.asarray(x, dtype=float).view(np.uint64)


def time_profile(rng, m, kind):
    """Coefficients c(t) of shape (m, rank): random (possibly running sums),
    constant or affine in t."""
    rank = 1 if kind != "random" else 3
    c = rng.standard_normal((m, rank))
    if kind == "constant":
        return np.repeat(c[:1], m, axis=0)
    if kind == "affine":
        return c[:1] + np.linspace(0.0, 1.0, m)[:, None] * c[1:2]
    return np.cumsum(c, axis=0) if rng.random() < 0.5 else c


@st.composite
def contexts(draw):
    """(f, X) covering every reduction of ``_features``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(KINDS))
    data = draw(st.sampled_from(["random", "constant", "affine"]))
    scale = 2.0 ** draw(st.sampled_from([0, 600, -600]))
    m = draw(st.integers(3, 300 if kind == "scalar" else 24))
    c = time_profile(rng, m, data)
    geom, x_norm = GEOM, fs.EUCLID
    if kind == "scalar":
        values = c[:, 0]
        geom = None
    elif kind == "rows":
        values = c @ rng.standard_normal((c.shape[1], draw(st.sampled_from([3, 20]))))
        if data == "random":
            values = values + rng.standard_normal(values.shape)  # full rank
        geom = None
    else:
        modes = rng.standard_normal((c.shape[1], N, N, 2))
        values = np.tensordot(c, modes, axes=1)
        if kind in ("spectral", "masked w1q", "dictionary", "lq") and data == "random":
            values = values + rng.standard_normal(values.shape)  # full rank rows
        if kind == "spectral":
            x_norm = fs.WM12
        elif kind == "row space":
            x_norm = draw(st.sampled_from([fs.L2, fs.W12, fs.WM12]))
        elif kind == "lq":
            x_norm = fs.lp(draw(st.sampled_from([1.5, 3.0, math.inf])))
        elif kind == "masked w1q":
            mask = rng.random((N, N)) < 0.5
            mask[0, 0] = True
            geom = fs.SpaceGeometry(h=GEOM.h, ndim=2, mask=mask)
            x_norm = fs.w1p(draw(st.sampled_from([1.5, 3.0, math.inf])))
        else:
            x_norm = fs.wm1p(1.5)
    f = fs.TimeGridFunction(scale * values, 0.0, 1.0 / (m - 1), geometry=geom)
    return f, x_norm


blocks = st.sampled_from([None, (64, 5), (300, 128), (1, 3)])  # (elements, lags) or the module's


def block_constants(choice):
    if choice is None:
        return contextlib.nullcontext()
    elements, lags = choice
    return mock.patch.multiple(fs, _LAG_BLOCK_ELEMENTS=elements, _LAG_BLOCK_LAGS=lags)


@settings(max_examples=120, deadline=None)
@given(case=contexts(), block=blocks, data=st.data(), r=st.integers(1, 3),
       p=st.sampled_from(TIME_PS), alpha=st.floats(0.0, 2.0), lam=st.floats(0.05, 1.5))
def test_blocks_equal_the_per_lag_loops(case, block, data, r, p, alpha, lam):
    f, x_norm = case
    with block_constants(block):
        ctx = fs._NormContext(f, x_norm)
        k_max = (f.n_samples - 2) // r
        assert bits(ctx.holder_seminorm(lam)) == bits(reference.holder_seminorm(ctx, lam))
        assert bits(ctx.lp_norm(p)) == bits(reference.time_lp(ctx.sample_norms, p, f.dt))
        if k_max < 1:
            with pytest.raises(EmptyDomainError):
                ctx.difference_norm(r, 1, p)
            return
        k = data.draw(st.integers(1, k_max))
        assert np.array_equal(bits(ctx.difference_sample_norms(r, k)),
                              bits(reference.difference_sample_norms(ctx, r, k)))
        assert bits(ctx.difference_norm(r, k, p)) == bits(reference.difference_norm(ctx, r, k, p))
        delta = data.draw(st.integers(1, k_max)) * f.dt
        assert bits(ctx.seminorm(alpha, r, delta, p)) == bits(
            reference.seminorm(ctx, alpha, r, delta, p))
        want = [reference.difference_norm(ctx, r, j, p) for j in range(1, k_max + 1)]
        assert np.array_equal(bits(ctx.lag_profile(r, k_max, p)), bits(want))


@settings(max_examples=60, deadline=None)
@given(case=contexts(), block=blocks, data=st.data(), r=st.integers(1, 3),
       p=st.sampled_from(TIME_PS))
def test_extended_profile_equals_a_fresh_one(case, block, data, r, p):
    f, x_norm = case
    k_max = (f.n_samples - 2) // r
    if k_max < 1:
        return
    k1 = data.draw(st.integers(1, k_max))
    k2 = data.draw(st.integers(k1, k_max))
    with block_constants(block):
        ctx = fs._NormContext(f, x_norm)
        short = ctx.lag_profile(r, k1, p)
        with mock.patch.object(fs._NormContext, "_difference_norms", autospec=True,
                               side_effect=fs._NormContext._difference_norms) as spy:
            extended = ctx.lag_profile(r, k2, p)
        fresh = fs._NormContext(f, x_norm).lag_profile(r, k2, p)
    assert np.array_equal(bits(extended), bits(fresh))
    assert np.array_equal(bits(short), bits(fresh[:k1]))
    # only the lags beyond k1 were computed
    lags = [lag for call in spy.call_args_list
            for lag in range(call.args[2], call.args[2] + call.args[3])]
    assert lags == list(range(k1 + 1, k2 + 1))
    with pytest.raises(EmptyDomainError):
        ctx.lag_profile(r, k_max + 1, p)


def test_constant_and_affine_data_measure_exact_zeros():
    t = np.linspace(0.0, 1.0, 200)
    affine = fs._NormContext(fs.TimeGridFunction(3.0 - 7.0 * t, 0.0, t[1] - t[0]), fs.EUCLID)
    assert not np.any(affine.lag_profile(2, 99, 2.0))
    const = fs._NormContext(fs.TimeGridFunction(np.full(200, 2.0**600), 0.0, t[1] - t[0]),
                            fs.EUCLID)
    assert const.holder_seminorm(0.5) == 0.0
    assert not np.any(const.lag_profile(1, 198, 3.0))


def _peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wide_rows_take_one_lag_per_block_without_copies():
    """On rows as wide as the regularity analyzer's (289 x 1898), a seminorm
    over every admissible lag allocates at most 1.1x the per-lag loop's peak."""
    rng = np.random.default_rng(5)
    f = fs.TimeGridFunction(rng.standard_normal((289, 1898)), 0.0, 1.0 / 288)
    blocked, looped = fs._NormContext(f, fs.EUCLID), fs._NormContext(f, fs.EUCLID)
    assert blocked.rows.shape == (289, 1898)  # full rank: the exact rows
    got = _peak(lambda: blocked.seminorm(0.5, 2, 1.0, 3.0))
    want = _peak(lambda: reference.seminorm(looped, 0.5, 2, 1.0, 3.0))
    assert got <= 1.1 * want


@settings(max_examples=60, deadline=None)
@given(case=contexts(), data=st.data(), r=st.integers(1, 3))
def test_one_lag_difference_is_the_stencil(case, data, r):
    f, _ = case
    k_max = (f.n_samples - 2) // r
    if k_max < 1:
        return
    k = data.draw(st.integers(1, k_max))
    got = fs.higher_difference(f, r, k * f.dt).values
    assert np.array_equal(bits(got), bits(reference.difference(f.values, r, k)))


@st.composite
def row_blocks(draw):
    """(m, width) rows, real or complex, with signed zeros and subnormals,
    scaled by 2^600 or 2^-600 and laid out contiguously or as a column slice."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, width = draw(st.integers(0, 40)), draw(st.integers(0, 9))
    parts = 2 if draw(st.booleans()) else 1
    entries = rng.standard_normal((parts, m, width))
    special = rng.random(entries.shape)
    entries[special < 0.1] = 0.0
    entries[(0.1 <= special) & (special < 0.2)] = -0.0
    entries[(0.2 <= special) & (special < 0.3)] *= 2.0**-1060  # subnormal
    entries *= 2.0 ** draw(st.sampled_from([0, 600, -600]))
    rows = entries[0] + 1j * entries[1] if parts == 2 else entries[0]
    if draw(st.booleans()):
        wide = np.zeros((m, width + 3), rows.dtype)
        wide[:, 1 : width + 1] = rows
        rows = wide[:, 1 : width + 1]
    return rows


@settings(max_examples=300, deadline=None)
@given(rows=row_blocks())
def test_l2_is_the_sum_of_squares_bit_for_bit(rows):
    with np.errstate(over="ignore", under="ignore"):
        got, want = fs._l2(rows), reference.l2(rows)
        square = np.abs(rows[:, 0]) ** 2 if rows.shape[1] == 1 else None
    if rows.shape[1] != 1:
        assert np.array_equal(bits(got), bits(want))
        return
    # one column is |x|, which is sqrt(x*x) wherever x*x neither overflows nor underflows
    assert np.array_equal(bits(got), bits(np.abs(rows[:, 0])))
    normal = (rows[:, 0] == 0.0) | ((square >= np.finfo(float).tiny) & (square < math.inf))
    assert np.array_equal(bits(got[normal]), bits(want[normal]))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), trailing=st.sampled_from(
    [(), (1,), (3,), (2, 2)]), complex_rows=st.booleans(), sliced=st.booleans(), data=st.data())
def test_lag_windows_are_the_sliding_windows(seed, n, trailing, complex_rows, sliced, data):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, *trailing)) + (1j * rng.standard_normal((n, *trailing))
                                               if complex_rows else 0.0)
    if sliced:
        a = np.concatenate([a, a], axis=0)[::2]  # strided along time
    start = data.draw(st.integers(0, n - 1))
    m = data.draw(st.integers(1, n - start))
    step, lags = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
    got = fs._lag_windows(a, start, step, lags, m)
    want = reference.lag_windows(a, start, step, lags, m)
    assert got.shape == want.shape == (lags, m, *trailing)
    assert np.array_equal(bits(got), bits(want))
    if lags > 1:
        assert not got.flags.writeable


def test_lag_windows_pad_a_zero_tail():
    a = np.arange(1.0, 7.0)
    got = fs._lag_windows(a, 2, 2, 3, 3)  # lag 2 reads two samples past the end
    assert np.array_equal(got, [[3.0, 4.0, 5.0], [5.0, 6.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.array_equal(bits(got), bits(reference.lag_windows(a, 2, 2, 3, 3)))


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_time_lp_rows_overflow_to_inf(p):
    """Norms near the float maximum are rescaled by 2^-1024 for their powers;
    the root of a sum of several of them, scaled back, leaves the float range
    and must read inf (``np.ldexp``), not raise (``math.ldexp`` would)."""
    top = np.finfo(float).max
    g = np.array([[top] * 5, [top, top, 0.0, 0.0, 0.0], [top / 4, 0.0, 0.0, 0.0, 0.0]])
    with np.errstate(over="ignore"):
        got = fs._time_lp_rows(g, [5, 2, 1], p, 1.0)
        want = [reference.time_lp(row[:m], p, 1.0) for row, m in zip(g, [5, 2, 1])]
    assert got[0] == math.inf
    assert np.array_equal(bits(got), bits(want))
    assert all(type(value) is float for value in got)
