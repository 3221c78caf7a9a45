"""Property test of the row-space projection of l2 feature rows.

``_NormContext`` replaces numerically low-rank l2 feature rows by their
coordinates in an orthonormal basis of their row space.  The reference is the
context built on the exact rows (the projection switched off): difference
norms, seminorms and the Hoelder seminorm agree to rounding, a constant-in-time
field still measures exactly zero, and rows of full rank keep the exact path
bit for bit.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import symplap.function_spaces as fs

N = 8
GEOM = fs.SpaceGeometry(h=2 * math.pi / N, ndim=2)
FIELD_NORMS = [fs.WM12, fs.L2, fs.W12]
EPS = np.finfo(float).eps


def exact_context(f, x_norm):
    with mock.patch.object(fs, "_row_space_coordinates", lambda rows: None):
        return fs._NormContext(f, x_norm)


@st.composite
def functions(draw, full_rank=False):
    """(f, X, rank): m samples whose feature rows have rank 1-3 (or full rank)
    from random factors, either vectors of M in {16, 64, 200} entries in the
    Euclidean norm, or lifted 8x8 fields sum_i c_i(t) V_i(x) in the spectral
    W^{-1,2} (complex rows), L^2 or W^{1,2}.  A power-of-two scale may push
    them into the rescaling of ``_features``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(12, 60))
    rank = m if full_rank else draw(st.integers(1, 3))
    coeffs = 2.0 ** draw(st.sampled_from([0, -600, 600])) * rng.standard_normal((m, rank))
    if draw(st.booleans()):
        coeffs = np.cumsum(coeffs, axis=0)
    dt = 1.0 / (m - 1)
    if draw(st.booleans()):
        modes = rng.standard_normal((rank, draw(st.sampled_from([16, 64, 200]))))
        return fs.TimeGridFunction(coeffs @ modes, 0.0, dt), fs.EUCLID, rank
    values = np.tensordot(coeffs, rng.standard_normal((rank, N, N, 2)), axes=1)
    f = fs.TimeGridFunction(values, 0.0, dt, geometry=GEOM)
    return f, draw(st.sampled_from(FIELD_NORMS)), rank


norm_params = dict(r=st.integers(1, 3), alpha=st.floats(0.0, 2.0),
                   p=st.sampled_from([1.0, 2.0, math.inf]), lam=st.floats(0.05, 1.5))


@settings(max_examples=80, deadline=None)
@given(case=functions(), data=st.data(), **norm_params)
def test_projected_rows_give_the_exact_norms(case, data, r, alpha, p, lam):
    f, x_norm, rank = case
    ctx, ref = fs._NormContext(f, x_norm), exact_context(f, x_norm)
    assert ctx.rows.shape == (f.n_samples, rank)
    assert np.array_equal(ctx.sample_norms, ref.sample_norms) and ctx.scale == ref.scale
    # both sides difference rounded rows; a value within rounding of the
    # snapping floor may be snapped on one side only
    floor = 2 * 32.0 * 2.0**r * EPS * ref.scale
    k = data.draw(st.integers(1, (f.n_samples - 2) // r))
    want = ref.difference_sample_norms(r, k)
    assert np.all(np.abs(ctx.difference_sample_norms(r, k) - want) <= 1e-13 * want + floor)
    want = ref.seminorm(alpha, r, 1.0, p)
    assert abs(ctx.seminorm(alpha, r, 1.0, p) - want) <= 1e-13 * want + floor * f.dt ** -alpha
    want = ref.holder_seminorm(lam)
    floor = 64.0 * EPS * ref.scale * f.dt ** -lam
    assert abs(ctx.holder_seminorm(lam) - want) <= 1e-13 * want + floor


@settings(max_examples=40, deadline=None)
@given(case=functions(), **norm_params)
def test_constant_in_time_field_measures_zero(case, r, alpha, p, lam):
    f, x_norm, _ = case
    const = fs.TimeGridFunction(np.repeat(f.values[:1], f.n_samples, axis=0), f.t0, f.dt,
                                f.geometry)
    ctx = fs._NormContext(const, x_norm)
    assert ctx.rows.shape == (f.n_samples, 1)
    assert ctx.holder_seminorm(lam) == 0.0  # raw differences, no snapping
    assert ctx.seminorm(alpha, r, 1.0, p) == 0.0
    assert not np.any(ctx.difference_sample_norms(r, 1))


@settings(max_examples=40, deadline=None)
@given(case=functions(full_rank=True), **norm_params)
def test_full_rank_rows_keep_the_exact_path(case, r, alpha, p, lam):
    f, x_norm, _ = case
    ctx, ref = fs._NormContext(f, x_norm), exact_context(f, x_norm)
    assert ctx.rows.dtype == ref.rows.dtype
    assert np.array_equal(ctx.rows.view(np.uint64), ref.rows.view(np.uint64))
    assert ctx.seminorm(alpha, r, 1.0, p) == ref.seminorm(alpha, r, 1.0, p)
    assert ctx.holder_seminorm(lam) == ref.holder_seminorm(lam)
