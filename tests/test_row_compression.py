"""Property test of the factored path of ``_NormContext``.

A function built by ``TimeGridFunction.separable`` as ``C V`` keeps its
factor; a context whose norm is the l2 norm of linear rows maps only the
modes V and differences the coordinates of the mapped rows.  The reference is
the context built on the exact rows of ``dataclasses.replace(f)``, which has
no factor: sample norms and the floor scale agree to 1e-14 of the scale,
difference norms, seminorms and the Hoelder seminorm to rounding, a
constant-in-time field still measures exactly zero, and rows in the
power-of-two rescaling range keep the exact path bit for bit.  A function
built from its samples never factors, whatever their rank.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import symplap.function_spaces as fs

N = 8
GEOM = fs.SpaceGeometry(h=2 * math.pi / N, ndim=2)
FIELD_NORMS = [fs.WM12, fs.L2, fs.W12]
EPS = np.finfo(float).eps


def exact_context(f, x_norm):
    return fs._NormContext(dataclasses.replace(f), x_norm)


def assert_same_rows(rows, ref):
    assert rows.dtype == ref.dtype
    assert np.array_equal(rows.view(np.uint64), ref.view(np.uint64))


@st.composite
def factors(draw, full_rank=False):
    """(coeffs, modes, X, rescaled): m samples of rank 1-3 (or full rank), as
    k x m coefficients and k modes, either vectors of M in {16, 64, 200}
    entries in the Euclidean norm, or 8x8 fields in the spectral W^{-1,2}
    (complex rows), L^2 or W^{1,2}.  A power-of-two scale may push them into
    the rescaling of ``_features``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(12, 60))
    rank = m if full_rank else draw(st.integers(1, 3))
    exp = draw(st.sampled_from([0, -600, 600]))
    coeffs = 2.0**exp * rng.standard_normal((m, rank))
    if draw(st.booleans()):
        coeffs = np.cumsum(coeffs, axis=0)
    if draw(st.booleans()):
        modes = rng.standard_normal((rank, draw(st.sampled_from([16, 64, 200]))))
        return coeffs.T, modes, fs.EUCLID, exp != 0
    return coeffs.T, rng.standard_normal((rank, N, N, 2)), draw(st.sampled_from(FIELD_NORMS)), \
        exp != 0


def separable(coeffs, modes):
    geometry = GEOM if modes.ndim > 2 else None
    return fs.TimeGridFunction.separable(coeffs, modes, 0.0, 1.0 / (coeffs.shape[1] - 1), geometry)


norm_params = dict(r=st.integers(1, 3), alpha=st.floats(0.0, 2.0),
                   p=st.sampled_from([1.0, 2.0, math.inf]), lam=st.floats(0.05, 1.5))


@settings(max_examples=80, deadline=None)
@given(case=factors(), data=st.data(), **norm_params)
def test_projected_rows_give_the_exact_norms(case, data, r, alpha, p, lam):
    coeffs, modes, x_norm, rescaled = case
    f = separable(coeffs, modes)
    ctx, ref = fs._NormContext(f, x_norm), exact_context(f, x_norm)
    if rescaled:
        assert_same_rows(ctx.rows, ref.rows)
    else:
        assert ctx.rows.shape == (f.n_samples, len(coeffs))
    assert np.all(np.abs(ctx.sample_norms - ref.sample_norms) <= 1e-14 * ref.scale)
    assert abs(ctx.scale - ref.scale) <= 1e-14 * ref.scale
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
@given(case=factors(), **norm_params)
def test_constant_in_time_field_measures_zero(case, r, alpha, p, lam):
    coeffs, modes, x_norm, rescaled = case
    const = separable(np.repeat(coeffs[:, :1], coeffs.shape[1], axis=1), modes)
    ctx = fs._NormContext(const, x_norm)
    if rescaled:
        assert_same_rows(ctx.rows, exact_context(const, x_norm).rows)
    else:
        assert ctx.rows.shape == (const.n_samples, len(coeffs))
    assert ctx.holder_seminorm(lam) == 0.0  # raw differences, no snapping
    assert ctx.seminorm(alpha, r, 1.0, p) == 0.0
    assert not np.any(ctx.difference_sample_norms(r, 1))


@settings(max_examples=40, deadline=None)
@given(case=st.booleans().flatmap(lambda full: factors(full_rank=full)), **norm_params)
def test_a_function_built_from_samples_never_factors(case, r, alpha, p, lam):
    # low rank or full rank: without a factor the context keeps the exact rows
    coeffs, modes, x_norm, _ = case
    f = separable(coeffs, modes)
    from_samples = fs.TimeGridFunction(f.values, f.t0, f.dt, f.geometry)
    ctx = fs._NormContext(from_samples, x_norm)
    rows, reduce = fs._features(f.values, x_norm, f.geometry)
    assert_same_rows(ctx.rows, rows)
    assert np.array_equal(ctx.sample_norms, reduce(rows))
    ref = exact_context(f, x_norm)
    assert ctx.seminorm(alpha, r, 1.0, p) == ref.seminorm(alpha, r, 1.0, p)
    assert ctx.holder_seminorm(lam) == ref.holder_seminorm(lam)
