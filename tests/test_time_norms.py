"""Property tests of the time norms of ``_NormContext``.

Scalar functions and 8x8 vector fields: the seminorm is monotone in its step
cap and absolutely homogeneous, the Hoelder seminorm is the maximum over all
sample pairs, and the Bochner L^p norm does not grow under restriction to a
contiguous sub-interval (the monotone-weight convention of ``time_lp``).
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import symplap.function_spaces as fs

N = 8
GEOM = fs.SpaceGeometry(h=2 * math.pi / N, ndim=2)
FIELD_NORMS = [fs.L2, fs.W12, fs.WM12, fs.lp(3.0), fs.w1p(1.5), fs.wm1p(1.5)]
TIME_PS = [1.0, 2.0, 3.0, math.inf]
EPS = np.finfo(float).eps
SUBNORMAL = np.finfo(float).smallest_subnormal


@st.composite
def functions(draw):
    """(f, X): a scalar function in the Euclidean norm or an 8x8 field in a
    Sobolev-scale norm; rough samples, or their running sums of magnitudes,
    whose largest differences sit at the longest lags."""
    scalar = draw(st.booleans())
    m = draw(st.integers(5, 40 if scalar else 9))
    shape, bound = ((m,), 100.0) if scalar else ((m, N, N, 2), 8.0)
    values = draw(hnp.arrays(np.float64, shape, elements=st.floats(-bound, bound)))
    if draw(st.booleans()):
        values = np.cumsum(np.abs(values), axis=0)
    if scalar:
        return fs.TimeGridFunction(values, 0.0, 1.0 / (m - 1)), fs.EUCLID
    f = fs.TimeGridFunction(values, 0.0, 1.0 / (m - 1), geometry=GEOM)
    return f, draw(st.sampled_from(FIELD_NORMS))


seminorm_params = dict(alpha=st.floats(0.0, 2.0), r=st.integers(1, 3),
                       p=st.sampled_from(TIME_PS))


@settings(max_examples=60, deadline=None)
@given(case=functions(), lo=st.floats(0.0, 1.0), hi=st.floats(0.0, 1.0), **seminorm_params)
def test_seminorm_never_decreases_as_delta_grows(case, lo, hi, alpha, r, p):
    f, x_norm = case
    ctx = fs._NormContext(f, x_norm)
    d1, d2 = f.dt + min(lo, hi) * (1 - f.dt), f.dt + max(lo, hi) * (1 - f.dt)
    assert ctx.seminorm(alpha, r, d1, p) <= ctx.seminorm(alpha, r, d2, p)


@settings(max_examples=60, deadline=None)
@given(case=functions(), c=st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3),
       delta=st.floats(0.0, 1.0), **seminorm_params)
@example(case=(fs.TimeGridFunction(np.array([6.4e-162, 0.0, 0.0, 0.0, 0.0]), 0.0, 0.25), fs.EUCLID),
         c=0.5, delta=0.0, alpha=0.0, r=1, p=2.0)  # squares of the sample norms underflow
@example(case=(fs.TimeGridFunction(2.2e-311 * np.arange(1.0, 6.0), 0.0, 0.25), fs.EUCLID),
         c=0.001, delta=0.0, alpha=0.5, r=1, p=3.0)  # subnormal samples
def test_seminorm_is_absolutely_homogeneous(case, c, delta, alpha, r, p):
    f, x_norm = case
    delta = f.dt + delta * (1 - f.dt)
    scaled = fs.TimeGridFunction(c * f.values, f.t0, f.dt, f.geometry)
    base = fs._NormContext(f, x_norm)
    got = fs._NormContext(scaled, x_norm).seminorm(alpha, r, delta, p)
    want = abs(c) * base.seminorm(alpha, r, delta, p)
    # differences of nearly equal samples keep the rounding of the samples'
    # size, and a value within rounding of the snapping floor may land on
    # either side of it: both stay below the floor, weighted by dt**(-alpha)
    floor = abs(c) * 32.0 * 2.0**r * EPS * base.scale * f.dt ** (-alpha)
    # subnormal samples, and a subnormal base seminorm scaled by |c|, are
    # rounded to multiples of 5e-324, which the relative floor underflows
    # below: keep 16 such steps per sample of an r-th difference
    floor = max(floor, 16.0 * (1.0 + abs(c)) * 2.0**r * SUBNORMAL * f.dt ** (-alpha))
    assert abs(got - want) <= 1e-12 * want + floor


@settings(max_examples=40, deadline=None)
@given(case=functions(), lam=st.floats(0.05, 1.5))
@example(case=(fs.TimeGridFunction(2.2250738585e-313 * np.arange(1.0, 6.0)[:, None, None, None]
                                   * np.ones((5, N, N, 2)), 0.0, 0.25, geometry=GEOM), fs.L2),
         lam=1.0)  # subnormal samples: 24 steps of 5e-324 apart, the relative floor is 0
def test_holder_seminorm_is_max_over_all_pairs(case, lam):
    f, x_norm = case
    brute = max(fs.spatial_norm(f.values[j] - f.values[i], x_norm, f.geometry)
                / ((j - i) * f.dt) ** lam
                for i in range(f.n_samples) for j in range(i + 1, f.n_samples))
    ctx = fs._NormContext(f, x_norm)
    # the engine differences feature rows, the brute force differences samples:
    # they agree up to rounding relative to the samples' size
    floor = 64.0 * EPS * ctx.scale * f.dt ** (-lam)
    # subnormal samples keep only absolute precision: each operation on them
    # rounds to a multiple of 5e-324, which the relative floor underflows
    # below; keep 4 such steps per entry of a sample
    floor = max(floor, 4.0 * f.values[0].size * SUBNORMAL * f.dt ** (-lam))
    assert abs(ctx.holder_seminorm(lam) - brute) <= 1e-12 * brute + floor


@settings(max_examples=60, deadline=None)
@given(case=functions(), data=st.data(), p=st.sampled_from(TIME_PS))
def test_lp_norm_does_not_grow_on_a_sub_interval(case, data, p):
    f, x_norm = case
    i = data.draw(st.integers(0, f.n_samples - 2))
    j = data.draw(st.integers(i + 2, f.n_samples))
    sub = fs.TimeGridFunction(f.values[i:j], f.t0 + i * f.dt, f.dt, f.geometry)
    whole = fs._NormContext(f, x_norm).lp_norm(p)
    # the slack covers the summation order of the two sums, nothing else
    assert fs._NormContext(sub, x_norm).lp_norm(p) <= whole * (1 + 1e-12)
