"""Property tests of the factor shared by the interpolation check's contexts.

``check_interpolation`` takes its L^2, W^{1,2} and W^{-1,2} contexts from
the field, like every other check, and they share the field's one
factorisation ``C Q^T`` of the raw samples; a context built on the shared
factor equals one built on a fresh copy of the field, bit for bit.  The
reference is one context per norm on the exact rows of a fresh copy
(``_row_space_coordinates`` switched off), the path
taken when the raw samples are zero or not of low rank, the geometry is
masked, or the rows could reach the power-of-two rescaling of ``_features``.
Lag profiles and seminorms agree to rounding, a constant-in-time field
measures exactly zero, the fallback cases give bit-for-bit the reports of
exact contexts, and a corpus field maps no more than the 8 basis fields.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import symplap.function_spaces as fs
from symplap import verify
from symplap.corpus import build_corpus, lift_to_field

N = 8
GEOM = fs.SpaceGeometry(h=2 * math.pi / N, ndim=2)
NORMS = (fs.L2, fs.W12, fs.WM12)
PARAMS = dict(verify.CANONICAL_PARAMS[fs.INTERPOLATION], delta=0.5)  # a step on 12 samples


def shared(f):
    return [f.context(norm) for norm in NORMS]


def exact(f):
    fresh = dataclasses.replace(f)  # a factor f already holds would bypass the patch
    with mock.patch.object(fs, "_row_space_coordinates", lambda rows: None):
        return [fs._NormContext(fresh, norm) for norm in NORMS]


def assert_same(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def lifted(rng, m, rank, profile, scale=1.0):
    """sum_i c_i(t) V_i on the 8x8 torus: random modes V_i, profiles c_i that
    are white noise, random walks or random sinusoids in t."""
    t = np.linspace(0.0, 1.0, m)[:, None]
    if profile == "noise":
        coeffs = rng.standard_normal((m, rank))
    elif profile == "walk":
        coeffs = np.cumsum(rng.standard_normal((m, rank)), axis=0)
    else:
        coeffs = np.sin(rng.uniform(1, 20, rank) * t + rng.uniform(0, 2 * np.pi, rank))
    values = np.tensordot(scale * coeffs, rng.standard_normal((rank, N, N, 2)), axes=1)
    return fs.TimeGridFunction(values, 0.0, 1.0 / (m - 1), geometry=GEOM)


fields = st.builds(lifted, st.integers(0, 2**32 - 1).map(np.random.default_rng),
                   st.integers(12, 200), st.integers(0, 3),
                   st.sampled_from(["noise", "walk", "sine"]))


@settings(max_examples=60, deadline=None)
@given(f=fields, r=st.integers(1, 3), alpha=st.floats(0.0, 2.0),
       p=st.sampled_from([1.0, 4.0 / 3.0, 2.0, 4.0, math.inf]))
def test_shared_contexts_give_the_independent_norms(f, r, alpha, p):
    K = (f.n_samples - 2) // r
    for ctx, ref in zip(shared(f), exact(f)):
        if f.values.any():
            assert ctx.rows.shape[1] <= 8
        else:
            assert_same(ctx.rows, ref.rows)  # a zero field has no factor
        tol = 1e-14 * ref.scale
        assert np.all(np.abs(ctx.sample_norms - ref.sample_norms) <= tol)
        assert np.all(np.abs(ctx.lag_profile(r, K, p) - ref.lag_profile(r, K, p)) <= tol)
        assert abs(ctx.seminorm(alpha, r, 1.0, p) - ref.seminorm(alpha, r, 1.0, p)) \
            <= tol * f.dt**-alpha


@settings(max_examples=30, deadline=None)
@given(f=fields, norm=st.sampled_from(NORMS), first=st.sampled_from(NORMS))
def test_shared_factor_changes_no_context(f, norm, first):
    f.context(first)  # another norm of f computes the factor
    ctx, alone = f.context(norm), fs._NormContext(dataclasses.replace(f), norm)
    assert_same(ctx.rows, alone.rows)
    assert_same(ctx.sample_norms, alone.sample_norms)
    assert ctx.scale == alone.scale


@settings(max_examples=30, deadline=None)
@given(f=fields, r=st.integers(1, 3), p=st.sampled_from([1.0, 2.0, math.inf]))
def test_constant_in_time_field_measures_zero(f, r, p):
    const = fs.TimeGridFunction(np.repeat(f.values[:1], f.n_samples, axis=0), f.t0, f.dt,
                                f.geometry)
    for ctx in shared(const):
        assert ctx.rows.shape[1] <= 1 or not const.values.any()
        assert ctx.holder_seminorm(0.5) == 0.0
        assert ctx.seminorm(0.5, r, 1.0, p) == 0.0
        assert not np.any(ctx.difference_sample_norms(r, 1))


def assert_fallback(f):
    """The shared contexts keep the exact rows, and the check's report is
    bit for bit that of exact contexts."""
    for ctx, ref in zip(shared(f), exact(f)):
        assert_same(ctx.rows, ref.rows)
    got = fs.check_interpolation(f, **PARAMS)
    with mock.patch.object(fs, "_row_space_coordinates", lambda rows: None):
        want = fs.check_interpolation(dataclasses.replace(f), **PARAMS)
    assert_same(np.array([got.lhs, got.rhs]), np.array([want.lhs, want.rhs]))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(12, 60))
def test_full_rank_field_keeps_independent_contexts(seed, m):
    assert_fallback(lifted(np.random.default_rng(seed), m, m, "noise"))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(12, 60), rank=st.integers(1, 3),
       exp=st.sampled_from([-600, 600]))
def test_rescaled_field_keeps_independent_contexts(seed, m, rank, exp):
    assert_fallback(lifted(np.random.default_rng(seed), m, rank, "walk", 2.0**exp))


def test_masked_field_keeps_independent_contexts():
    # on a ball no context factors its samples; W^{-1,2} is the dictionary
    # lower bound there, not an l2 norm
    f = lifted(np.random.default_rng(3), 40, 2, "walk")
    x = np.arange(N) - N / 2
    mask = np.add.outer(x**2, x**2) <= 9.0
    masked = fs.TimeGridFunction(f.values, f.t0, f.dt, fs.SpaceGeometry(GEOM.h, 2, mask))
    with mock.patch.object(fs, "_row_space_coordinates") as spy:
        assert_fallback(masked)
    assert spy.call_count == 0


def test_corpus_field_maps_only_its_basis():
    # the 1,025-sample lifted field must not go through a feature map whole
    f = lift_to_field(build_corpus(100, 1234)[7], 1025)
    with mock.patch.object(fs, "_feature_map", wraps=fs._feature_map) as spy:
        fs.check_interpolation(f, **verify.CANONICAL_PARAMS[fs.INTERPOLATION])
    assert spy.call_count == 3
    assert max(call.args[0].shape[0] for call in spy.call_args_list) <= 8
