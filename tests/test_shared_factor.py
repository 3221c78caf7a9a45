"""Property tests of the factor shared by the interpolation check's contexts.

``check_interpolation`` takes its L^2, W^{1,2} and W^{-1,2} contexts from
the field, like every other check.  A field built by
``TimeGridFunction.separable`` as ``C V`` hands its one factor to all three,
and a context built after another equals one built on a fresh copy of the
field, bit for bit.  The reference is one context per norm on the exact rows
of ``dataclasses.replace(f)``, which has no factor, the path taken when the
field is zero, the norm is not an l2 norm (W^{-1,2} on a ball), or the rows
could reach the power-of-two rescaling of ``_features``.  Lag profiles and
seminorms agree to rounding, a constant-in-time field measures exactly zero,
the fallback cases give bit-for-bit the reports of exact contexts, and a
corpus field maps no more than its 2 modes.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
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
    fresh = dataclasses.replace(f)
    assert fresh._separable is None
    return [fresh.context(norm) for norm in NORMS]


def twin(f, geometry=GEOM):
    """A fresh separable field on the same factor."""
    return fs.TimeGridFunction.separable(*f._separable, f.t0, f.dt, geometry)


def assert_same(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def lifted(rng, m, rank, profile, scale=1.0):
    """sum_i c_i(t) V_i on the 8x8 torus: random modes V_i, profiles c_i that
    are white noise, random walks, random sinusoids in t, or zero."""
    t = np.linspace(0.0, 1.0, m)[:, None]
    if profile == "noise":
        coeffs = rng.standard_normal((m, rank))
    elif profile == "walk":
        coeffs = np.cumsum(rng.standard_normal((m, rank)), axis=0)
    elif profile == "sine":
        coeffs = np.sin(rng.uniform(1, 20, rank) * t + rng.uniform(0, 2 * np.pi, rank))
    else:
        coeffs = np.zeros((m, rank))
    return fs.TimeGridFunction.separable(scale * coeffs.T, rng.standard_normal((rank, N, N, 2)),
                                         0.0, 1.0 / (m - 1), GEOM)


fields = st.builds(lifted, st.integers(0, 2**32 - 1).map(np.random.default_rng),
                   st.integers(12, 200), st.integers(1, 3),
                   st.sampled_from(["noise", "walk", "sine", "zero"]))


@settings(max_examples=60, deadline=None)
@given(f=fields, r=st.integers(1, 3), alpha=st.floats(0.0, 2.0),
       p=st.sampled_from([1.0, 4.0 / 3.0, 2.0, 4.0, math.inf]))
def test_shared_contexts_give_the_independent_norms(f, r, alpha, p):
    K = (f.n_samples - 2) // r
    for ctx, ref in zip(shared(f), exact(f)):
        if f.values.any():
            assert ctx.rows.shape[1] == len(f._separable[0])
        else:
            assert_same(ctx.rows, ref.rows)  # a zero field keeps the exact rows
        tol = 1e-14 * ref.scale
        assert np.all(np.abs(ctx.sample_norms - ref.sample_norms) <= tol)
        assert np.all(np.abs(ctx.lag_profile(r, K, p) - ref.lag_profile(r, K, p)) <= tol)
        assert abs(ctx.seminorm(alpha, r, 1.0, p) - ref.seminorm(alpha, r, 1.0, p)) \
            <= tol * f.dt**-alpha


@settings(max_examples=30, deadline=None)
@given(f=fields, norm=st.sampled_from(NORMS), first=st.sampled_from(NORMS))
def test_shared_factor_changes_no_context(f, norm, first):
    f.context(first)  # another norm of f reads the factor first
    ctx, alone = f.context(norm), fs._NormContext(twin(f), norm)
    assert_same(ctx.rows, alone.rows)
    assert_same(ctx.sample_norms, alone.sample_norms)
    assert ctx.scale == alone.scale


@settings(max_examples=30, deadline=None)
@given(f=fields, r=st.integers(1, 3), p=st.sampled_from([1.0, 2.0, math.inf]))
def test_constant_in_time_field_measures_zero(f, r, p):
    coeffs, modes = f._separable
    const = fs.TimeGridFunction.separable(np.repeat(coeffs[:, :1], f.n_samples, axis=1), modes,
                                          f.t0, f.dt, f.geometry)
    for ctx in shared(const):
        assert ctx.rows.shape[1] <= len(coeffs) or not const.values.any()
        assert ctx.holder_seminorm(0.5) == 0.0
        assert ctx.seminorm(0.5, r, 1.0, p) == 0.0
        assert not np.any(ctx.difference_sample_norms(r, 1))


def assert_fallback(f, norms=NORMS):
    """The contexts of ``norms`` keep the exact rows, and the check's report
    is bit for bit that of exact contexts."""
    for norm, ctx, ref in zip(NORMS, shared(f), exact(f)):
        if norm in norms:
            assert_same(ctx.rows, ref.rows)
    if norms == NORMS:
        got = fs.check_interpolation(f, **PARAMS)
        want = fs.check_interpolation(dataclasses.replace(f), **PARAMS)
        assert_same(np.array([got.lhs, got.rhs]), np.array([want.lhs, want.rhs]))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(12, 60), rank=st.integers(1, 3),
       exp=st.sampled_from([-600, 600]))
def test_rescaled_field_keeps_independent_contexts(seed, m, rank, exp):
    assert_fallback(lifted(np.random.default_rng(seed), m, rank, "walk", 2.0**exp))


def test_zero_field_keeps_independent_contexts():
    assert_fallback(lifted(np.random.default_rng(3), 40, 2, "zero"))


def test_masked_w_minus_one_keeps_the_exact_rows():
    # on a ball W^{-1,2} is the dictionary lower bound, a max over
    # functionals, not an l2 norm; the L^2 and W^{1,2} rows stay linear and l2
    f = lifted(np.random.default_rng(3), 40, 2, "walk")
    x = np.arange(N) - N / 2
    masked = twin(f, fs.SpaceGeometry(GEOM.h, 2, np.add.outer(x**2, x**2) <= 9.0))
    assert_fallback(masked, norms=(fs.WM12,))
    for ctx, ref in zip(shared(masked)[:2], exact(masked)[:2]):
        assert ctx.rows.shape == (40, 2)
        assert np.all(np.abs(ctx.sample_norms - ref.sample_norms) <= 1e-14 * ref.scale)


def test_a_copy_with_other_samples_has_no_factor():
    # a factor carried over by dataclasses.replace would measure the old samples
    f = lifted(np.random.default_rng(5), 20, 2, "walk")
    other = dataclasses.replace(f, values=2.0 * f.values)
    assert other._separable is None
    assert_same(other.context(fs.L2).rows, fs._features(2.0 * f.values, fs.L2, GEOM)[0])
    assert other.context(fs.L2).scale == pytest.approx(2.0 * f.context(fs.L2).scale, rel=1e-14)


@pytest.mark.parametrize("coeffs, modes, match", [
    (np.zeros((0, 12)), np.zeros((0, 8, 8, 2)),
     r"^coeffs must have shape \(k, n_samples\) with k >= 1, got shape \(0, 12\)$"),
    (np.zeros(12), np.zeros((1, 8, 8, 2)),
     r"^coeffs must have shape \(k, n_samples\) with k >= 1, got shape \(12,\)$"),
    (np.zeros((2, 12)), np.zeros((3, 8, 8, 2)),
     r"^modes must hold k = 2 states along axis 0, got shape \(3, 8, 8, 2\)$"),
    (np.zeros((2, 12)), np.zeros(()), r"^modes must hold k = 2 states along axis 0, got shape \(\)$"),
])
def test_separable_rejects_mismatched_shapes(coeffs, modes, match):
    with pytest.raises(ValueError, match=match):
        fs.TimeGridFunction.separable(coeffs, modes, 0.0, 0.1, GEOM)


def test_corpus_field_maps_only_its_basis():
    # the 1,025-sample lifted field must not go through a feature map whole
    f = lift_to_field(build_corpus(100, 1234)[7], 1025)
    with mock.patch.object(fs, "_feature_map", wraps=fs._feature_map) as spy:
        fs.check_interpolation(f, **verify.CANONICAL_PARAMS[fs.INTERPOLATION])
    assert spy.call_count == 3
    assert [call.args[0].shape[0] for call in spy.call_args_list] == [2, 2, 2]
