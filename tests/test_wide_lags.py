"""Wide lags in blocks of samples, and the dictionary functionals built in place.

A lag whose difference alone holds more than ``_LAG_BLOCK_ELEMENTS`` entries
is differenced and reduced in blocks of samples.  Every sample norm, lag
profile and Hoelder seminorm must equal the one-block evaluation of
``reference`` bit for bit, compared as ``uint64`` views: on l2 rows (q = 2),
l^3 rows (q = 3) and complex spectral W^{-1,2} rows, for r = 1 and 2, with
a partial last block of samples and on data that ``_scaled`` rescales.  On
the analyzer's inner-ball W^{1,q} rows (3.2 MB) one difference norm, with
its context, allocates at most 1.5x the rows.  The W^{-1,q'} functionals
equal the out-of-place expression bit for bit, masked and unmasked; on the
analyzer's ball their first build allocates about the matrix plus the
dictionary it caches.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
import symplap.function_spaces as fs
from symplap import pde_solver as ps
from symplap import regularity_analyzer as ra

N = 8
GEOM = fs.SpaceGeometry(h=2 * math.pi / N, ndim=2)
NORMS = {"q = 2": fs.L2, "q = 3": fs.lp(3.0), "spectral": fs.WM12}


def bits(x):
    """uint64 view of floats; complex entries through their real view."""
    x = np.ascontiguousarray(x)
    return (x.view(float) if np.iscomplexobj(x) else x.astype(float)).view(np.uint64)


def _peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@settings(max_examples=100, deadline=None)
@given(norm=st.sampled_from(sorted(NORMS)), r=st.integers(1, 2), per_block=st.integers(1, 4),
       blocks=st.integers(2, 4), partial=st.integers(0, 3), k=st.integers(1, 3),
       scale=st.sampled_from([0, 600, -600]), seed=st.integers(0, 2**32 - 1),
       p=st.sampled_from([1.0, 2.0, 3.0, math.inf]), lam=st.floats(0.05, 1.5))
def test_wide_lags_equal_the_one_block_evaluation(norm, r, per_block, blocks, partial, k, scale,
                                                  seed, p, lam):
    # lag k leaves m0 = blocks * per_block + partial samples, so its difference
    # is split into blocks of per_block samples, the last one partial when
    # partial % per_block != 0; 2^600 and 2^-600 data take the rescaled rows
    m0 = blocks * per_block + partial
    values = np.random.default_rng(seed).standard_normal((m0 + r * k, N, N, 2)) * 2.0**scale
    f = fs.TimeGridFunction(values, 0.0, 0.1, GEOM)
    ctx = fs._NormContext(f, NORMS[norm])
    unscaled = fs._feature_map(values, NORMS[norm], GEOM)[0]
    assert (scale != 0) == (not np.array_equal(bits(ctx.rows), bits(unscaled)))  # _scaled's rows
    width = ctx.rows.shape[1]
    with mock.patch.object(fs, "_LAG_BLOCK_ELEMENTS", per_block * width), \
            mock.patch.object(fs, "_differences", side_effect=fs._differences) as spy:
        got = ctx.difference_sample_norms(r, k)
        norm_k = ctx.difference_norm(r, k, p)
        profile = ctx.lag_profile(r, k, p)
        holder = ctx.holder_seminorm(lam)
    differenced = [call.args[0].shape[0] - call.args[1] * call.args[2] for call in spy.call_args_list]
    assert max(differenced) <= per_block  # no difference of more than a block of samples
    assert np.array_equal(bits(got), bits(reference.difference_sample_norms(ctx, r, k)))
    assert bits(norm_k) == bits(reference.difference_norm(ctx, r, k, p))
    want = [reference.difference_norm(ctx, r, j, p) for j in range(1, k + 1)]
    assert np.array_equal(bits(profile), bits(want))
    assert bits(holder) == bits(reference.holder_seminorm(ctx, lam))


def _inner_ball_function():
    """The criterion-7 inner restriction's shape: 289 samples of the n = 64
    field, on the r = 0.85 ball."""
    grid = ps.TorusGrid(64)
    mask = ra._ball_mask(grid, (math.pi, math.pi), 0.85)
    values = np.random.default_rng(7).standard_normal((289, 64, 64, 2))
    return fs.TimeGridFunction(values, 0.0, 1.0 / 200, grid.geometry(mask))


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("norm", [fs.W12, fs.w1p(3.0)], ids=lambda x: x.label())
def test_a_wide_lag_allocates_little_beyond_the_rows(norm, r):
    """Each lag of these rows is wide.  A context with one difference norm
    allocates at most 1.5x the rows it keeps (1.3x measured); differencing
    the lag whole took about 3x."""
    f = _inner_ball_function()
    rows = fs._NormContext(f, norm).rows
    assert rows.nbytes >= 3 * 2**20 and rows.shape[1] * (289 - r) > fs._LAG_BLOCK_ELEMENTS
    peak = _peak(lambda: fs._NormContext(f, norm).difference_norm(r, 1, 3.0))
    assert peak <= 1.5 * rows.nbytes


@pytest.mark.parametrize("masked", [True, False], ids=["ball", "unmasked"])
@pytest.mark.parametrize("q", [1.5, 2.0, math.inf])
def test_dictionary_functionals_equal_the_out_of_place_expression(q, masked):
    grid = ps.TorusGrid(16)
    mask = ra._ball_mask(grid, (math.pi, math.pi), 1.7) if masked else None
    geom = grid.geometry(mask)
    got = fs._dictionary_functionals(geom, (16, 16), 2, q)
    assert got.flags.c_contiguous
    assert np.array_equal(bits(got), bits(reference.dictionary_functionals(geom, (16, 16), 2, q)))


def test_dictionary_functionals_allocate_their_matrix_and_the_dictionary():
    """The analyzer's W^{-1,3/2} rows: the n = 64 grid on the r = 0.85 ball.
    With the dictionary cache cleared, the build allocates at most about the
    matrix plus the 2 MB dictionary that it caches (1.03x measured; the
    out-of-place expression took 2x); with the dictionary cached, about the
    matrix alone.  The dictionary's W^{1,3} norms stream in blocks of
    samples, which on a ball allocate little."""
    grid = ps.TorusGrid(64)
    geom = grid.geometry(ra._ball_mask(grid, (math.pi, math.pi), 0.85))
    fs._test_dictionary.cache_clear()
    built = []
    first = _peak(lambda: built.append(fs._dictionary_functionals(geom, (64, 64), 2, 1.5)))
    dictionary = fs._test_dictionary((64, 64), 2)
    assert built[0].shape == (fs._DICTIONARY_SIZE, 64 * 64 * 2)
    assert first <= 1.1 * (built[0].nbytes + dictionary.nbytes)
    assert _peak(lambda: fs._dictionary_functionals(geom, (64, 64), 2, 1.5)) <= 1.1 * built[0].nbytes
