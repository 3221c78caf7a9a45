"""Spatial norms and feature rows in blocks of samples.

``xnorms_over_time`` maps and reduces blocks of at most
``_LAG_BLOCK_ELEMENTS`` sample entries, and a ``_NormContext`` maps its
samples in such blocks into one matrix of feature rows and reduces its
sample norms in blocks of rows.  Every norm and every row must equal the
one-block evaluation (``reference.features``: one ``_feature_map`` call and
its reduction) bit for bit, compared as ``uint64`` views: for every norm
kind, with and without a mask, with zero to two component axes, on data
scaled by 2^900 or 2^-900 (the rescale path), on data with one tiny or one
huge block among normal ones, and with the block constant patched so that
the sample count sits on a block edge (one sample, one block, one block plus
one).  The caller's samples are never written.  No sample gives an empty
vector and a non-finite sample raises ``ValueError`` naming ``values``.
``lp_norm`` streams these norms, for a separable function too, so on the
analyzer's outer cylinder it allocates a small share of the feature rows
that a context holds, and a context on the inner cylinder allocates little
beyond the rows it keeps.
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
H = 2 * math.pi / N
DISK = np.hypot(*np.meshgrid(np.arange(N) - 3.5, np.arange(N) - 4.0, indexing="ij")) <= 2.6
GEOMS = {"none": None, "full": fs.SpaceGeometry(H, 2), "masked": fs.SpaceGeometry(H, 2, DISK)}
NORMS = [fs.EUCLID, fs.L2, fs.W12, fs.WM12, fs.lp(1.0), fs.lp(3.0), fs.lp(math.inf),
         fs.w1p(1.5), fs.w1p(3.0), fs.w1p(math.inf), fs.wm1p(1.5)]
TIME_PS = [1.0, 2.0, 3.0, math.inf]


def bits(x):
    """The bits of float, or complex, data."""
    x = np.ascontiguousarray(x)
    return (x.view(float) if np.iscomplexobj(x) else x.astype(float)).view(np.uint64)


def one_block(values, norm, geom):
    rows, reduce = reference.features(values, norm, geom)
    return reduce(rows)


@settings(max_examples=200, deadline=None)
@given(norm=st.sampled_from(NORMS), geom=st.sampled_from(sorted(GEOMS)),
       comps=st.sampled_from([(), (2,), (2, 2)]), per_block=st.integers(1, 4),
       spare=st.integers(0, N * N - 1),
       edge=st.sampled_from(["one sample", "one block", "one block + 1", "many blocks"]),
       scale=st.sampled_from(["unit", "2^900", "2^-900", "tiny block", "huge block"]),
       seed=st.integers(0, 2**32 - 1), p=st.sampled_from(TIME_PS))
def test_blocks_equal_the_one_block_evaluation(norm, geom, comps, per_block, spare, edge, scale,
                                               seed, p):
    geom = GEOMS[geom]
    rng = np.random.default_rng(seed)
    m = {"one sample": 1, "one block": per_block, "one block + 1": per_block + 1,
         "many blocks": 3 * per_block + 2}[edge]
    values = rng.standard_normal((m, N, N) + comps)
    if scale in ("2^900", "2^-900"):
        values *= 2.0 ** (900 if scale == "2^900" else -900)
    elif scale != "unit":
        values[:per_block] *= 2.0 ** (-900 if scale == "tiny block" else 900)
    given = values.copy()
    want_rows, want_reduce = reference.features(values, norm, geom)
    want = want_reduce(want_rows)
    entries = N * N * math.prod(comps)
    with mock.patch.object(fs, "_LAG_BLOCK_ELEMENTS", per_block * entries + spare):
        got = fs.xnorms_over_time(values, norm, geom)
        rows, reduce = fs._features(values, norm, geom)
        if m >= 2:
            f = fs.TimeGridFunction(values, 0.0, 0.125, geom)
            ctx = fs._NormContext(f, norm)
            assert np.array_equal(bits(ctx.rows), bits(want_rows))
            assert np.array_equal(bits(ctx.sample_norms), bits(want))
            assert bits(fs.lp_norm(f, p, norm)) == bits(ctx.lp_norm(p))
    assert np.array_equal(bits(got), bits(want))
    assert np.array_equal(bits(rows), bits(want_rows))
    assert np.array_equal(bits(reduce(rows)), bits(want))
    assert np.array_equal(bits(values), bits(given))


def test_the_module_block_splits_wide_samples():
    # 2^16 entries hold 8 samples of shape (64, 64, 2): 20 samples are three blocks
    values = np.random.default_rng(2).standard_normal((20, 64, 64, 2))
    geom = fs.SpaceGeometry(2 * math.pi / 64, 2, np.ones((64, 64), bool))
    with mock.patch.object(fs, "_feature_map", side_effect=fs._feature_map) as spy:
        got = fs.xnorms_over_time(values, fs.w1p(3.0), geom)
    assert [call.args[0].shape[0] for call in spy.call_args_list] == [8, 8, 4]
    assert np.array_equal(bits(got), bits(one_block(values, fs.w1p(3.0), geom)))


def test_a_context_maps_wide_samples_in_blocks():
    # the same three blocks of samples fill one rows matrix, and its sample
    # norms are reduced in blocks of 2^16 entries: two rows of 24,576 features
    values = np.random.default_rng(2).standard_normal((20, 64, 64, 2))
    geom = fs.SpaceGeometry(2 * math.pi / 64, 2, np.ones((64, 64), bool))
    f = fs.TimeGridFunction(values, 0.0, 0.1, geom)
    reduced, lq_reduction = [], fs._lq_reduction

    def recording(*args):
        reduce = lq_reduction(*args)
        return lambda rows: reduced.append(rows.shape[0]) or reduce(rows)

    with mock.patch.object(fs, "_lq_reduction", recording), \
            mock.patch.object(fs, "_feature_map", side_effect=fs._feature_map) as spy:
        ctx = fs._NormContext(f, fs.w1p(3.0))
    assert [call.args[0].shape[0] for call in spy.call_args_list] == [8, 8, 4]
    assert reduced == [2] * 10
    assert ctx.rows.shape == (20, 64 * 64 * 6) and ctx.rows.flags.c_contiguous
    want_rows, want_reduce = reference.features(values, fs.w1p(3.0), geom)
    assert np.array_equal(bits(ctx.rows), bits(want_rows))
    assert np.array_equal(bits(ctx.sample_norms), bits(want_reduce(want_rows)))


@pytest.mark.parametrize("norm", [fs.EUCLID, fs.WM12, fs.wm1p(1.5)], ids=lambda x: x.label())
def test_euclidean_and_negative_norm_rows_take_one_block(norm):
    # Euclidean rows are a view of the samples; W^{-1,q'} rows are one batched
    # FFT or one BLAS product
    values = np.random.default_rng(3).standard_normal((20, 64, 64, 2))
    f = fs.TimeGridFunction(values, 0.0, 0.1, fs.SpaceGeometry(2 * math.pi / 64, 2))
    with mock.patch.object(fs, "_feature_map", side_effect=fs._feature_map) as spy:
        ctx = fs._NormContext(f, norm)
    mapped = [call.args[0] for call in spy.call_args_list]  # the dictionary's norms map too
    assert [len(a) for a in mapped if np.shares_memory(a, values)] == [20]
    assert (norm.kind == "euclid") == np.shares_memory(ctx.rows, values)


@pytest.mark.parametrize("geom", sorted(GEOMS))
@pytest.mark.parametrize("norm", NORMS, ids=lambda x: x.label())
def test_no_sample_gives_an_empty_vector(norm, geom):
    got = fs.xnorms_over_time(np.zeros((0, N, N, 2)), norm, GEOMS[geom])
    assert got.shape == (0,) and got.dtype == float


@pytest.mark.parametrize("geom", sorted(GEOMS))
@pytest.mark.parametrize("norm", NORMS, ids=lambda x: x.label())
def test_non_finite_samples_raise(norm, geom):
    for bad in (math.nan, math.inf, -math.inf):
        values = np.random.default_rng(4).standard_normal((5, N, N, 2))
        values[3, 2, 4, 1] = bad
        with pytest.raises(ValueError, match=rf"^values must be finite, got {bad!r}$"):
            fs.xnorms_over_time(values, norm, GEOMS[geom])
        with pytest.raises(ValueError, match=rf"^values must be finite, got {bad!r}$"):
            fs.spatial_norm(values[3], norm, GEOMS[geom])


@pytest.mark.parametrize("norm", [fs.EUCLID, fs.L2, fs.W12, fs.lp(3.0)], ids=lambda x: x.label())
def test_a_separable_function_streams_its_exact_samples(norm):
    # lp_norm reads the samples, the context of an l2 norm their factored
    # coordinates C R^T: the two agree to rounding
    rng = np.random.default_rng(9)
    f = fs.TimeGridFunction.separable(rng.standard_normal((2, 12)), rng.standard_normal((2, N, N, 2)),
                                      0.0, 0.1, GEOMS["masked"])
    for p in TIME_PS:
        assert fs.lp_norm(f, p, norm) == pytest.approx(f.context(norm).lp_norm(p), rel=1e-14)


def _peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bochner_norm_on_the_outer_cylinder_holds_no_feature_matrix():
    """The analyzer's energy norm: 289 samples of the n = 64 field on the R = 1.7
    ball.  ``lp_norm`` allocates less than a quarter of the W^{1,3} feature
    rows that one context of that restriction holds."""
    grid = ps.TorusGrid(64)
    mask = ra._ball_mask(grid, (math.pi, math.pi), 1.7)
    values = np.random.default_rng(6).standard_normal((289, 64, 64, 2))
    f = fs.TimeGridFunction(values, 0.0, 1.0 / 200, grid.geometry(mask))
    norm = fs.w1p(3.0)
    streamed = []
    peak = _peak(lambda: streamed.append(fs.lp_norm(f, 3.0, norm)))
    ctx = fs._NormContext(f, norm)
    assert ctx.rows.shape == (289, int(mask.sum()) * 6)  # values and gradient at each ball node
    assert bits(streamed[0]) == bits(ctx.lp_norm(3.0))
    assert peak < ctx.rows.nbytes / 4


def test_a_context_allocates_little_beyond_its_rows():
    """The criterion-7 inner restriction: 289 samples of the n = 64 field on the
    r = 0.85 ball.  Building its W^{1,2} context allocates at most 1.5x the
    bytes of the rows it keeps; mapping all samples in one call took about 4x."""
    grid = ps.TorusGrid(64)
    mask = ra._ball_mask(grid, (math.pi, math.pi), 0.85)
    values = np.random.default_rng(7).standard_normal((289, 64, 64, 2))
    f = fs.TimeGridFunction(values, 0.0, 1.0 / 200, grid.geometry(mask))
    built = []
    peak = _peak(lambda: built.append(fs._NormContext(f, fs.W12)))
    assert built[0].rows.shape == (289, int(mask.sum()) * 6)
    assert peak <= 1.5 * built[0].rows.nbytes
