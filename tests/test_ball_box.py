"""Property tests of the analyzer's work on the periodic box of a ball.

Spatial derivatives of the ball estimate, of the sweep's square-root-field
rows and of every ``W^{1,q}`` row are taken on the box that
``stencil.periodic_box`` gathers around a mask (an unmasked geometry is the
all-true mask, whose box is the whole grid), and component magnitudes of
``L^q`` rows are summed plane by plane.  Each must equal its full-grid or
trailing-axis reference (``tests/reference.py``) bit for bit, across the
periodic seams too, and must move with a trajectory rolled by whole grid
points.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference
import symplap.function_spaces as fs
import symplap.pde_solver as ps
import symplap.regularity_analyzer as ra
import symplap.stencil as stencil
import symplap.tensor_models as tm
from symplap.errors import GeometryError

TWO_PI = 2.0 * math.pi
P3 = tm.ModelParams(p=3.0, mu=1.0, model="A2")
VMAP_ROW = [("vmap", fs.L2, 2.0, 1.0)]
CENTRES = st.floats(0.0, TWO_PI, exclude_max=True)
SHIFTS = st.tuples(st.integers(-31, 31), st.integers(-31, 31))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def _bitwise_equal(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


def _random_trajectory(n, steps, dt, seed=0):
    rng = np.random.default_rng(seed)
    return ps.Trajectory(snapshots=rng.normal(size=(steps + 1, n, n, 2)), dt=dt, model=P3,
                         grid=ps.TorusGrid(n))


@pytest.fixture(scope="module")
def short_traj():
    return _random_trajectory(32, 4, 0.01)


@pytest.fixture(scope="module")
def long_traj():
    return _random_trajectory(32, 100, 0.01, seed=1)


def _rolled(traj, shift):
    return dataclasses.replace(traj, snapshots=np.roll(traj.snapshots, shift, axis=(1, 2)))


def _shifted(traj, center, shift):
    return tuple((c + s * traj.grid.h) % TWO_PI for c, s in zip(center, shift))


def _order_kept(mask, rolled_mask, shift):
    """Whether the roll maps the mask's points in C order onto the rolled mask's, in C order."""
    n = mask.shape[0]
    return np.array_equal((np.argwhere(mask) + shift) % n, np.argwhere(rolled_mask))


def _assume_masks_roll(traj, center, radii, shift):
    """The ball masks round their distances; skip centres where that moves a node."""
    moved = _shifted(traj, center, shift)
    masks = [(ra._ball_mask(traj.grid, center, r), ra._ball_mask(traj.grid, moved, r))
             for r in radii]
    assume(all(np.array_equal(np.roll(m0, shift, axis=(0, 1)), m1) for m0, m1 in masks))
    return moved, all(_order_kept(m0, m1, shift) for m0, m1 in masks)


@st.composite
def masked_fields(draw):
    n = draw(st.sampled_from([8, 16, 32]))
    if draw(st.booleans()):
        mask = draw(hnp.arrays(bool, (n, n)))
    else:
        center = (draw(CENTRES), draw(CENTRES))
        mask = ra._ball_mask(ps.TorusGrid(n), center, draw(st.floats(0.1, 2.5)))
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(2, n, n, 2))
    return mask, values, TWO_PI / n


@settings(max_examples=80, deadline=None)
@given(case=masked_fields(), halo=st.integers(1, 3))
def test_box_differences_equal_full_grid_on_the_mask(case, halo):
    mask, values, h = case
    box = np.ix_(*stencil.periodic_box(mask, halo))
    full, cropped = values, values[(slice(None),) + box]
    assert _bitwise_equal(cropped[:, mask[box]], full[:, mask])  # full-grid C order
    for _ in range(halo):  # halo nested differences stay exact on the mask
        full = stencil.gradient(full, h, (1, 2))
        cropped = stencil.gradient(cropped, h, (1, 2))
        assert _bitwise_equal(cropped[:, mask[box]], full[:, mask])


def test_box_is_sorted_and_wraps_across_the_seam():
    mask = np.zeros((16, 16), dtype=bool)
    mask[0, 15] = mask[1, 0] = True
    rows, cols = stencil.periodic_box(mask, 1)
    assert rows.tolist() == [0, 1, 2, 15]
    assert cols.tolist() == [0, 1, 14, 15]
    assert [b.tolist() for b in stencil.periodic_box(mask, 8)] == [list(range(16))] * 2


@settings(max_examples=40, deadline=None)
@given(cx=CENTRES, cy=CENTRES, r=st.floats(0.01, 1.5), gap=st.floats(0.05, 1.0))
@example(cx=math.pi, cy=math.pi, r=0.85, gap=0.85)
@example(cx=0.1, cy=0.1, r=0.01, gap=0.05)  # no node in the inner ball
@example(cx=0.05, cy=6.2, r=0.85, gap=0.85)
@example(cx=3.0, cy=0.02, r=0.85, gap=0.85)
def test_caccioppoli_equals_full_grid_reference(short_traj, cx, cy, r, gap):
    big_r = min(r + gap, 2.5)
    if not ra._ball_mask(short_traj.grid, (cx, cy), r).any():
        with pytest.raises(GeometryError, match="no grid nodes"):
            ra.check_caccioppoli(short_traj, (cx, cy), r, big_r)
        return
    ball = ra.check_caccioppoli(short_traj, (cx, cy), r, big_r)
    assert _bitwise_equal([ball.lhs, ball.rhs_sup],
                          reference.caccioppoli(short_traj, (cx, cy), r, big_r))


@settings(max_examples=30, deadline=None)
@given(cx=CENTRES, cy=CENTRES, k1=st.integers(-3, 3), k2=st.integers(-3, 3))
@example(cx=5.0, cy=1.0, k1=1, k2=0)  # an offset above 3 pi
@example(cx=math.pi, cy=math.pi, k1=3, k2=0)  # the centre (7 pi, pi)
def test_centres_are_taken_modulo_the_period(short_traj, cx, cy, k1, k2):
    moved = (cx + k1 * TWO_PI, cy + k2 * TWO_PI)
    for r in (0.85, 1.7):
        assert np.array_equal(ra._ball_mask(short_traj.grid, moved, r),
                              ra._ball_mask(short_traj.grid, (cx, cy), r))
    ball = ra.check_caccioppoli(short_traj, (cx, cy), 0.85, 1.7)
    shifted = ra.check_caccioppoli(short_traj, moved, 0.85, 1.7)
    assert _bitwise_equal([shifted.lhs, shifted.rhs_sup], [ball.lhs, ball.rhs_sup])


@pytest.mark.parametrize("center", [(math.nan, 1.0), (1.0, math.inf)])
def test_non_finite_centre_raises(short_traj, center):
    with pytest.raises(GeometryError, match="center"):
        ra.check_caccioppoli(short_traj, center, 0.85, 1.7)
    with pytest.raises(GeometryError, match="center"):  # raised by SubCylinder itself
        ra.restrict(short_traj, ra.SubCylinder(center=(*center, 0.02), r=0.1))


@st.composite
def feature_rows(draw, comps):
    """Rows of random magnitudes and mantissas, with a drawn share of exact zeros."""
    points, m = draw(st.integers(1, 24)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (m, points * sum(comps))
    rows = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)
    rows[rng.random(shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    return rows, points


@settings(max_examples=60, deadline=None)
@given(data=st.data(), q=st.sampled_from([1.5, 3.0, math.inf]),
       comps=st.sampled_from([[2], [2, 4], [1, 2]]))
def test_plane_reduction_equals_trailing_axis_reference(data, q, comps):
    rows, points = data.draw(feature_rows(comps))
    cell = (TWO_PI / 16) ** 2
    got = fs._lq_reduction(points, comps, q, cell)(rows)
    assert _bitwise_equal(got, reference.lq_reduction(points, comps, q, cell)(rows))


def test_masked_sobolev_rows_equal_full_grid_gradient(long_traj):
    mask = ra._ball_mask(long_traj.grid, (0.1, 6.1), 1.7)
    geom = long_traj.grid.geometry(mask)
    values = long_traj.snapshots[:8]
    rows, _ = fs._feature_map(values, fs.w1p(3.0), geom)
    grad = stencil.gradient(values, geom.h, (1, 2))
    expect = np.concatenate([values[:, mask].reshape(8, -1), grad[:, mask].reshape(8, -1)], axis=1)
    assert _bitwise_equal(rows, expect)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["lp", "w1p"]), q=st.sampled_from([1.5, 2.0, 3.0, math.inf]),
       sides=st.lists(st.integers(1, 12), min_size=1, max_size=2),
       comps=st.sampled_from([(2,), (3,), (2, 2)]), m=st.integers(1, 3),
       scale=st.sampled_from([0, 700, -700]), seed=st.integers(0, 2**32 - 1))
def test_unmasked_rows_are_the_all_true_mask(kind, q, sides, comps, m, scale, seed):
    # an unmasked geometry maps its rows as the all-true mask does, also where
    # the rows are rescaled by a power of two
    rng = np.random.default_rng(seed)
    shape = (m, *sides, *comps)
    values = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape) * 2.0**scale
    geom = fs.SpaceGeometry(h=TWO_PI / 16, ndim=len(sides))
    full = dataclasses.replace(geom, mask=np.ones(tuple(sides), bool))
    norm = fs.XNorm(kind, q)
    assert _bitwise_equal(fs.xnorms_over_time(values, norm, geom),
                          fs.xnorms_over_time(values, norm, full))


@settings(max_examples=60, deadline=None)
@given(sides=st.lists(st.integers(3, 12), min_size=1, max_size=2),
       comps=st.sampled_from([(), (1,)]), m=st.integers(2, 3), dense=st.floats(0.3, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_masked_scalar_rows_are_reduced_in_c_order(sides, comps, m, dense, seed):
    # a boolean gather of samples without a component axis comes out in F
    # order, where np.sum adds a row's entries one after another; the rows
    # are C-ordered instead, so their sums are pairwise, as on an unmasked grid
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(m, *sides, *comps))
    mask = rng.random(tuple(sides)) < dense
    mask.flat[0] = True
    geom = fs.SpaceGeometry(h=TWO_PI / 16, ndim=len(sides), mask=mask)
    rows = math.sqrt(geom.cell_measure()) * np.ascontiguousarray(values[:, mask]).reshape(m, -1)
    assert _bitwise_equal(fs.xnorms_over_time(values, fs.L2, geom), reference.l2(rows))


@settings(max_examples=30, deadline=None)
@given(cx=CENTRES, cy=CENTRES, shift=SHIFTS)
@example(cx=math.pi, cy=math.pi, shift=(31, 0))
@example(cx=math.pi, cy=math.pi, shift=(0, -31))
@example(cx=0.05, cy=3.0, shift=(0, 7))
def test_caccioppoli_rolls_with_the_trajectory(short_traj, cx, cy, shift):
    moved, order_kept = _assume_masks_roll(short_traj, (cx, cy), (0.85, 1.7), shift)
    ball = ra.check_caccioppoli(short_traj, (cx, cy), 0.85, 1.7)
    rolled = ra.check_caccioppoli(_rolled(short_traj, shift), moved, 0.85, 1.7)
    if order_kept:
        assert _bitwise_equal([rolled.lhs, rolled.rhs_sup], [ball.lhs, ball.rhs_sup])
    else:
        # the masked sums run in full-grid C order, which a roll across a seam
        # permutes: the same terms, summed in another order
        assert rolled.lhs == pytest.approx(ball.lhs, rel=1e-13)
        assert rolled.rhs_sup == pytest.approx(ball.rhs_sup, rel=1e-13)


@settings(max_examples=30, deadline=None)
@given(cx=CENTRES, cy=CENTRES, shift=SHIFTS)
@example(cx=math.pi, cy=math.pi, shift=(31, 0))
@example(cx=0.05, cy=3.0, shift=(0, 7))
def test_vmap_rows_roll_with_the_trajectory(long_traj, cx, cy, shift):
    cyl = ra.SubCylinder(center=(cx, cy, 0.5), r=0.6, time_halfwidth=0.3)
    moved, order_kept = _assume_masks_roll(long_traj, (cx, cy), (cyl.r,), shift)
    moved_cyl = ra.SubCylinder(center=(*moved, 0.5), r=0.6, time_halfwidth=0.3)
    rolled_traj = _rolled(long_traj, shift)

    # pointwise: the box field equals the full-grid field on the mask, in
    # order, and is the unrolled field rolled along
    boxed = ra.restrict(rolled_traj, moved_cyl, "vmap", _box=True)
    full = ra.restrict(rolled_traj, moved_cyl, "vmap")
    mask, box_mask = full.geometry.mask, boxed.geometry.mask
    assert boxed.values.shape[1:3] == box_mask.shape
    assert _bitwise_equal(boxed.values[:, box_mask], full.values[:, mask])
    unrolled = np.roll(ra.restrict(long_traj, cyl, "vmap").values, shift, axis=(1, 2))
    assert _bitwise_equal(full.values[:, mask], unrolled[:, mask])
    assert ra.restrict(rolled_traj, moved_cyl, "u", _box=True).values.shape[1:3] == (32, 32)

    row = ra.seminorm_sweep(long_traj, cyl, [0.5], 0.16, table=VMAP_ROW)[0]
    got = ra.seminorm_sweep(rolled_traj, moved_cyl, [0.5], 0.16, table=VMAP_ROW)[0]
    if order_kept:
        assert _bitwise_equal(got.diff_norms + got.seminorms, row.diff_norms + row.seminorms)
    else:
        assert got.diff_norms == pytest.approx(row.diff_norms, rel=1e-13)
