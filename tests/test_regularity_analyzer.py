"""Trajectory restriction, slope estimation, and the two interior checks."""

import gc
import math
import weakref
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symplap.exponent_engine as ee
import symplap.function_spaces as fs
import symplap.pde_solver as ps
import symplap.regularity_analyzer as ra
import symplap.tensor_models as tm
from symplap.errors import (GeometryError, InsufficientResolutionError,
                            PreconditionError, UnreachableTargetError)

LINEAR = tm.ModelParams(p=2, mu=1.0, model="A2")
P3 = tm.ModelParams(p=3, mu=1.0, model="A2")

CENTER = (math.pi, math.pi, 1.0)
CYL = ra.SubCylinder(center=CENTER, r=0.85)


@pytest.fixture(scope="module")
def p2_traj():
    grid = ps.TorusGrid(16)
    u0 = ps.initial_condition("eigenfield", grid)
    return ps.solve(u0, 2.0, 0.01, LINEAR, meta={"ic": "eigenfield"})


@pytest.fixture(scope="module")
def p3_traj():
    grid = ps.TorusGrid(16)
    u0 = ps.initial_condition("random_smooth", grid, seed=8)
    return ps.solve(u0, 2.0, 0.01, P3, meta={"ic": "random_smooth"})


@pytest.fixture(scope="module")
def zero_traj():
    grid = ps.TorusGrid(16)
    u0 = ps.SpatialField(np.zeros((16, 16, 2)), grid)
    return ps.solve(u0, 2.0, 0.01, LINEAR, meta={"ic": "zero"})


class TestRestrict:
    def test_zero_trajectory_restricts_to_zero(self, zero_traj):
        f = ra.restrict(zero_traj, CYL)
        assert np.all(f.values == 0.0)
        assert f.geometry.mask is not None

    def test_restricted_norm_below_full_norm(self, p2_traj):
        f_ball = ra.restrict(p2_traj, CYL)
        full = ra.SubCylinder(center=CENTER, r=2.4, time_halfwidth=CYL.halfwidth)
        f_full = ra.restrict(p2_traj, full)
        for k in range(f_ball.n_samples):
            nb = fs.spatial_norm(f_ball.values[k], fs.L2, f_ball.geometry)
            nf = fs.spatial_norm(f_full.values[k], fs.L2, f_full.geometry)
            assert nb <= nf * (1 + 1e-12)

    def test_ball_point_count_matches_enumeration(self, p2_traj):
        grid = p2_traj.grid
        count = int(np.sum(ra._ball_mask(grid, CENTER[:2], CYL.r)))
        brute = 0
        for i in range(grid.n):
            for j in range(grid.n):
                d1 = abs(i * grid.h - CENTER[0])
                d2 = abs(j * grid.h - CENTER[1])
                d1 = min(d1, 2 * math.pi - d1)
                d2 = min(d2, 2 * math.pi - d2)
                if d1**2 + d2**2 <= CYL.r**2 * (1 + 1e-12):
                    brute += 1
        assert count == brute > 0

    def test_margin_violations_raise(self, p2_traj):
        with pytest.raises(GeometryError):
            ra.restrict(p2_traj, ra.SubCylinder(center=(math.pi, math.pi, 0.3), r=0.85))
        with pytest.raises(GeometryError):
            ra.restrict(p2_traj, ra.SubCylinder(center=CENTER, r=3.0,
                                                time_halfwidth=0.5))

    @pytest.mark.parametrize("center", [(1.0, 1.0, math.nan), (1.0, 1.0, math.inf),
                                        (math.nan, 1.0, 1.0), (1.0, -math.inf, 1.0)])
    def test_non_finite_center_is_rejected(self, center):
        with pytest.raises(GeometryError, match="center .* is not finite"):
            ra.SubCylinder(center=center, r=0.5)

    @pytest.mark.parametrize("center", [(1.0, 1.0), (1.0, 1.0, 0.5, 0.5), ()])
    def test_center_that_is_not_three_coordinates_is_rejected(self, center):
        with pytest.raises(GeometryError, match=r"center .* is not three coordinates \(x1, x2, t\)"):
            ra.SubCylinder(center=center, r=0.5)

    def test_vmap_target_applied_pointwise(self, p3_traj):
        f = ra.restrict(p3_traj, CYL, target="vmap")
        k = 5
        du = ra.sym_gradient4(p3_traj.snapshots, p3_traj.grid)
        t0_index = round(f.t0 / p3_traj.dt)
        expect = tm.v_map(du[t0_index + k], p3_traj.model)
        assert np.array_equal(f.values[k], expect)


class TestEstimateExponent:
    def test_linear_function_slope_exact(self):
        h = [2**-k for k in range(4, 10)]
        norms = h  # |D_h t|_inf = h exactly
        alpha, r_sq = ra.estimate_exponent(h, norms)
        assert alpha == pytest.approx(1.0, abs=1e-6)
        assert r_sq == pytest.approx(1.0, abs=1e-12)

    def test_kink_exponent_recovery(self):
        n = 2**12 + 1
        t = np.linspace(0.0, 1.0, n)
        for beta in (0.25, 0.5, 0.75):
            f = fs.TimeGridFunction(np.abs(t - 0.5) ** beta, 0.0, t[1] - t[0])
            ctx = fs._NormContext(f, fs.EUCLID)
            ks = [2**j for j in range(1, 7)]
            norms = [ctx.difference_norm(1, k, math.inf) for k in ks]
            alpha, _ = ra.estimate_exponent([k * f.dt for k in ks], norms)
            assert alpha == pytest.approx(beta, abs=0.05)

    def test_constant_gives_inf_sentinel(self):
        alpha, r_sq = ra.estimate_exponent([0.1, 0.2, 0.4, 0.8], [0.0, 0.0, 0.0, 0.0])
        assert math.isinf(alpha)

    def test_too_few_points_rejected(self):
        with pytest.raises(InsufficientResolutionError):
            ra.estimate_exponent([0.1, 0.2, 0.4], [1, 2, 3])

    @pytest.mark.parametrize("h, norms", [([0.1, 0.2, 0.4, 0.8, 1.6], [1, 2, 3, 4]),
                                          ([0.1, 0.2, 0.4, 0.8], [1, 2, 3, 4, 5])])
    def test_unequal_lengths_rejected(self, h, norms):
        with pytest.raises(ValueError, match=r"^h_values of shape .* and norms of shape .* "
                                             "must be two lists of equal length"):
            ra.estimate_exponent(h, norms)

    @pytest.mark.parametrize("bad", [-0.4, 0.0, math.nan, math.inf])
    def test_steps_that_are_not_finite_positive_rejected(self, bad):
        with pytest.raises(ValueError, match="^h_values must be finite positive steps"):
            ra.estimate_exponent([0.1, 0.2, bad, 0.8], [1.0, 2.0, 3.0, 4.0])


class TestSweep:
    def test_stationary_trajectory_all_zero(self, zero_traj):
        rows = ra.seminorm_sweep(zero_traj, CYL, alphas=[0.5], delta=0.16)
        for row in rows:
            assert all(s == 0.0 for s in row.seminorms)
            assert math.isinf(row.alpha_hat)

    def test_analytic_trajectory_saturates_at_difference_order(self, p2_traj):
        # the r = 1 slope caps at 1, the r = 2 slope at 2 (r > alpha needed)
        table = [("u", fs.L2, math.inf, 0.5), ("u", fs.L2, math.inf, 1.5)]
        rows = ra.seminorm_sweep(p2_traj, CYL, alphas=[0.4], delta=0.16, table=table)
        assert rows[0].r == 1 and rows[1].r == 2
        assert rows[0].alpha_hat == pytest.approx(1.0, abs=0.05)
        assert rows[1].alpha_hat == pytest.approx(2.0, abs=0.08)

    def test_nesting_monotonicity(self, p3_traj):
        small = ra.SubCylinder(center=CENTER, r=0.6, time_halfwidth=0.5)
        big = ra.SubCylinder(center=CENTER, r=1.0, time_halfwidth=0.7)
        rows_small = ra.seminorm_sweep(p3_traj, small, alphas=[0.3, 0.6], delta=0.2)
        rows_big = ra.seminorm_sweep(p3_traj, big, alphas=[0.3, 0.6], delta=0.2)
        for rs, rb in zip(rows_small, rows_big):
            if rs.lower_bound_norm:
                continue  # dictionary bounds are not monotone by construction
            for s_small, s_big in zip(rs.seminorms, rb.seminorms):
                assert s_small <= s_big * (1 + 1e-10)

    def test_restrictions_keep_the_exact_rows(self, p3_traj):
        # every restriction is built from its samples, so no context factors
        factors, factored_rows = [], fs._factored_rows

        def spy(f, x_norm):
            factors.append(f._separable)
            return factored_rows(f, x_norm)

        with mock.patch.object(fs, "_factored_rows", spy):
            ra.seminorm_sweep(p3_traj, CYL, alphas=[0.5], delta=0.16)
        assert factors and factors == [None] * len(factors)

    def test_one_restriction_per_distinct_restriction(self, p3_traj):
        # the "u" rows share one full-grid restriction whatever their norm; "vmap"
        # rows read pointwise take the ball's box: 2 per table plus the outer cylinder
        outer = ra.SubCylinder(center=CENTER, r=1.7, time_halfwidth=CYL.halfwidth)
        with mock.patch.object(ra, "restrict", wraps=ra.restrict) as spy:
            ra.seminorm_sweep(p3_traj, CYL, alphas=[0.5], delta=0.16)
            ra.check_seminorm_bounds(p3_traj, CYL, outer, alpha=0.5, delta=0.16)
        made = Counter((call.args[1], call.kwargs.get("target", "u"), call.kwargs.get("_box", False))
                       for call in spy.call_args_list)
        assert made == {(CYL, "u", False): 2, (CYL, "vmap", True): 2, (outer, "u", False): 1}

    @pytest.mark.parametrize("measure", ["sweep", "bounds"])
    def test_one_context_and_one_dropped_restriction_at_a_time(self, p3_traj, monkeypatch, measure):
        # while a row's context is built, no earlier row's context is alive, and
        # no "vmap" restriction but the row's own: each dies with its last row,
        # by reference counting alone
        made, built = [], []
        restrict, init = ra.restrict, fs._NormContext.__init__

        def tracked_restrict(*args, **kwargs):
            f = restrict(*args, **kwargs)
            made.append((kwargs.get("target", "u"), weakref.ref(f)))
            return f

        def tracked_init(ctx, f, x_norm):
            assert [ref() for ref in built] == [None] * len(built)
            assert all(ref() in (None, f) for target, ref in made if target == "vmap")
            init(ctx, f, x_norm)
            built.append(weakref.ref(ctx))

        monkeypatch.setattr(ra, "restrict", tracked_restrict)
        monkeypatch.setattr(fs._NormContext, "__init__", tracked_init)
        outer = ra.SubCylinder(center=CENTER, r=1.7, time_halfwidth=CYL.halfwidth)
        gc.disable()
        try:
            if measure == "sweep":
                ra.seminorm_sweep(p3_traj, CYL, alphas=[0.5], delta=0.16)
            else:
                ra.check_seminorm_bounds(p3_traj, CYL, outer, alpha=0.5, delta=0.16)
        finally:
            gc.enable()
        assert len(built) == 6 and [target for target, _ in made].count("vmap") == 1

    def test_any_table_holds_one_vmap_field_and_one_shared_u_restriction(self, p3_traj,
                                                                         monkeypatch):
        # two "vmap" rows in a row each make their own field, and the earlier one
        # is gone before the later one is made; the "u" rows share one
        # restriction, made at the first "u" row
        table = [("vmap", fs.L2, 2.0, 0.5), ("vmap", fs.lp(2.0), 2.0, 0.5),
                 ("u", fs.L2, 2.0, 0.5), ("vmap", fs.L2, 2.0, 0.5), ("u", fs.W12, 2.0, 0.5)]
        made, rows_seen = [], []
        restrict, init = ra.restrict, fs._NormContext.__init__

        def tracked_restrict(*args, **kwargs):
            assert all(ref() is None for target, ref in made if target == "vmap")
            f = restrict(*args, **kwargs)
            made.append((kwargs.get("target", "u"), weakref.ref(f)))
            return f

        def tracked_init(ctx, f, x_norm):
            rows_seen.append(next(i for i, (_, ref) in enumerate(made) if ref() is f))
            init(ctx, f, x_norm)

        monkeypatch.setattr(ra, "restrict", tracked_restrict)
        monkeypatch.setattr(fs._NormContext, "__init__", tracked_init)
        gc.disable()
        try:
            got = ra.seminorm_sweep(p3_traj, CYL, alphas=[0.5], delta=0.16, table=table)
        finally:
            gc.enable()
        assert [target for target, _ in made] == ["vmap", "vmap", "u", "vmap"]
        assert rows_seen == [0, 1, 2, 3, 2]
        monkeypatch.undo()
        want = [ra.seminorm_sweep(p3_traj, CYL, alphas=[0.5], delta=0.16, table=[row])[0]
                for row in table]
        assert [row.diff_norms for row in got] == [row.diff_norms for row in want]

    def test_sweep_weights_share_the_engine_range_rule(self):
        # (k dt)**-400 overflows at dt = 1/128: the sweep raises the engine's ValueError
        grid = ps.TorusGrid(16)
        traj = ps.solve(ps.initial_condition("random_smooth", grid, seed=8), 2.0, 1 / 128, P3)
        cyl = ra.SubCylinder(center=CENTER, r=1.2, time_halfwidth=0.6)
        with pytest.raises(ValueError, match="smoothness exponent"):
            ra.seminorm_sweep(traj, cyl, alphas=[400.0], delta=0.5,
                              table=[("u", fs.L2, 2.0, 0.5)])

    def test_insufficient_dyadic_resolution(self, p2_traj):
        with pytest.raises(InsufficientResolutionError):
            ra.seminorm_sweep(p2_traj, CYL, alphas=[0.5], delta=0.05)

    @pytest.mark.parametrize("block", [2**16, 512, 512 * 7 + 100])
    def test_vmap_stack_is_mapped_in_blocks_of_samples(self, p3_traj, block):
        # 145 snapshots of 512 entries: one or two blocks at 2^16 entries, one
        # snapshot or seven per block when patched; each equals one whole-stack call
        f = ra.restrict(p3_traj, CYL)
        with mock.patch.object(fs, "_LAG_BLOCK_ELEMENTS", block):
            got = ra.restrict(p3_traj, CYL, target="vmap")
        want = tm.v_map(ps.sym_gradient(f.values, p3_traj.grid), P3)
        assert np.array_equal(got.values.view(np.uint64), want.view(np.uint64))

    def test_vmap_consistency_bit_exact(self, p3_traj):
        # the square-root map acts snapshot by snapshot before any differencing,
        # so the pipeline difference is the manual one exactly
        f = ra.restrict(p3_traj, CYL, target="vmap")
        pipeline = fs.higher_difference(f, 1, 3 * f.dt).values
        assert np.array_equal(pipeline, f.values[3:] - f.values[:-3])


class TestBallEstimate:
    def test_zero_trajectory_trivial(self, zero_traj):
        rep = ra.check_caccioppoli(zero_traj, (math.pi, math.pi), 0.85, 1.7)
        assert rep.lhs == 0.0
        assert rep.observed_constant == 0.0

    def test_lhs_independent_of_outer_radius(self, p2_traj):
        rep1 = ra.check_caccioppoli(p2_traj, (math.pi, math.pi), 0.85, 1.7)
        rep2 = ra.check_caccioppoli(p2_traj, (math.pi, math.pi), 0.85, 2.2)
        assert rep1.lhs == rep2.lhs

    def test_shrinking_gap_scales_rhs(self, p2_traj):
        # halving R - r quadruples the prefactor rhs/rhs_sup exactly, and the
        # lhs is untouched (it never sees R); the outer sup integral itself
        # may shrink with the smaller ball
        rep_wide = ra.check_caccioppoli(p2_traj, (math.pi, math.pi), 0.85, 1.85)
        rep_narrow = ra.check_caccioppoli(p2_traj, (math.pi, math.pi), 0.85, 1.35)
        assert rep_narrow.lhs == rep_wide.lhs
        prefactor_ratio = (rep_narrow.rhs / rep_narrow.rhs_sup) / (rep_wide.rhs / rep_wide.rhs_sup)
        assert prefactor_ratio == pytest.approx(4.0, rel=1e-12)
        assert rep_narrow.rhs_sup <= rep_wide.rhs_sup

    def test_estimate_holds_for_smooth_runs(self, p2_traj, p3_traj):
        from symplap.baselines import CACCIOPPOLI_CONSTANT
        for traj in (p2_traj, p3_traj):
            rep = ra.check_caccioppoli(traj, (math.pi, math.pi), 0.85, 1.7)
            assert rep.hypothesis_flag == "ok"
            assert rep.passed(CACCIOPPOLI_CONSTANT)

    def test_kink_run_flagged_not_failed(self):
        grid = ps.TorusGrid(16)
        u0 = ps.initial_condition("kink", grid)
        traj = ps.solve(u0, 0.4, 0.01, P3, meta={"ic": "kink"})
        rep = ra.check_caccioppoli(traj, (math.pi, math.pi), 0.85, 1.7)
        assert "unverified" in rep.hypothesis_flag

    def test_nested_ball_validation(self, p2_traj):
        with pytest.raises(GeometryError):
            ra.check_caccioppoli(p2_traj, (math.pi, math.pi), 1.7, 0.85)

    @pytest.mark.parametrize("r", [-0.85, 0.0, math.nan])
    def test_non_positive_inner_radius_rejected(self, p2_traj, r):
        # the ball mask reads only r**2, so r = -0.85 would pass for 0.85
        with pytest.raises(GeometryError, match="need 0 < r < R"):
            ra.check_caccioppoli(p2_traj, (math.pi, math.pi), r, 1.7)


class TestInteriorEstimate:
    def test_alpha_above_ceiling_rejected(self, p2_traj):
        with pytest.raises(PreconditionError):
            ra.check_seminorm_bounds(p2_traj, CYL,
                                     ra.SubCylinder(center=CENTER, r=1.7,
                                                    time_halfwidth=CYL.halfwidth),
                                     alpha=1.6)

    def test_zero_trajectory_trivially_bounded(self, zero_traj):
        outer = ra.SubCylinder(center=CENTER, r=1.7, time_halfwidth=CYL.halfwidth)
        rep = ra.check_seminorm_bounds(zero_traj, CYL, outer, alpha=1.4, delta=0.16)
        assert all(v == 0.0 for v in rep.norms.values())
        assert rep.bundle == pytest.approx(1.0 / (1.7 - 0.85))

    def test_interior_report_structure(self, p2_traj):
        outer = ra.SubCylinder(center=CENTER, r=1.7, time_halfwidth=CYL.halfwidth)
        rep = ra.check_seminorm_bounds(p2_traj, CYL, outer, alpha=1.4, delta=0.16)
        assert rep.case == "heat"
        assert all(math.isfinite(v) for v in rep.norms.values())
        assert rep.bundle > 1.0
        assert math.isfinite(rep.kappa_hat)

    def test_refinement_stability(self):
        grid = ps.TorusGrid(16)
        u0 = ps.initial_condition("eigenfield", grid)
        coarse = ps.solve(u0, 2.0, 0.01, LINEAR)
        fine = ps.solve(u0, 2.0, 0.005, LINEAR)
        outer = ra.SubCylinder(center=CENTER, r=1.7, time_halfwidth=CYL.halfwidth)
        rep = ra.check_seminorm_bounds(coarse, CYL, outer, alpha=1.4, delta=0.16,
                                       traj_fine=fine)
        assert rep.stable
        assert all(g < 1.5 for g in rep.growth_factors.values())

    def test_full_derivative_case_at_smooth_data(self, p3_traj):
        # p = 3 in two dimensions sits below the regime threshold, so the
        # full-derivative table applies up to gamma1 = 25/24; alpha = 0.9 works
        import symplap.exponent_engine as ee
        assert ee.gamma1(3, 2) == pytest.approx(25 / 24)
        outer = ra.SubCylinder(center=CENTER, r=1.7, time_halfwidth=CYL.halfwidth)
        rep = ra.check_seminorm_bounds(p3_traj, CYL, outer, alpha=0.9, delta=0.16)
        assert rep.case == "full_derivative"
        assert len(rep.norms) == 6
        assert all(math.isfinite(v) and v >= 0 for v in rep.norms.values())

    def test_fractional_regime_table(self):
        # p = 4, d = 2 is in the fractional regime (ceiling gamma0 = 1/2)
        grid = ps.TorusGrid(16)
        model = tm.ModelParams(p=4, mu=1.0, model="A2")
        u0 = ps.initial_condition("random_smooth", grid, seed=4)
        traj = ps.solve(u0, 2.0, 0.01, model, meta={"ic": "random_smooth"})
        rows = ra.seminorm_sweep(traj, CYL, alphas=[0.3], delta=0.16)
        assert len(rows) == 6
        labels = {(r.target, r.x_label) for r in rows}
        assert ("vmap", "L2") in labels
        assert any(lab.startswith("Wm1_") for _, lab in labels)
        # smooth data clears the fractional predictions with room
        for row in rows:
            assert row.alpha_hat >= row.predicted - 0.15
        outer = ra.SubCylinder(center=CENTER, r=1.7, time_halfwidth=CYL.halfwidth)
        rep = ra.check_seminorm_bounds(traj, CYL, outer, alpha=0.45, delta=0.16)
        assert rep.case == "fractional"
        with pytest.raises(PreconditionError):
            ra.check_seminorm_bounds(traj, CYL, outer, alpha=0.55, delta=0.16)


# p = 3.159424712356178, d = 2: the closed form gamma0 = 0.994836458341545 and
# the recurrence's B/(1-A) = 0.9948364583415449 differ in the last bit
FOUND_P = 3.159424712356178
FOUND_ALPHA = 0.9948364583415449


def _iterate_accepts(p, d, target) -> bool:
    # the recurrence is stubbed: targets within ulps of the ceiling may run
    # into its 100,000-step guard, and only the admission decision is tested
    with mock.patch.object(ee, "_run_iteration", return_value=([0.0], 0, False, None)):
        try:
            ee.iterate(p, d, 0.0, target)
        except UnreachableTargetError:
            return False
    return True


def _bounds_accept(p, alpha) -> bool:
    # a tiny trajectory whose inner time window breaks the interior margin:
    # an admitted alpha gets as far as the margin check
    grid = ps.TorusGrid(8)
    traj = ps.Trajectory(np.zeros((3, 8, 8, 2)), 0.1, tm.ModelParams(p=p), grid)
    inner = ra.SubCylinder(center=(math.pi, math.pi, 0.1), r=0.5)
    outer = ra.SubCylinder(center=(math.pi, math.pi, 0.1), r=1.0)
    try:
        ra.check_seminorm_bounds(traj, inner, outer, alpha)
    except PreconditionError:
        return False
    except GeometryError:
        return True
    raise AssertionError("the margin-violating cylinder was accepted")


def _candidates(top):
    return [top, np.nextafter(top, 0.0), np.nextafter(top, math.inf), FOUND_ALPHA]


def _assert_one_ceiling(p, d):
    top = ee.ceiling(p, d)
    for a in _candidates(top):
        assert _iterate_accepts(p, d, a) == (a < top), (p, d, a)
    top2 = ee.ceiling(p, 2)
    for a in _candidates(top2):
        assert _bounds_accept(p, a) == (a < top2), (p, a)


class TestOneCeiling:
    def test_found_point_gets_one_decision(self):
        top = ee.ceiling(FOUND_P, 2)
        assert top == ee.gamma0(FOUND_P, 2)
        assert FOUND_ALPHA < top
        assert _iterate_accepts(FOUND_P, 2, FOUND_ALPHA)
        assert _bounds_accept(FOUND_P, FOUND_ALPHA)
        _assert_one_ceiling(FOUND_P, 2)

    def test_limit_is_gamma0(self):
        assert ee.iterate(FOUND_P, 2, 0.0, 0.5).limit == ee.gamma0(FOUND_P, 2)
        assert ee.iterate(2, 2, 0.0, 1.2).limit == math.inf

    @settings(max_examples=60, deadline=None)
    @given(p=st.floats(min_value=2.0, max_value=12.0), d=st.sampled_from([2, 3]))
    def test_iterate_and_bounds_share_the_ceiling(self, p, d):
        _assert_one_ceiling(p, d)


class TestAlphaRules:
    @pytest.mark.parametrize("alphas, message", [([], "alphas lists no exponent"),
                                                 ([-1.0], "smoothness exponent in alphas"),
                                                 ([0.5, math.nan], "smoothness exponent in alphas"),
                                                 ([math.inf], "smoothness exponent in alphas")])
    def test_sweep_rejects_bad_alphas(self, p2_traj, alphas, message):
        with pytest.raises(ValueError, match=message):
            ra.seminorm_sweep(p2_traj, CYL, alphas=alphas, delta=0.16)

    def test_sweep_rejects_alpha_at_the_ceiling(self, p2_traj):
        top = ee.ceiling(2.0, 2)
        with pytest.raises(PreconditionError, match="ceiling"):
            ra.seminorm_sweep(p2_traj, CYL, alphas=[0.5, top], delta=0.16)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_table_only_below_the_ceiling(self, p):
        top = ee.ceiling(p, 2)
        assert ra.regime_norm_table(p, np.nextafter(top, 0.0))
        for alpha in (top, np.nextafter(top, math.inf), 2 * top):
            with pytest.raises(PreconditionError, match="alpha = .* not below the regime ceiling"):
                ra.regime_norm_table(p, alpha)

    @pytest.mark.parametrize("alpha", [-0.25, math.nan, math.inf])
    def test_table_rejects_non_finite_or_negative_alpha(self, alpha):
        with pytest.raises(ValueError, match="smoothness exponent alpha must be a finite number"):
            ra.regime_norm_table(3.0, alpha)
