"""Discrete differences, seminorms, spatial norms and the inequality harness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
import symplap.function_spaces as fs
from symplap.corpus import build_corpus, lift_to_field
from symplap.errors import EmptyDomainError, GridMismatchError, PreconditionError

INF = math.inf


def grid_fn(values, dt=None, n=1025, geometry=None):
    if callable(values):
        t = np.linspace(0.0, 1.0, n)
        values = values(t)
        dt = t[1] - t[0]
    return fs.TimeGridFunction(np.asarray(values, dtype=float), 0.0, dt, geometry=geometry)


class TestHigherDifference:
    def test_constant_first_difference_vanishes(self):
        f = grid_fn(lambda t: np.full_like(t, 2.5))
        d = fs.higher_difference(f, 1, 4 * f.dt)
        assert np.all(d.values == 0.0)

    def test_affine_second_difference_vanishes(self):
        f = grid_fn(lambda t: 3.0 + 2.0 * t)
        d = fs.higher_difference(f, 2, 8 * f.dt)
        assert np.max(np.abs(d.values)) < 1e-14

    def test_quadratic_second_difference_is_constant(self):
        f = grid_fn(lambda t: t**2)
        h = 8 * f.dt
        d = fs.higher_difference(f, 2, h)
        assert np.allclose(d.values, 2.0 * h**2, rtol=1e-10)

    def test_binomial_equals_recursive_bitwise_on_integer_data(self):
        # both expansions are exact on integer-valued samples, so they must
        # agree to the bit; float data agrees to rounding
        rng = np.random.default_rng(11)
        values = rng.integers(-50, 50, size=300).astype(float)
        f = fs.TimeGridFunction(values, 0.0, 0.01)
        for r in (1, 2, 3):
            k = 7
            direct = fs.higher_difference(f, r, k * f.dt).values
            recursive = values
            for _ in range(r):
                recursive = recursive[k:] - recursive[:-k]
            assert np.array_equal(direct, recursive[: len(direct)])

    def test_domain_shrink_count(self):
        f = grid_fn(lambda t: np.sin(t), n=257)
        for r, k in [(1, 3), (2, 10), (3, 40)]:
            d = fs.higher_difference(f, r, k * f.dt)
            assert d.n_samples == f.n_samples - r * k

    def test_off_grid_step_rejected(self):
        f = grid_fn(lambda t: t, n=257)
        with pytest.raises(GridMismatchError):
            fs.higher_difference(f, 1, 1.5 * f.dt)

    @pytest.mark.parametrize("h", [math.nan, math.inf])
    def test_non_finite_step_rejected(self, h):
        with pytest.raises(GridMismatchError):
            fs.higher_difference(grid_fn(lambda t: t, n=257), 1, h)

    def test_oversized_step_rejected(self):
        f = grid_fn(lambda t: t, n=257)
        with pytest.raises(EmptyDomainError):
            fs.higher_difference(f, 2, 200 * f.dt)


class TestNonFiniteParameters:
    def test_time_step(self):
        with pytest.raises(ValueError, match="^time step dt must be a finite positive number"):
            fs.TimeGridFunction(np.zeros(4), 0.0, math.nan)

    def test_grid_spacing(self):
        with pytest.raises(ValueError, match="^grid spacing h must be a finite positive number"):
            fs.SpaceGeometry(h=math.nan)

    @pytest.mark.parametrize("alpha, r", [(math.nan, None), (math.inf, 3)])
    def test_smoothness_exponent(self, alpha, r):
        with pytest.raises(ValueError, match="^smoothness exponent alpha must be a finite number >= 0"):
            fs.SeminormSpec(alpha=alpha, p=2.0, r=r)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample(self, bad):
        with pytest.raises(ValueError, match="^time-grid values must be finite"):
            fs.TimeGridFunction([0.0, 1.0, bad, 3.0, 4.0, 5.0], 0.0, 0.2)
        with pytest.raises(ValueError, match="^time-grid values must be finite"):
            fs.TimeGridFunction(np.full((4, 3, 3, 2), bad), 0.0, 0.1)

    @pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
    def test_start_time(self, t0):
        with pytest.raises(ValueError, match="^start time t0 must be a finite number"):
            fs.TimeGridFunction(np.zeros(4), t0, 0.1)


class TestGeometryAgainstSamples:
    H = 2 * math.pi / 8

    @pytest.mark.parametrize("ndim", [0, -1, 2.5, 2.0])
    def test_ndim_is_an_integer_at_least_one(self, ndim):
        # ndim = 0 or -1 once scaled every norm by a wrong cell measure h**ndim
        with pytest.raises(ValueError, match=f"^ndim must be an integer >= 1, got {ndim!r}$"):
            fs.SpaceGeometry(self.H, ndim)

    @pytest.mark.parametrize("mask", [np.ones((8, 8), int), np.ones((8, 8)), [[True] * 8] * 8,
                                      np.ones(64, bool), np.ones((8, 8, 2), bool)])
    def test_mask_is_a_boolean_array_of_the_geometry_ndim(self, mask):
        # an integer 0/1 mask would be read as fancy indices, not as a selection
        with pytest.raises(ValueError, match=r"^mask must be a boolean array with ndim = 2 axes"):
            fs.SpaceGeometry(self.H, 2, mask)

    @pytest.mark.parametrize("shape, mask, match", [
        ((3, 8), None, r"^samples of shape \(3, 8\) have fewer than ndim = 2 spatial axes"),
        ((3,), None, r"^samples of shape \(3,\) have fewer than ndim = 2 spatial axes"),
        ((3, 8, 8, 2), np.ones((4, 4), bool),
         r"^mask of shape \(4, 4\) does not match the spatial shape \(8, 8\) of samples "
         r"of shape \(3, 8, 8, 2\)$"),
        ((3, 8, 16), np.ones((8, 8), bool), r"^mask of shape \(8, 8\) does not match"),
    ])
    def test_norms_check_the_samples_against_the_geometry(self, shape, mask, match):
        values = np.random.default_rng(6).normal(size=shape)
        for norm in (fs.EUCLID, fs.L2, fs.W12, fs.WM12, fs.lp(3.0), fs.w1p(3.0), fs.wm1p(1.5)):
            with pytest.raises(ValueError, match=match):
                fs.xnorms_over_time(values, norm, fs.SpaceGeometry(self.H, 2, mask))

    def test_factored_rows_check_the_samples_too(self):
        # a separable function's context maps only its modes
        f = fs.TimeGridFunction.separable([np.linspace(1.0, 2.0, 12)], [np.arange(16.0)], 0.0, 0.1,
                                          fs.SpaceGeometry(self.H, 2))
        assert f._separable is not None
        with pytest.raises(ValueError, match=r"^samples of shape \(1, 16\) have fewer than ndim = 2"):
            f.context(fs.L2)


RAMP = fs.TimeGridFunction(np.arange(10.0), 0.0, 0.1)


@pytest.mark.parametrize("evaluate, name", [
    (lambda f: fs.raw_seminorm(f, math.nan, 1, 0.5, 2.0), "smoothness exponent alpha"),
    (lambda f: fs.raw_seminorm(f, -0.5, 1, 0.5, 2.0), "smoothness exponent alpha"),
    (lambda f: fs.raw_seminorm(f, 0.5, 1, 0.5, math.nan), "time exponent p"),
    (lambda f: fs.nikolskii_norm(f, fs.SeminormSpec(alpha=0.5, p=math.nan)), "time exponent p"),
    (lambda f: fs.modulus_of_continuity(f, 1, 0.5, p=-1.0), "time exponent p"),
    (lambda f: fs.lp_norm(f, 0.5), "time exponent p"),
    (lambda f: fs.lp_norm(f, 0.0), "time exponent p"),
    (lambda f: fs.holder_seminorm(f, math.nan), "Hoelder exponent lam"),
    (lambda f: fs.holder_seminorm(f, -0.5), "Hoelder exponent lam"),
    (lambda f: fs.modulus_of_continuity(f, 0, 0.5), "difference order r"),
    (lambda f: fs.modulus_of_continuity(f, 1.5, 0.5), "difference order r"),
    (lambda f: fs.admissible_steps(f, -1, 0.5), "difference order r"),
    (lambda f: fs.higher_difference(f, 0, 0.1), "difference order r"),
    (lambda f: fs.higher_difference(f, 1.5, 0.1), "difference order r"),
    (lambda f: fs.higher_difference(f, 1, math.nan), "step h"),
    (lambda f: fs.higher_difference(f, 1, math.inf), "step h"),
    (lambda f: fs.check_embed_sobolev(f, k=1.5), "derivative order k"),
    (lambda f: fs._NormContext(f, fs.EUCLID).sobolev_norm(-1, 2.0), "derivative order k"),
])
def test_time_norm_parameter_rules(evaluate, name):
    # each rule is checked where its parameter is consumed, and names it
    with pytest.raises(ValueError, match=f"^{name} must be "):
        evaluate(RAMP)


@pytest.mark.parametrize("evaluate, name", [
    (lambda f: fs.raw_seminorm(f, 400.0, 1, 0.5, 2.0), "smoothness exponent alpha"),
    (lambda f: fs.raw_seminorm(fs.TimeGridFunction(f.values, 0.0, 1.0), 400.0, 1, 8.0, 2.0),
     "smoothness exponent alpha"),
    (lambda f: fs.holder_seminorm(f, 400), "Hoelder exponent lam"),
    (lambda f: fs.holder_seminorm(fs.TimeGridFunction(f.values, 0.0, 1.0), 400),
     "Hoelder exponent lam"),
])
def test_lag_weight_out_of_float_range(evaluate, name):
    # h**-400 overflows at h = 0.1 and underflows at h = 8; h**400 the other
    # way round: the exponent is named instead of an OverflowError or a
    # division by zero
    with pytest.raises(ValueError, match=f"^{name} = 400(.0)? takes the lag weight"):
        evaluate(RAMP)


def test_large_exponents_inside_the_float_range_still_measure():
    assert math.isfinite(fs.raw_seminorm(RAMP, 300.0, 1, 0.5, 2.0))
    assert math.isfinite(fs.holder_seminorm(RAMP, 300))


@pytest.mark.parametrize("norms, p, bad", [
    ([-1.0, -2.0], 3.0, "-1.0"),
    ([-1.0, -2.0], INF, "-1.0"),
    ([math.nan, 1.0], 2.0, "nan"),
    ([1.0, 2.0, -0.5], 1.0, "-0.5"),
    ([0.0, -INF], 2.0, "-inf"),
])
def test_time_lp_rejects_negative_or_nan_sample_norms(norms, p, bad):
    with pytest.raises(ValueError, match=f"^sample norms must be numbers >= 0, got {bad}$"):
        fs.time_lp(norms, p, 1.0)


@pytest.mark.parametrize("dt", [-1.0, 0.0, math.nan, INF])
def test_time_lp_rejects_a_time_step_that_is_not_finite_positive(dt):
    with pytest.raises(ValueError, match="^time step dt must be a finite positive number"):
        fs.time_lp([1.0, 2.0], 2.0, dt)


def test_time_lp_accepts_signed_zero_and_infinite_sample_norms():
    assert fs.time_lp([-0.0, 0.0], 3.0, 1.0) == 0.0
    assert fs.time_lp([1.0, INF], 2.0, 1.0) == INF


class TestSeminorm:
    def test_constant_seminorm_zero(self):
        f = grid_fn(lambda t: np.full_like(t, 4.0))
        spec = fs.SeminormSpec(alpha=0.3, p=INF, delta=0.5)
        assert fs.nikolskii_seminorm(f, spec) == 0.0

    def test_linear_function_alpha_zero(self):
        # sup_h |D_h t|_inf = sup_h h = delta
        f = grid_fn(lambda t: t)
        spec = fs.SeminormSpec(alpha=0.0, p=INF, r=1, delta=0.5)
        assert fs.nikolskii_seminorm(f, spec) == pytest.approx(0.5, abs=1e-15)

    def test_quadratic_norm_value(self):
        # sup_h h^-1 * 2h^2 + max|t^2| = 2*delta + 1
        f = grid_fn(lambda t: t**2)
        spec = fs.SeminormSpec(alpha=1.0, p=INF, r=2, delta=0.25)
        assert fs.nikolskii_norm(f, spec) == pytest.approx(1.5, rel=1e-12)

    def test_constant_norm_equals_value_on_unit_interval(self):
        f = grid_fn(lambda t: np.full_like(t, -2.25))
        spec = fs.SeminormSpec(alpha=0.5, p=4.0, delta=0.5)
        assert fs.nikolskii_norm(f, spec) == pytest.approx(2.25, rel=1e-14)

    def test_zero_function_norm_zero(self):
        f = grid_fn(lambda t: np.zeros_like(t))
        assert fs.nikolskii_norm(f, fs.SeminormSpec(alpha=0.5, p=2.0, delta=0.5)) == 0.0

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(1)
        f = grid_fn(lambda t: np.sin(7 * t) + t**2, n=513)
        g = fs.TimeGridFunction(3.7 * f.values, f.t0, f.dt)
        for p in (2.0, INF):
            spec = fs.SeminormSpec(alpha=0.6, p=p, delta=0.25)
            assert fs.nikolskii_seminorm(g, spec) == pytest.approx(
                3.7 * fs.nikolskii_seminorm(f, spec), rel=1e-12)

    def test_triangle_inequality_on_corpus_pairs(self):
        corpus = build_corpus(10, seed=77)
        fns = [entry.sample(513) for entry in corpus]
        spec = fs.SeminormSpec(alpha=0.5, p=2.0, delta=0.25)
        for f, g in zip(fns[:-1], fns[1:]):
            fg = fs.TimeGridFunction(f.values + g.values, f.t0, f.dt)
            lhs = fs.nikolskii_seminorm(fg, spec)
            rhs = fs.nikolskii_seminorm(f, spec) + fs.nikolskii_seminorm(g, spec)
            assert lhs <= rhs * (1 + 1e-12)

    def test_delta_monotonicity_on_corpus(self):
        corpus = build_corpus(12, seed=5)
        spec_small = fs.SeminormSpec(alpha=0.5, p=INF, delta=0.1)
        spec_big = fs.SeminormSpec(alpha=0.5, p=INF, delta=0.4)
        for entry in corpus:
            f = entry.sample(513)
            assert fs.nikolskii_seminorm(f, spec_small) <= \
                fs.nikolskii_seminorm(f, spec_big) * (1 + 1e-12)

    def test_kink_seminorm_finite_below_and_divergent_above(self):
        # |t - 1/2|^beta: seminorm stabilizes for alpha <= beta and grows like
        # dt^(beta - alpha) under refinement for alpha > beta
        beta = 0.5
        vals = {}
        for exp in (8, 10, 12):
            f = grid_fn(lambda t: np.abs(t - 0.5) ** beta, n=2**exp + 1)
            low = fs.nikolskii_seminorm(f, fs.SeminormSpec(alpha=0.25, p=INF, delta=0.25))
            high = fs.nikolskii_seminorm(f, fs.SeminormSpec(alpha=0.75, p=INF, delta=0.25))
            vals[exp] = (low, high)
        assert vals[12][0] <= vals[8][0] * 1.05          # bounded under refinement
        assert vals[12][1] >= vals[8][1] * 2.0 ** (4 * 0.25) * 0.9   # ~2^(4(alpha-beta))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            fs.SeminormSpec(alpha=1.2, p=2.0, r=1)       # r below natural order
        with pytest.raises(ValueError):
            fs.SeminormSpec(alpha=0.5, p=2.0, delta=1.5)
        with pytest.raises(ValueError):
            fs.SeminormSpec(alpha=-0.1, p=2.0)

    def test_no_admissible_step_raises(self):
        f = grid_fn(lambda t: t, n=9)
        with pytest.raises(EmptyDomainError):
            fs.nikolskii_seminorm(f, fs.SeminormSpec(alpha=0.5, p=2.0, delta=0.01))


class TestModulus:
    def test_constant_modulus_zero(self):
        f = grid_fn(lambda t: np.full_like(t, 1.0))
        assert fs.modulus_of_continuity(f, 1, 0.25) == 0.0

    def test_monotone_in_h(self):
        rng = np.random.default_rng(2)
        f = grid_fn(rng.normal(size=257), dt=1 / 256)
        values = [fs.modulus_of_continuity(f, 1, h) for h in (0.05, 0.1, 0.2, 0.4)]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(values, values[1:]))

    def test_quadratic_modulus_closed_form(self):
        # omega_2(t^2, h) at p = inf is 2 h'^2 at the largest grid step h' <= h;
        # at p = 2 the constant picks up the measure factor sqrt(1 - 2h)
        f = grid_fn(lambda t: t**2)
        h = 0.125
        assert fs.modulus_of_continuity(f, 2, h, p=INF) == pytest.approx(2 * h**2, rel=1e-10)
        expect = 2 * h**2 * math.sqrt(1.0 - 2 * h)
        assert fs.modulus_of_continuity(f, 2, h, p=2.0) == pytest.approx(expect, rel=1e-6)

    def test_modulus_generates_the_same_seminorm(self):
        # sup_h h^-alpha omega_r(f, h) equals the difference-based seminorm
        # exactly: the weight h^-alpha dominates every inner step t <= h
        rng = np.random.default_rng(8)
        f = grid_fn(np.cumsum(rng.normal(size=257)), dt=1 / 256)
        alpha, r, delta, p = 0.4, 1, 0.25, 2.0
        via_modulus = max(
            (k * f.dt) ** (-alpha) * fs.modulus_of_continuity(f, r, k * f.dt, p=p)
            for k in fs.admissible_steps(f, r, delta))
        direct = fs.nikolskii_seminorm(f, fs.SeminormSpec(alpha=alpha, p=p, r=r, delta=delta))
        assert via_modulus == direct

    def test_infinite_step_cap_admits_every_step(self):
        rng = np.random.default_rng(5)
        f = grid_fn(np.cumsum(rng.normal(size=65)), dt=1 / 64)
        assert fs.admissible_steps(f, 2, INF) == fs.admissible_steps(f, 2, 1e300) \
            == list(range(1, 32))
        assert fs.modulus_of_continuity(f, 1, INF) == fs.modulus_of_continuity(f, 1, 1e300)
        assert fs.admissible_steps(f, 1, -INF) == []
        with pytest.raises(ValueError, match="delta"):
            fs.modulus_of_continuity(f, 1, math.nan)



@settings(max_examples=300, deadline=None)
@given(n=st.integers(3, 2049), unit_interval=st.booleans(), r=st.integers(1, 3),
       whole=st.integers(0, 2100), frac=st.one_of(st.just(0.0), st.floats(0.001, 0.999)))
def test_dyadic_steps_are_the_sweep_and_marchaud_steps(n, unit_interval, r, whole, frac):
    # dt of a corpus sample or of the solver's default step; delta on a
    # multiple of dt (frac = 0) or well between two multiples
    dt = 1.0 / (n - 1) if unit_interval else 1.0 / 200
    f = fs.TimeGridFunction(np.zeros(n), 0.0, dt)
    delta = (whole + frac) * dt
    assert fs.dyadic_steps(f, r, delta)[1:] == reference.sweep_steps(f, r, delta)
    assert fs.dyadic_steps(f, 2 * r, f.interval_len) == reference.marchaud_steps(f, r)

class TestSpatialNorms:
    def test_zero_field_all_tags(self):
        geom = fs.SpaceGeometry(h=2 * math.pi / 16, ndim=2)
        u = np.zeros((16, 16, 2))
        for tag in (fs.L2, fs.W12, fs.WM12, fs.lp(3.0), fs.w1p(3.0), fs.wm1p(1.5)):
            assert fs.spatial_norm(u, tag, geom) == 0.0

    def test_constant_on_unit_measure_grid(self):
        geom = fs.SpaceGeometry(h=1.0 / 16, ndim=2)   # 16^2 cells of area 1/256
        u = np.full((16, 16, 2), 0.0)
        u[..., 0] = 3.0
        u[..., 1] = 4.0
        assert fs.spatial_norm(u, fs.L2, geom) == pytest.approx(5.0, rel=1e-14)

    def test_sin_field_l2(self):
        n = 64
        geom = fs.SpaceGeometry(h=2 * math.pi / n, ndim=2)
        x = np.arange(n) * 2 * math.pi / n
        x1, _ = np.meshgrid(x, x, indexing="ij")
        u = np.stack([np.sin(x1), np.zeros_like(x1)], axis=-1)
        assert fs.spatial_norm(u, fs.L2, geom) == pytest.approx(
            math.sqrt(2 * math.pi**2), rel=1e-3)

    def test_negative_norm_below_l2(self):
        rng = np.random.default_rng(3)
        geom = fs.SpaceGeometry(h=2 * math.pi / 16, ndim=2)
        u = rng.normal(size=(16, 16, 2))
        assert fs.spatial_norm(u, fs.WM12, geom) <= fs.spatial_norm(u, fs.L2, geom)

    def test_dictionary_is_a_lower_bound_of_spectral(self):
        rng = np.random.default_rng(4)
        n = 16
        geom = fs.SpaceGeometry(h=2 * math.pi / n, ndim=2)
        geom_masked = fs.SpaceGeometry(h=2 * math.pi / n, ndim=2,
                                       mask=np.ones((n, n), dtype=bool))
        for _ in range(5):
            u = rng.normal(size=(n, n, 2))
            exact = fs.spatial_norm(u, fs.WM12, geom)
            lower = fs.spatial_norm(u, fs.WM12, geom_masked)  # dictionary path
            assert lower <= exact * (1 + 1e-10)
            assert lower > 0

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            fs.XNorm("sobolev")


class TestInequalities:
    def setup_method(self):
        t = np.linspace(0.0, 1.0, 1025)
        self.dt = t[1] - t[0]
        self.sin4 = fs.TimeGridFunction(np.sin(4 * math.pi * t), 0.0, self.dt)
        self.cubic = fs.TimeGridFunction(t**3, 0.0, self.dt)
        self.cubic_prime = fs.TimeGridFunction(3 * t**2, 0.0, self.dt)
        self.const = fs.TimeGridFunction(np.full_like(t, 1.3), 0.0, self.dt)

    def test_delta_equivalence_example(self):
        rep = fs.check_inequality(fs.DELTA_EQ, self.sin4, r=1, alpha=0.5,
                                  delta1=1 / 8, delta2=1 / 4, p=INF)
        assert rep.passed
        assert rep.constant_used == pytest.approx(3.0 / (1 / 8) ** 0.5)

    def test_marchaud_on_constant(self):
        rep = fs.check_inequality(fs.MARCHAUD, self.const, r=2, p=INF)
        assert rep.passed
        assert rep.lhs == 0.0 and rep.rhs == 0.0

    def test_marchaud_strict_on_oscillation(self):
        rep = fs.check_inequality(fs.MARCHAUD, self.sin4, r=1, p=2.0)
        assert rep.passed

    def test_reduction_cubic_closed_form(self):
        # lhs = sup 6 sqrt(h) (1-h) = 2.25 at h = 1/4; rhs = sup sqrt(h)(6-3h)
        rep = fs.check_inequality(fs.REDUCTION, self.cubic, self.cubic_prime,
                                  r=1, alpha=0.5, delta=0.25, p=INF)
        assert rep.passed
        assert rep.lhs == pytest.approx(2.25, rel=1e-9)
        assert rep.rhs == pytest.approx(2.625, rel=1e-9)

    def test_reduction_requires_derivative(self):
        with pytest.raises(PreconditionError):
            fs.check_inequality(fs.REDUCTION, self.cubic, None)

    def test_step_change_guard_path(self):
        with pytest.raises(PreconditionError):
            fs.check_inequality(fs.STEP_CHANGE, self.sin4, alpha=0.5, r=2,
                                delta=0.5, p=INF)   # exceeds the step cap

    def test_step_change_passes_at_cap(self):
        rep = fs.check_inequality(fs.STEP_CHANGE, self.sin4, alpha=0.5, r=2, p=INF)
        assert rep.passed

    def test_embed_nikolskii_needs_positive_gap(self):
        with pytest.raises(PreconditionError):
            fs.check_inequality(fs.EMBED_NIK, self.sin4, alpha=0.3, p=4.0,
                                alpha_p=0.3, q=4.0)

    def test_holder_needs_supercritical_alpha(self):
        with pytest.raises(PreconditionError):
            fs.check_inequality(fs.HOLDER, self.sin4, alpha=0.2, p=4.0)

    def test_interpolation_needs_spatial_snapshots(self):
        with pytest.raises(PreconditionError):
            fs.check_inequality(fs.INTERPOLATION, self.sin4)

    @pytest.mark.parametrize("name, value", [("p1", 0.0), ("p2", 0.0), ("p1", 0.5),
                                             ("p2", math.nan), ("p1", -INF)])
    def test_interpolation_exponents_are_named(self, name, value):
        # each exponent is named itself, before the derived p_b is formed
        f = fs.TimeGridFunction(np.zeros((4, 8, 8, 2)), 0.0, 0.1,
                                geometry=fs.SpaceGeometry(h=2.0 * math.pi / 8))
        with pytest.raises(PreconditionError, match=f"^{name} must be >= 1 or inf, got {value!r}$"):
            fs.check_inequality(fs.INTERPOLATION, f, **{name: value})
        assert fs.check_inequality(fs.INTERPOLATION, f, p1=INF, p2=1.0).passed

    def test_report_slack_semantics(self):
        rep = fs.InequalityReport("DELTA_EQ", lhs=1.0 + 5e-13, rhs=1.0, constant_used=1.0)
        assert rep.passed
        rep2 = fs.InequalityReport("DELTA_EQ", lhs=1.0 + 5e-12, rhs=1.0, constant_used=1.0)
        assert not rep2.passed
        assert rep2.margin < 0

    def test_csv_row_shape(self):
        rep = fs.check_inequality(fs.SOBOLEV_EQ, self.sin4)
        row = rep.csv_row("f0")
        assert len(row) == len(fs.CSV_HEADER)
        assert row[0] == fs.SOBOLEV_EQ and row[1] == "f0"

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            fs.check_inequality("NOT_AN_ID", self.sin4)


_T = np.linspace(0.0, 1.0, 1025)
_SIN = fs.TimeGridFunction(np.sin(4 * math.pi * _T), 0.0, _T[1] - _T[0])
_SIN_PRIME = fs.TimeGridFunction(4 * math.pi * np.cos(4 * math.pi * _T), 0.0, _T[1] - _T[0])
_FIELD = lift_to_field(build_corpus(1, 1234)[0], 65)


@pytest.mark.parametrize("ineq_id, f, fprime, params, match", [
    (fs.DELTA_EQ, _SIN, None, {"delta1": 0.5, "delta2": 0.25}, r"need 0 < delta1 <= delta2 <= 1"),
    (fs.SOBOLEV_EQ, _SIN, None, {"delta2": 2.0}, r"need 0 < delta1 <= delta2 <= 1"),
    (fs.DELTA_EQ, _SIN, None, {"r": 1, "alpha": 1.5}, "difference order must exceed alpha"),
    (fs.STEP_CHANGE, _SIN, None, {"alpha": 1.5, "r": 1}, "r must be at least the natural order"),
    (fs.STEP_CHANGE, _SIN, None, {"delta": 0.5},
     "step cap for difference-order change violated: delta = 0.5 > 0.0625"),
    (fs.MARCHAUD, fs.TimeGridFunction(np.arange(5.0), 0.0, 0.25), None, {"r": 2},
     "no step h leaves room for the 2rh index set"),
    (fs.REDUCTION, _SIN, None, {}, "reduction needs the sampled derivative"),
    (fs.REDUCTION, _SIN, _SIN_PRIME, {"r": 1, "alpha": 1.0}, r"need r > alpha >= 0"),
    (fs.ACCESSION, _SIN, None, {}, "accession needs the sampled derivative"),
    (fs.ACCESSION, _SIN, _SIN_PRIME, {"alpha": 0.5}, r"need r > alpha > 1"),
    (fs.INTERPOLATION, _SIN, None, {}, "interpolation needs spatial snapshots"),
    (fs.INTERPOLATION, _FIELD, None, {"r": 1}, r"need r > max\(alpha1, alpha2\)"),
    (fs.EMBED_SOBOLEV, _SIN, None, {"gamma": 1.0}, r"need k >= 1 and gamma in \(0, 1\)"),
    (fs.EMBED_SOBOLEV, _SIN, None, {"k": 0}, r"need k >= 1 and gamma in \(0, 1\)"),
    (fs.EMBED_NIK, _SIN, None, {"alpha": 0.25, "alpha_p": 0.75},
     "embedding needs alpha >= alpha' and beta > 0"),
    (fs.EMBED_NIK, _SIN, None, {"p": 2.0, "q": 4.0, "alpha": 0.5, "alpha_p": 0.5},
     "embedding needs alpha >= alpha' and beta > 0"),
    (fs.EMBED_NIK, _SIN, None, {"delta": 0.5}, "step cap for the embedding violated: delta = 0.5 > "),
    (fs.EMBED_NIK, _SIN, None, {"delta": 1.5, "alpha": 1.0, "alpha_p": 0.25},
     "step cap for the embedding violated: delta = 1.5 > 0.015625"),
    (fs.HOLDER, _SIN, None, {"alpha": 1.0}, r"need alpha in \(0,1\) with alpha - 1/p > 0"),
    (fs.HOLDER, _SIN, None, {"alpha": 0.25, "p": 4.0}, r"need alpha in \(0,1\) with alpha - 1/p > 0"),
])
def test_each_check_refuses_outside_its_hypotheses(ineq_id, f, fprime, params, match):
    with pytest.raises(PreconditionError, match=match):
        fs.check_inequality(ineq_id, f, fprime, **params)


@pytest.mark.parametrize("alpha, alpha_p, q, delta, constant", [
    # integer alpha: lead (gap + 2)^2 / frac_ap^3, cap exponent floor((gap + 2) / frac_ap / beta) + 3
    (1.0, 0.25, 4.0, 2.0**-6, (max(2.75**2 / 0.75**3, 1 / 0.75) * 6.0 / (0.75**2 * 2.0**-12)) ** 2.75),
    (2.0, 0.75, 2.0, 2.0**-10, (max(3.25**2 / 0.25**3, 1 / 1.25) * 36.0 / 2.0**-30) ** 3.25),
    # zero gap alpha = alpha': constant one; cap exponent floor(2 / (0.5 * 0.5) / 1) + 3
    (0.5, 0.5, 1.0, 2.0**-11, 1.0),
])
def test_embedding_constant_and_default_step_cap_are_the_displayed_formulas(
        alpha, alpha_p, q, delta, constant):
    t = np.linspace(0.0, 1.0, 2049)  # the zero-gap cap is one step of this grid
    f = fs.TimeGridFunction(np.sin(4 * math.pi * t), 0.0, t[1] - t[0])
    rep = fs.check_inequality(fs.EMBED_NIK, f, alpha=alpha, alpha_p=alpha_p, p=INF, q=q)
    assert rep.params["delta"] == delta
    assert rep.constant_used == pytest.approx(constant, rel=1e-13)
    assert rep.passed


class TestInequalitySweeps:
    """The displayed-constant inequalities are facts of the discrete calculus,
    not corpus regressions; sweep them over orders and integrabilities."""

    def setup_method(self):
        rng = np.random.default_rng(4242)
        t = np.linspace(0.0, 1.0, 513)
        rough = np.cumsum(rng.normal(size=513)) / 20.0
        self.fns = [
            fs.TimeGridFunction(np.sin(6 * math.pi * t) + t**2, 0.0, t[1] - t[0]),
            fs.TimeGridFunction(np.abs(t - 0.37) ** 0.4, 0.0, t[1] - t[0]),
            fs.TimeGridFunction(rough, 0.0, t[1] - t[0]),
        ]

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("p", [1.0, 2.0, INF])
    def test_marchaud_all_orders(self, r, p):
        for f in self.fns:
            assert fs.check_inequality(fs.MARCHAUD, f, r=r, p=p).passed

    @pytest.mark.parametrize("alpha,r", [(0.0, 1), (0.25, 1), (0.5, 2), (0.9, 3)])
    @pytest.mark.parametrize("p", [2.0, INF])
    def test_delta_equivalence_all_orders(self, alpha, r, p):
        for f in self.fns:
            rep = fs.check_inequality(fs.DELTA_EQ, f, r=r, alpha=alpha,
                                      delta1=1 / 8, delta2=1 / 2, p=p)
            assert rep.passed

    @pytest.mark.parametrize("alpha,r", [(0.25, 2), (0.5, 2), (0.5, 3)])
    def test_step_change_all_orders(self, alpha, r):
        for f in self.fns:
            rep = fs.check_inequality(fs.STEP_CHANGE, f, alpha=alpha, r=r, p=INF)
            assert rep.passed

    @pytest.mark.parametrize("p", [2.0, 4.0, INF])
    def test_sobolev_equivalence_integrabilities(self, p):
        for f in self.fns:
            assert fs.check_inequality(fs.SOBOLEV_EQ, f, delta1=1 / 8,
                                       delta2=1.0, p=p).passed


def test_explicit_constant_checks_hold_on_any_corpus():
    # the checks with displayed constants are corpus-independent facts of the
    # discrete calculus; probe them on a non-canonical seed and grid
    import symplap.verify as vf
    explicit = (fs.DELTA_EQ, fs.STEP_CHANGE, fs.MARCHAUD, fs.REDUCTION,
                fs.HOLDER, fs.SOBOLEV_EQ)
    res = vf.run_matrix(build_corpus(12, seed=99), n_samples=257, ids=explicit)
    assert not res.failures
    assert all(ineq in fs._NEEDS_DERIVATIVE for _, ineq, _ in res.skipped)


def test_calibrated_checks_hold_on_canonical_subset():
    # frozen multipliers are regression baselines for the canonical corpus
    # (seed 1234, 1025 samples); any subset of it must stay clean
    import symplap.verify as vf
    calibrated = (fs.ACCESSION, fs.INTERPOLATION, fs.EMBED_SOBOLEV, fs.EMBED_NIK)
    res = vf.run_matrix(build_corpus(16, seed=1234), n_samples=1025, ids=calibrated)
    assert not res.failures


def test_interpolation_on_lifted_field():
    from symplap.baselines import INEQUALITY_CONSTANTS
    entry = build_corpus(4, seed=3)[0]
    field = lift_to_field(entry, 257)
    rep = fs.check_inequality(fs.INTERPOLATION, field, delta=1 / 16,
                              calibrated=INEQUALITY_CONSTANTS["INTERPOLATION"])
    assert rep.passed
