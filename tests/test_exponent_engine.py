"""Closed-form exponent algebra: values, identities, regimes, iteration traces."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symplap.exponent_engine as ee
from symplap.errors import UnreachableTargetError, UnsupportedDimensionError

P_SWEEP = np.linspace(2.1, 6.0, 40)


def test_gamma0_values():
    assert ee.gamma0(3, 3) == pytest.approx(1.0, abs=1e-15)
    assert ee.gamma0(4, 2) == pytest.approx(0.5, abs=1e-15)


def test_gamma0_rejects_p_at_or_below_two():
    with pytest.raises(ValueError):
        ee.gamma0(2.0, 3)
    with pytest.raises(ValueError):
        ee.gamma0(1.5, 2)
    for p in (math.inf, math.nan):
        with pytest.raises(ValueError, match="growth exponent p must be a finite number"):
            ee.gamma0(p, 2)


def test_gamma0_threshold_is_one():
    for d in (2, 3):
        p_star = ee.growth_threshold(d)
        assert abs(ee.gamma0(p_star, d) - 1.0) < 1e-9


def test_gamma1_values():
    for d in (2, 3, 4):
        assert ee.gamma1(2, d) == pytest.approx(1.5, abs=1e-15)
    assert ee.gamma1(3, 3) == pytest.approx(1.0, abs=1e-15)


def test_gamma1_range_below_threshold():
    for d in (2, 3):
        for p in np.linspace(2.0, ee.growth_threshold(d) - 1e-9, 25):
            g1 = ee.gamma1(p, d)
            assert 1.0 < g1 <= 1.5 + 1e-12


def test_recurrence_identities_sweep():
    # fixed point B/(1-A) equals gamma0 and A + B equals gamma1, to 1e-12
    for d in (2, 3):
        for p in P_SWEEP:
            a, b = ee.recurrence_coefficients(p, d)
            assert abs(b / (1 - a) - ee.gamma0(p, d)) < 1e-12
            assert abs(a + b - ee.gamma1(p, d)) < 1e-12


def test_classify_cases():
    assert ee.classify(2, 3) is ee.Regime.HEAT
    assert ee.classify(3, 3) is ee.Regime.FRACTIONAL  # boundary included
    assert ee.classify(2.5, 3) is ee.Regime.FULL_DERIVATIVE
    assert ee.classify(3, 2) is ee.Regime.FULL_DERIVATIVE
    with pytest.raises(ValueError):
        ee.classify(1.9, 2)


def test_classify_flips_exactly_at_threshold():
    for d in (2, 3):
        p_star = ee.growth_threshold(d)
        assert ee.classify(p_star + 1e-9, d) is ee.Regime.FRACTIONAL
        assert ee.classify(p_star - 1e-6, d) is ee.Regime.FULL_DERIVATIVE
    # exact rational boundary: gamma0(3,3) = 1 puts p = 3, d = 3 in Fractional
    assert ee.classify(Fraction(3), 3) is ee.Regime.FRACTIONAL


def test_heat_trace_and_crossing():
    tr = ee.iterate(2, 3, 0.0, 1.4)
    assert tr.alphas == [0.0, 0.5, 1.0]
    assert tr.n_steps == 3
    assert tr.crossed_one
    assert tr.cap == pytest.approx(1.5, abs=1e-15)
    assert math.isinf(tr.limit)
    # heat-regime formal sequence is unbounded (arithmetic half steps)
    assert ee.closed_form_alpha(2, 3, 100) == pytest.approx(50.0)


def test_fractional_trace_matches_geometric_closed_form():
    tr = ee.iterate(3, 3, 0.0, 0.995)
    for n, alpha in enumerate(tr.alphas):
        assert alpha == pytest.approx(ee.closed_form_alpha(3, 3, n), abs=1e-12)
    assert tr.alphas[1] == pytest.approx(2.0 / 9.0, abs=1e-15)
    assert tr.alphas[2] == pytest.approx(32.0 / 81.0, abs=1e-15)
    assert not tr.crossed_one


def test_fractional_trace_monotone_and_bounded():
    tr = ee.iterate(4, 2, 0.0, 0.49)
    assert tr.limit == pytest.approx(0.5, abs=1e-12)
    assert tr.alphas[-1] >= 0.49
    diffs = np.diff(tr.alphas)
    assert np.all(diffs > 0)
    assert max(tr.alphas) < tr.limit


def test_unreachable_targets():
    with pytest.raises(UnreachableTargetError):
        ee.iterate(4, 2, 0.0, 0.5)      # at the fractional ceiling
    with pytest.raises(UnreachableTargetError):
        ee.iterate(2, 3, 0.0, 1.5)      # at the crossing ceiling
    with pytest.raises(ValueError):
        ee.iterate(3, 3, 0.5, 0.25)     # alpha0 >= target


def test_target_where_the_float_recurrence_settles_is_unreachable():
    # gamma0 = 0.994836458341545, but the float recurrence settles one ulp
    # lower, at 0.9948364583415447; the target between them passes the ceiling
    p, target = 3.159424712356178, 0.9948364583415449
    assert target < ee.ceiling(p, 2)
    with pytest.raises(UnreachableTargetError, match="0.9948364583415447"):
        ee.iterate(p, 2, 0.0, target)
    with pytest.raises(UnreachableTargetError):
        ee.iterate(p, 2, 0.0, 0.99).steps_to(target)


def test_second_launch_reaches_the_crossing_ceiling():
    # p = 3, d = 2: the first crossing step's open cap misses 1.03, so one more
    # launch from bases approaching 1 is counted and the cap rises to gamma1
    tr = ee.iterate(3, 2, 0.0, 1.03)
    assert tr.n_steps == 9
    assert tr.crossed_one
    assert tr.cap == ee.gamma1(3, 2)
    assert len(tr.alphas) == 8


@pytest.mark.parametrize("p", [math.nan, math.inf])
def test_non_finite_growth_exponent_rejected(p):
    # inf once classified as full-derivative through nan comparisons and
    # then spun the 100,000-step guard of the iteration
    for call in (ee.classify, ee.gamma1, ee.recurrence_coefficients, ee.ceiling):
        with pytest.raises(ValueError, match="^growth exponent p must be a finite number >= 2"):
            call(p, 2)
    with pytest.raises(ValueError, match="^growth exponent p"):
        ee.iterate(p, 2, 0.0, 0.4)


@pytest.mark.parametrize("d", [0, -1, 2.5, Fraction(5, 2), math.nan, math.inf])
def test_dimension_that_is_not_an_integral_value_at_least_one_is_rejected(d):
    # the rule lives next to the growth-exponent rule, in every function that
    # reads d; the CLI's exponent sweep keeps no copy of it
    calls = [ee.gamma0, ee.gamma1, ee.recurrence_coefficients, ee.classify, ee.ceiling,
             lambda p, d: ee.interp_params(0.5, p, d), lambda p, d: ee.iterate(p, d, 0.0, 0.4)]
    for call in calls:
        with pytest.raises(ValueError, match=f"^dimension d must be an integral value >= 1, "
                                             f"got {re.escape(repr(d))}$"):
            call(3.0, d)
    assert ee.classify(3.0, 2.0) is ee.classify(3.0, 2) is ee.classify(3.0, Fraction(2))


def test_steps_to_matches_constructor():
    tr = ee.iterate(3, 3, 0.0, 0.9)
    assert tr.steps_to(0.9) == tr.n_steps
    assert tr.steps_to(0.2) <= tr.n_steps


def test_interp_params_no_gain_at_theta_zero():
    p = 3.0
    ip = ee.interp_params(0.0, p, 3)
    assert ip.p0 == pytest.approx(p)
    for alpha in (0.1, 0.5, 0.9):
        alpha_prime = ip.alpha_coeff * alpha + ip.alpha_const
        assert alpha_prime == pytest.approx(2 * alpha / p)
        assert alpha_prime < alpha


def test_interp_params_heat_choice():
    ip = ee.interp_params(1.0, 2.0, 3)
    assert ip.alpha_const == pytest.approx(0.5)
    assert ip.alpha_coeff == pytest.approx(1.0)
    assert ip.p0 == pytest.approx(2.0)
    assert ip.q0 == pytest.approx(2.0)


def test_interp_closing_theta_reproduces_recurrence():
    for d in (2, 3):
        for p in P_SWEEP:
            theta = ee.closing_theta(p, d)
            ip = ee.interp_params(theta, p, d)
            assert ip.q0 == pytest.approx(p, abs=1e-12)
            a, b = ee.recurrence_coefficients(p, d)
            # induced alpha map alpha' - 1/p0 + 1/p is the A, B recurrence
            assert ip.next_alpha(0.0, p) == pytest.approx(b, abs=1e-12)
            assert ip.next_alpha(1.0, p) - ip.next_alpha(0.0, p) == pytest.approx(a, abs=1e-12)


def test_interp_specific_values():
    theta = ee.closing_theta(3, 3)
    assert theta == pytest.approx(2.0 / 3.0, abs=1e-15)
    ip = ee.interp_params(theta, 3, 3)
    assert ip.p0 == pytest.approx(2.25, abs=1e-12)


def test_interp_any_finite_branch():
    ip = ee.interp_params(0.0, 4.0, 2)  # denominator 2d - 2p < 0
    assert ip.q0_any_finite
    assert ip.q0 is None
    with pytest.raises(ValueError):
        ee.interp_params(1.5, 3.0, 2)


def test_holder_range():
    lo2, hi2 = ee.holder_range(2)
    assert (lo2, hi2) == (2.0, 4.0)
    lo3, hi3 = ee.holder_range(3)
    assert lo3 == 2.0
    assert hi3 == pytest.approx((9.0 + math.sqrt(33.0)) / 4.0, abs=1e-12)
    assert hi3 == pytest.approx(3.686141, abs=1e-6)
    with pytest.raises(UnsupportedDimensionError):
        ee.holder_range(4)


def test_holder_upper_formula_consistency():
    assert ee.holder_upper_formula(2) == pytest.approx(4.0, abs=1e-12)
    assert ee.holder_upper_formula(3) == pytest.approx(ee.holder_range(3)[1], abs=1e-12)


def test_sobolev_embedding_exponent():
    assert ee.sobolev_embedding_exponent(3) == pytest.approx(6.0)
    assert math.isinf(ee.sobolev_embedding_exponent(2))


def test_alternate_leg_gain_bound():
    for d in (2, 3, 4, 5):
        bound = 2 + 4 / (d + 1)
        assert ee.alternate_leg_gains(bound, d)
        assert not ee.alternate_leg_gains(bound + 1e-9, d)
        # never better than the parabolic-embedding bound ...
        assert bound <= 2 + 4 / d
        # ... and no better than the regime threshold for d >= 3
        if d >= 3:
            assert bound <= ee.growth_threshold(d) + 1e-12


def test_exact_rational_path():
    g0 = ee.gamma0(Fraction(3), 3)
    assert isinstance(g0, Fraction) and g0 == 1
    a, b = ee.recurrence_coefficients(Fraction(3), 3)
    assert (a, b) == (Fraction(7, 9), Fraction(2, 9))
    assert b / (1 - a) == ee.gamma0(Fraction(3), 3)
    assert a + b == ee.gamma1(Fraction(3), 3)


def test_exact_rational_iteration():
    # with Fraction input the recurrence runs in exact arithmetic, so the
    # trace values are exactly the geometric partial sums
    tr = ee.iterate(Fraction(3), 3, Fraction(0), Fraction(39, 40))
    a = Fraction(7, 9)
    for n, alpha in enumerate(tr.alphas):
        assert alpha == float(1 - a**n)
    assert not tr.crossed_one  # the exact ceiling is 1, never crossed
    # heat case in exact arithmetic hits 1 exactly and then crosses
    tr2 = ee.iterate(Fraction(2), 3, Fraction(0), Fraction(7, 5))
    assert tr2.alphas == [0.0, 0.5, 1.0] and tr2.n_steps == 3


@settings(max_examples=200, deadline=None)
@given(p=st.fractions(min_value=2, max_value=12, max_denominator=60).filter(lambda p: p > 2),
       d=st.sampled_from([1, 2, 3, 4]),
       alpha0=st.fractions(min_value=0, max_value=1, max_denominator=30),
       n=st.integers(0, 12))
def test_exact_rational_identities(p, d, alpha0, n):
    a, b = ee.recurrence_coefficients(p, d)
    assert a + b == ee.gamma1(p, d)
    assert b / (1 - a) == ee.gamma0(p, d)
    alpha = alpha0
    for _ in range(n):
        alpha = a * alpha + b
    assert ee.closed_form_alpha(p, d, n, alpha0) == alpha
    fractional = ee.gamma0(p, d) <= 1
    assert (ee.classify(p, d) is ee.Regime.FRACTIONAL) == fractional
    # gamma0 <= 1 is the rational form of p >= 2 + 2/sqrt(d+1)
    assert fractional == ((d + 1) * (p - 2) ** 2 >= 4)
