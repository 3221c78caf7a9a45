"""Pointwise tensor algebra: closed forms, structure bands, gradient consistency."""

import math
import re

import numpy as np
import pytest

import symplap.tensor_models as tm
from symplap.baselines import TENSOR_BANDS
from symplap.errors import DegeneratePairError

A2_P2 = tm.ModelParams(p=2, mu=1.0, model="A2")
A1_P2 = tm.ModelParams(p=2, mu=1.0, model="A1")

PARAM_GRID = [tm.ModelParams(p=p, mu=mu, model=model)
              for model in ("A1", "A2") for p in (2.0, 2.5, 3.0, 4.0) for mu in (0.1, 1.0)]


def rand_sym(rng, scale=2.0):
    return tm.sym(rng.uniform(-scale, scale, (2, 2)))


class TestPotential:
    def test_phi_at_zero(self):
        for params in PARAM_GRID:
            assert tm.phi(0.0, params) == 0.0
            assert tm.phi_d(0.0, params) == 0.0
            assert tm.phi_dd(0.0, params) > 0.0

    def test_phi_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            tm.phi(-0.1, A2_P2)
        with pytest.raises(ValueError):
            tm.phi_d(np.array([0.5, -1.0]), A2_P2)

    @pytest.mark.parametrize("potential", [tm.phi, tm.phi_d, tm.phi_dd])
    @pytest.mark.parametrize("t", [math.nan, np.array([0.5, math.nan])])
    def test_phi_nan_argument_rejected(self, potential, t):
        with pytest.raises(ValueError, match="^potential argument must be nonnegative, not negative or NaN$"):
            potential(t, A2_P2)

    def test_phi_closed_form_a1_quadratic(self):
        # mu/2 + 1/p = 1/2 + 1/2
        assert tm.phi(1.0, A1_P2) == pytest.approx(1.0, abs=1e-15)

    def test_phi_closed_form_a2_quadratic(self):
        # (mu + t^2)^(p/2) reduces to t^2/2 at p = 2
        for t in np.linspace(0.0, 3.0, 13):
            assert tm.phi(t, A2_P2) == pytest.approx(t**2 / 2.0, abs=1e-14)

    def test_phi_strictly_increasing(self):
        t = np.linspace(0.0, 5.0, 200)
        for params in PARAM_GRID:
            vals = tm.phi(t, params)
            assert np.all(np.diff(vals) > 0)

    def test_phi_dd_at_zero_a2(self):
        for p, mu in [(3.0, 4.0), (4.0, 0.1), (2.5, 1.0)]:
            params = tm.ModelParams(p=p, mu=mu, model="A2")
            assert tm.phi_dd(0.0, params) == pytest.approx(mu ** ((p - 2) / 2), rel=1e-14)

    def test_phi_dd_matches_derivative_of_phi_d(self):
        rng = np.random.default_rng(5)
        eps = 1e-6
        for params in PARAM_GRID:
            t = rng.uniform(0.1, 4.0, size=8)
            fd = (tm.phi_d(t + eps, params) - tm.phi_d(t - eps, params)) / (2 * eps)
            assert np.allclose(fd, tm.phi_dd(t, params), rtol=1e-7)

    def test_growth_band(self):
        # phi''(t) / (1 + t^(p-2)) stays within a positive band around phi''(0).
        # A1: analytically within [min(mu, p-1), max(mu, p-1)] (times phi''(0)
        # after normalization); A2: band derived from a dense sweep.
        t_check = np.array([0.0, 0.5, 1.0, 10.0])
        for params in PARAM_GRID:
            base = params.phi_dd0 * (1.0 + t_check ** (params.p - 2.0))
            ratio = tm.phi_dd(t_check, params) / base
            if params.model == "A1" and params.p > 2:
                k = max(1.0, (params.p - 1) / params.mu, params.mu / (params.p - 1))
                assert np.all(ratio >= 1.0 / k - 1e-12)
                assert np.all(ratio <= k + 1e-12)
            else:
                dense = np.linspace(0.0, 20.0, 4001)
                dense_ratio = tm.phi_dd(dense, params) / (
                    params.phi_dd0 * (1.0 + dense ** (params.p - 2.0)))
                k = max(np.max(dense_ratio), 1.0 / np.min(dense_ratio))
                assert np.isfinite(k) and k > 0
                assert np.all(ratio >= 1.0 / k - 1e-12)
                assert np.all(ratio <= k + 1e-12)

    def test_two_sided_bracket_superquadratic(self):
        # phi''(0)/(p(p-1)) (t^2 + t^p) <= phi(t) <= C (t^2 + t^p)/2 on a
        # log-spaced sweep.  The lower constant is the displayed one for
        # p > 2 with mu <= 1; at p = 2 it fails by the hidden band constant
        # (the closed forms are asserted exactly instead).
        t = np.logspace(-3, 2, 41)
        for params in PARAM_GRID:
            if params.p == 2.0:
                continue
            vals = tm.phi(t, params)
            lower = params.phi_dd0 / (params.p * (params.p - 1.0)) * (t**2 + t**params.p)
            assert np.all(lower <= vals * (1 + 1e-12))
            upper_const = np.max(2.0 * vals / (t**2 + t**params.p))
            assert np.isfinite(upper_const)
            assert np.all(vals <= upper_const * (t**2 + t**params.p) / 2.0 * (1 + 1e-12))

    def test_quadratic_closed_forms_exact(self):
        t = np.linspace(0.0, 4.0, 17)
        for mu in (0.1, 1.0):
            a1 = tm.ModelParams(p=2, mu=mu, model="A1")
            a2 = tm.ModelParams(p=2, mu=mu, model="A2")
            assert np.allclose(tm.phi(t, a1), (mu + 1) * t**2 / 2, rtol=1e-14)
            assert np.allclose(tm.phi(t, a2), t**2 / 2, rtol=1e-14)


class TestStressAndVMap:
    def test_stress_at_zero(self):
        for params in PARAM_GRID:
            assert np.all(tm.stress(np.zeros((2, 2)), params) == 0.0)
            assert np.all(tm.v_map(np.zeros((2, 2)), params) == 0.0)

    def test_stress_a2_closed_form(self):
        rng = np.random.default_rng(0)
        params = tm.ModelParams(p=3.5, mu=0.7, model="A2")
        q = rand_sym(rng)
        t = tm.frob(q)
        expect = (0.7 + t**2) ** ((3.5 - 2) / 2) * q
        assert np.allclose(tm.stress(q, params), expect, rtol=1e-14)

    def test_stress_identity_at_p2(self):
        rng = np.random.default_rng(1)
        q = rand_sym(rng)
        assert np.allclose(tm.stress(q, A2_P2), q, rtol=1e-14)
        # A1 at p = 2 is (mu + 1) Q
        assert np.allclose(tm.stress(q, A1_P2), 2.0 * q, rtol=1e-14)

    def test_v_map_exponent(self):
        rng = np.random.default_rng(2)
        q = rand_sym(rng)
        assert np.allclose(tm.v_map(q, A2_P2), q, rtol=1e-14)
        p4 = tm.ModelParams(p=4, mu=1.0, model="A2")
        expect = (1.0 + tm.frob(q) ** 2) ** 0.5 * q
        assert np.allclose(tm.v_map(q, p4), expect, rtol=1e-14)

    def test_symmetry_preserved_exactly(self):
        rng = np.random.default_rng(3)
        q = rand_sym(rng, scale=5.0)
        for params in PARAM_GRID:
            s = tm.stress(q, params)
            v = tm.v_map(q, params)
            assert np.array_equal(s, s.T)
            assert np.array_equal(v, v.T)

    def test_stress_is_gradient_of_potential(self):
        # finite differences of phi(|Q|) in symmetric directions, step 1e-5
        rng = np.random.default_rng(4)
        eps = 1e-5
        for params in PARAM_GRID:
            q = rand_sym(rng)
            s = tm.stress(q, params)
            fd = np.zeros((2, 2))
            for i in range(2):
                for j in range(2):
                    e = np.zeros((2, 2))
                    e[i, j] += 0.5
                    e[j, i] += 0.5
                    fd[i, j] = (tm.phi(tm.frob(q + eps * e), params)
                                - tm.phi(tm.frob(q - eps * e), params)) / (2 * eps)
            assert np.max(np.abs(fd - s)) <= 1e-6 * max(1.0, np.max(np.abs(s)))

    def test_stress_derivative_matches_directional_fd(self):
        rng = np.random.default_rng(6)
        for params in PARAM_GRID:
            q, h = rand_sym(rng), rand_sym(rng, scale=1.0)
            eps = 1e-6
            fd = (tm.stress(q + eps * h, params) - tm.stress(q - eps * h, params)) / (2 * eps)
            an = tm.stress_derivative_apply(q, h, params)
            assert np.allclose(fd, an, rtol=1e-5, atol=1e-8)

    def test_stress_derivative_at_zero(self):
        h = np.array([[1.0, 0.2], [0.2, -0.4]])
        for params in PARAM_GRID:
            q = np.zeros((2, 2))
            out = tm.stress_derivative_apply(q, h, params)
            assert np.allclose(out, params.phi_dd0 * h, rtol=1e-14)
            assert np.all(np.isfinite(out))


class TestTensorShapes:
    @pytest.mark.parametrize("tensor_map", [tm.stress, tm.v_map])
    @pytest.mark.parametrize("shape", [(), (3,), (4, 2, 3)])
    def test_a_non_matrix_argument_is_rejected_by_name(self, tensor_map, shape):
        with pytest.raises(ValueError, match=rf"^q of shape {re.escape(str(shape))} is not a stack "
                                             r"of \(\.\.\., d, d\) matrices$"):
            tensor_map(np.ones(shape), A2_P2)

    @pytest.mark.parametrize("pair_map", [tm.equivalence_ratios, tm.lipschitz_ratio, tm.monotone_pairing])
    def test_stacks_of_two_shapes_are_rejected_naming_both(self, pair_map):
        # (4, 2, 2) against (1, 2, 2) or (2, 2) would broadcast; one shape is the rule
        for q_shape in [(3, 2, 2), (1, 2, 2), (2, 2)]:
            with pytest.raises(ValueError, match=rf"^p_mat of shape \(4, 2, 2\) and q_mat of shape "
                                                 rf"{re.escape(str(q_shape))} differ$"):
                pair_map(np.ones((4, 2, 2)), np.zeros(q_shape), A2_P2)


class TestModelParams:
    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_non_finite_growth_exponent_rejected(self, p):
        with pytest.raises(ValueError, match="^growth exponent p must be a finite number >= 2"):
            tm.ModelParams(p=p)

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_non_finite_safety_parameter_rejected(self, mu):
        with pytest.raises(ValueError, match="^safety parameter mu must be a finite positive number"):
            tm.ModelParams(p=3.0, mu=mu)


class TestEquivalence:
    def test_linear_case_ratios_are_one(self):
        # at p = 2, mu = 1 (A2) all three quadratic forms coincide
        q = np.array([[0.4, -0.1], [-0.1, 1.2]])
        for eps in (1.0, 1e-3, 1e-8):
            r1, r2 = tm.equivalence_ratios(q + eps * np.eye(2), q, A2_P2)
            assert r1 == pytest.approx(1.0, rel=1e-9)
            assert r2 == pytest.approx(1.0, rel=1e-9)

    def test_degenerate_pair_rejected(self):
        q = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(DegeneratePairError):
            tm.equivalence_ratios(q, q.copy(), A2_P2)

    def test_opposite_rank_one_pair_finite(self):
        p_mat = np.diag([1.0, 0.0])
        q_mat = -p_mat
        for params in PARAM_GRID:
            r1, r2 = tm.equivalence_ratios(p_mat, q_mat, params)
            assert math.isfinite(r1) and r1 > 0
            assert math.isfinite(r2) and r2 > 0

    @pytest.mark.parametrize("model", ["A1", "A2"])
    def test_frozen_bands_hold(self, model):
        # 10^4 seeded pairs per parameter set stay inside the recorded bands;
        # in particular the monotonicity ratio stays above the frozen c > 0.
        for p in (2.0, 2.5, 3.0, 4.0):
            for mu in (0.1, 1.0):
                params = tm.ModelParams(p=p, mu=mu, model=model)
                rng = np.random.default_rng(20240601)
                pm, qm = tm.sample_symmetric_pairs(rng, 10_000, d=2, radius=10.0)
                r1, r2 = tm.equivalence_ratios(pm, qm, params)
                lip = tm.lipschitz_ratio(pm, qm, params)
                band = TENSOR_BANDS[(model, p, mu)]
                assert band["r1_min"] > 0
                assert np.min(r1) >= band["r1_min"]
                assert np.max(r1) <= band["r1_max"]
                assert np.min(r2) >= band["r2_min"]
                assert np.max(r2) <= band["r2_max"]
                assert np.max(lip) <= band["lip_max"]
                # monotonicity itself: nonnegative pairing everywhere
                assert np.min(tm.monotone_pairing(pm, qm, params)) >= 0.0
                # the frozen band is the measured one padded by 1 % on each side
                measured = tm.measure_assumption_bands(params)
                for key, frozen in band.items():
                    pad = 0.99 if key.endswith("_min") else 1.01
                    assert measured[key] * pad == pytest.approx(frozen, rel=1e-12)
