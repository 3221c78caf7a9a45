"""Property tests of the solver's kernels against their reference forms.

The spectral preconditioner on ``rfft2`` is the exact inverse of the p = 2
Newton operator ``v/dt - gbar div D v`` and agrees with the full-spectrum
``fft2`` form it replaced; ``sym`` and the Hessian action with hoisted
coefficients reproduce their direct formulas bit for bit, and the solver's
own preconditioned CG returns what ``scipy.sparse.linalg.cg`` returns, bit
for bit, with and without the solver's workspace.  The solver step's
kernels on planar (2, n, n) vectors and plane-stored symmetric fields --
gradient, norm, contraction, divergence, residual, Hessian action, energy
and the stacked preconditioner -- give the bits of the (2, 2) forms they
replaced.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.sparse.linalg import LinearOperator
from scipy.sparse.linalg import cg as reference_cg

import symplap.pde_solver as ps
import symplap.tensor_models as tm
from symplap import stencil

GRIDS = st.sampled_from([8, 16, 32]).map(ps.TorusGrid)
DTS = st.floats(1e-4, 0.1)
GBARS = st.floats(0.5, 20.0)


def fields(grid, seed):
    """A random vector field plus checkerboards on the Nyquist row, column and corner."""
    rng = np.random.default_rng(seed)
    sign = (-1.0) ** np.arange(grid.n)
    rows, cols = np.meshgrid(sign, sign, indexing="ij")
    v = rng.normal(size=(grid.n, grid.n, 2))
    for pattern in (rows, cols, rows * cols):
        v += rng.normal(size=2) * pattern[..., None]
    return v


def preconditioner(grid, dt, gbar):
    """The solver's preconditioner, applied to an (n, n, 2) field through its planar form."""
    apply = ps._spectral_preconditioner(ps._symbol_factors(grid), dt, gbar)
    return lambda v: np.moveaxis(apply(np.ascontiguousarray(np.moveaxis(v, -1, 0))), 0, -1)


def linear_operator(v, grid, dt, gbar):
    """v/dt - gbar div D v: the Newton operator of the p = 2 step."""
    return v / dt - gbar * ps.divergence(ps.sym_gradient(v, grid), grid)


def fft2_preconditioner(grid, dt, gbar):
    """The full-spectrum form of the preconditioner, solving each mode's block of dt
    times the operator directly, then multiplying by dt."""
    s = stencil.symbol(grid.n, grid.h)
    s1, s2 = s[:, None], s[None, :]
    c = 0.5 * dt * gbar
    ssq = s1**2 + s2**2
    a = 1.0 + c * ssq

    def apply(v):
        vhat = np.fft.fft2(v, axes=(0, 1))
        sv = s1 * vhat[..., 0] + s2 * vhat[..., 1]
        factor = c * sv / (a + c * ssq)
        out = np.empty_like(vhat)
        out[..., 0] = (vhat[..., 0] - factor * s1) / a
        out[..., 1] = (vhat[..., 1] - factor * s2) / a
        z = np.real(np.fft.ifft2(out, axes=(0, 1)))
        z *= dt
        return z

    return apply


@settings(max_examples=40, deadline=None)
@given(grid=GRIDS, dt=DTS, gbar=GBARS, seed=st.integers(0, 2**32 - 1))
def test_preconditioner_inverts_the_linear_operator(grid, dt, gbar, seed):
    apply = preconditioner(grid, dt, gbar)
    v = fields(grid, seed)
    scale = np.max(np.abs(v))
    assert np.max(np.abs(apply(linear_operator(v, grid, dt, gbar)) - v)) <= 1e-12 * scale
    assert np.max(np.abs(linear_operator(apply(v), grid, dt, gbar) - v)) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(grid=GRIDS, dt=DTS, gbar=GBARS, seed=st.integers(0, 2**32 - 1))
def test_preconditioner_matches_the_full_spectrum_form(grid, dt, gbar, seed):
    v = fields(grid, seed)
    new = preconditioner(grid, dt, gbar)(v)
    old = fft2_preconditioner(grid, dt, gbar)(v)
    # both sides carry the factor dt, so the bound does too
    assert np.max(np.abs(new - old)) <= 1e-14 * dt * np.max(np.abs(v))


# |a| < 2**1023 keeps a + a finite on the diagonal
ENTRIES = st.floats(-2.0**1022, 2.0**1022, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 3).flatmap(
    lambda d: hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.just(d), st.just(d)), elements=ENTRIES)))
def test_sym_equals_the_averaged_transpose_bit_for_bit(m):
    want = 0.5 * (m + np.swapaxes(m, -1, -2))
    assert np.array_equal(tm.sym(m).view(np.uint64), want.view(np.uint64))


def per_action_stress_derivative(q, h, params):
    """The Hessian action with its coefficients evaluated inside, as one formula."""
    p, mu = params.p, params.mu
    t = tm.frob(q)
    g = tm._phi_d_over_t(t, params)
    qh = np.sum(q * h, axis=(-2, -1))
    if params.model == "A1":
        with np.errstate(divide="ignore", invalid="ignore"):
            c2 = np.where(t > 0.0, (p - 2.0) * t ** (p - 4.0), 0.0)
    else:
        c2 = (p - 2.0) * (mu + t**2) ** ((p - 4.0) / 2.0)
    coeff = np.where(t > 0.0, c2, 0.0) * qh
    return g[..., None, None] * h + coeff[..., None, None] * q


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(tm.MODELS), p=st.sampled_from([2.0, 2.5, 3.0, 4.0]),
       mu=st.floats(0.1, 2.0), seed=st.integers(0, 2**32 - 1), zeros=st.floats(0.0, 0.5))
def test_hoisted_hessian_action_matches_the_per_action_formula(model, p, mu, seed, zeros):
    params = tm.ModelParams(p=p, mu=mu, model=model)
    rng = np.random.default_rng(seed)
    q = tm.sym(rng.normal(scale=3.0, size=(6, 6, 2, 2)))
    q[rng.random((6, 6)) < zeros] = 0.0  # |Q| = 0 points take the limit g(0) H
    q[0, 0] = 0.0
    h = tm.sym(rng.normal(size=(6, 6, 2, 2)))
    got = tm.stress_derivative_apply(q, h, params)
    want = per_action_stress_derivative(q, h, params)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 64), decades=st.floats(0.0, 6.0), seed=st.integers(0, 2**32 - 1),
       zero_rhs=st.booleans(), atol=st.sampled_from([0.0, 1e-14, 1e-6]), column=st.booleans())
def test_cg_equals_the_reference_cg_bit_for_bit(n, decades, seed, zero_rhs, atol, column):
    # a random SPD matrix with eigenvalues over up to six decades and a random
    # SPD diagonal preconditioner; ``column`` poses the system on (n, 1)
    # arrays, as the solver poses it on (n, n, 2) fields
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = (q * np.logspace(0.0, decades, n)) @ q.T
    a = 0.5 * (a + a.T)
    d = rng.uniform(0.1, 10.0, size=n)
    b = np.zeros(n) if zero_rhs else rng.normal(size=n)
    shape = (n, 1) if column else (n,)
    ours, pooled, theirs = [], [], []
    x, info = ps.cg(lambda v: (a @ v.ravel()).reshape(shape), b.reshape(shape),
                    precond=lambda v: (d * v.ravel()).reshape(shape), atol=atol,
                    callback=lambda xk: ours.append(xk.copy()))
    # the solver's workspace, pre-filled with garbage, holds x, r and p
    work = tuple(rng.normal(size=(3,) + shape))
    x_pooled, info_pooled = ps.cg(lambda v: (a @ v.ravel()).reshape(shape), b.reshape(shape),
                                  precond=lambda v: (d * v.ravel()).reshape(shape), atol=atol,
                                  callback=lambda xk: pooled.append(xk.copy()), _work=work)
    assert info_pooled == info
    assert len(pooled) == len(ours)
    for got, ref in zip(pooled + [x_pooled], ours + [x]):
        assert np.array_equal(bits(got), bits(ref))
    want, want_info = reference_cg(
        LinearOperator((n, n), matvec=lambda v: a @ v, dtype=float), b, rtol=ps.CG_RTOL,
        atol=atol, maxiter=ps.CG_MAXITER, M=LinearOperator((n, n), matvec=lambda v: d * v, dtype=float),
        callback=lambda xk: theirs.append(xk.copy()))
    assert info == want_info
    assert len(ours) == len(theirs)
    assert x.shape == shape
    for got, ref in zip(ours + [x], theirs + [want]):
        assert np.array_equal(got.ravel().view(np.uint64), ref.view(np.uint64))


# The step holds symmetric fields as three planes (e11, e12, e22); every
# kernel must give the bits of the (2, 2) composition it replaced.

MODELS = st.sampled_from(tm.MODELS)
EXPONENTS = st.sampled_from([2.0, 2.5, 3.0, 4.0])


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def flat_fields(grid, seed, flat):
    """``fields`` with a square patch set to a constant (|Du| = 0 inside it)
    and, when ``flat``, a pure checkerboard, which the difference cannot see."""
    rng = np.random.default_rng(seed)
    if flat:
        sign = (-1.0) ** np.arange(grid.n)
        return rng.normal(size=2) * (sign[:, None] * sign[None, :])[..., None] + rng.normal(size=2)
    u = fields(grid, seed)
    i, j = rng.integers(0, grid.n, size=2)
    u[i:i + grid.n // 2, j:j + grid.n // 2] = rng.normal(size=2)
    return u


def full_sym_gradient(u, grid):
    """The symmetrized gradient formed on the full (2, 2) gradient."""
    return tm.sym(stencil.gradient(u, grid.h, (-3, -2)))


def zero_start_divergence(t_field, grid):
    """Row-wise divergence as a sum started from zero, on the (2, 2) layout."""
    out, term = np.zeros(t_field.shape[:-1]), np.empty(t_field.shape[:-1])
    out += stencil.difference(t_field[..., 0], -3, grid.h, term)
    out += stencil.difference(t_field[..., 1], -2, grid.h, term)
    return out


@settings(max_examples=40, deadline=None)
@given(grid=GRIDS, lead=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_sym_gradient_and_divergence_on_stacks_match_the_full_tensor_forms(grid, lead, seed):
    rng = np.random.default_rng(seed)
    u = np.stack([fields(grid, s) for s in rng.integers(0, 2**32, size=lead)])
    assert np.array_equal(bits(ps.sym_gradient(u, grid)), bits(full_sym_gradient(u, grid)))
    # signed zeros too: a sum of two -0.0 differences is +0.0 from a zero start
    t_field = rng.normal(size=u.shape + (2,))
    t_field[rng.random(t_field.shape) < 0.3] = -0.0
    t_field[rng.random(t_field.shape) < 0.2] = 0.0
    want = zero_start_divergence(t_field, grid)
    assert np.array_equal(bits(ps.divergence(t_field, grid)), bits(want))


def planar(u):
    """An (n, n, 2) field as the contiguous (2, n, n) planes the step works on."""
    return np.ascontiguousarray(np.moveaxis(u, -1, 0))


def planes(m):
    return np.stack([m[..., 0, 0], m[..., 0, 1], m[..., 1, 1]])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), zeros=st.floats(0.0, 0.9))
def test_plane_norm_and_contraction_match_the_full_tensor_reductions(seed, zeros):
    # entries of either sign, and signed zeros: a sum of -0.0 products is
    # +0.0 when the reduction starts from zero
    rng = np.random.default_rng(seed)
    q, h = rng.normal(size=(2, 6, 6, 2, 2))
    for m in (q, h):
        m[rng.random(m.shape) < zeros] = -0.0
        m[rng.random(m.shape) < zeros / 2] = 0.0
        m[..., 1, 0] = m[..., 0, 1]
    work, out = np.empty((2, 6, 6))
    assert np.array_equal(bits(ps._plane_norm(planes(q), out, work)), bits(tm.frob(q)))
    ps._plane_contraction(planes(q), planes(h), out, work)
    assert np.array_equal(bits(out), bits(np.sum(q * h, axis=(-2, -1))))


@settings(max_examples=80, deadline=None)
@given(count=st.integers(1, 7), seed=st.integers(0, 2**32 - 1), zeros=st.floats(0.0, 0.9))
def test_plane_dot_equals_the_trailing_axis_sum(count, seed, zeros):
    # random mantissas and exponents, and signed zeros in both factors
    rng = np.random.default_rng(seed)
    shape = (count, 5, 7)
    a, b = rng.normal(size=(2,) + shape) * 2.0 ** rng.integers(-200, 200, size=(2,) + shape)
    for m in (a, b):
        m[rng.random(shape) < zeros] = -0.0
        m[rng.random(shape) < zeros / 2] = 0.0
    out, work = np.empty((2, 5, 7))
    assert tm._plane_dot(a, b, out, work) is out
    want = np.sum(np.stack([a[k] * b[k] for k in range(count)], axis=-1), axis=-1)
    assert np.array_equal(bits(out), bits(want))


@settings(max_examples=40, deadline=None)
@given(grid=GRIDS, model=MODELS, p=EXPONENTS, seed=st.integers(0, 2**32 - 1), flat=st.booleans())
def test_energy_matches_the_full_tensor_form(grid, model, p, seed, flat):
    params = tm.ModelParams(p=p, mu=0.5, model=model)
    u = flat_fields(grid, seed, flat)
    want = float(grid.h**2 * np.sum(tm.phi(tm.frob(full_sym_gradient(u, grid)), params)))
    assert np.array_equal(bits(ps.energy(u, params, grid)), bits(want))


@settings(max_examples=40, deadline=None)
@given(grid=GRIDS, model=MODELS, p=EXPONENTS, mu=st.floats(0.1, 2.0), dt=DTS,
       seed=st.integers(0, 2**32 - 1), flat=st.booleans())
def test_plane_residual_and_hessian_action_match_the_full_tensor_forms(
        grid, model, p, mu, dt, seed, flat):
    params = tm.ModelParams(p=p, mu=mu, model=model)
    rng = np.random.default_rng(seed)
    u, u_prev = flat_fields(grid, seed, flat), fields(grid, seed + 1)
    v = rng.normal(size=u.shape)
    work = ps._Workspace(grid)
    e, t, g, r = ps._residual(planar(u), planar(u_prev), dt, params, grid.h, work)
    du = full_sym_gradient(u, grid)
    want = (u - u_prev) / dt - zero_start_divergence(tm.stress(du, params), grid)
    assert np.array_equal(bits(np.moveaxis(r, 0, -1)), bits(want))
    assert np.array_equal(bits(e), bits(planes(du)))
    assert np.array_equal(bits(t), bits(tm.frob(du)))
    assert np.array_equal(bits(g), bits(tm._phi_d_over_t(tm.frob(du), params)))
    action = ps._hessian_action(planar(v), e, g, tm._rank_one_coefficient(t, params), dt,
                                grid.h, work)
    want = v / dt - zero_start_divergence(
        tm.stress_derivative_apply(du, full_sym_gradient(v, grid), params), grid)
    assert np.array_equal(bits(np.moveaxis(action, 0, -1)), bits(want))


def axes_preconditioner(grid, dt, gbar):
    """The preconditioner transforming the (n, n, 2) field with ``axes=(0, 1)``, then
    multiplying by dt."""
    s = stencil.symbol(grid.n, grid.h)
    s1, s2 = s[:, None], s[None, : grid.n // 2 + 1]
    c = 0.5 * dt * gbar
    ssq = s1**2 + s2**2
    a = 1.0 + c * ssq
    w = c / (a * (a + c * ssq))
    m11, m12, m22 = 1.0 / a - w * s1**2, -w * s1 * s2, 1.0 / a - w * s2**2

    def apply(v):
        vhat = np.fft.rfft2(v, axes=(0, 1))
        out = np.empty_like(vhat)
        out[..., 0] = m11 * vhat[..., 0] + m12 * vhat[..., 1]
        out[..., 1] = m12 * vhat[..., 0] + m22 * vhat[..., 1]
        z = np.fft.irfft2(out, s=(grid.n, grid.n), axes=(0, 1))
        z *= dt
        return z

    return apply


@settings(max_examples=40, deadline=None)
@given(grid=st.sampled_from([8, 16, 32, 64]).map(ps.TorusGrid), dt=DTS, gbar=GBARS,
       seed=st.integers(0, 2**32 - 1))
def test_plane_preconditioner_matches_the_axes_form(grid, dt, gbar, seed):
    v = fields(grid, seed)
    new = preconditioner(grid, dt, gbar)(v)
    assert np.array_equal(bits(new), bits(axes_preconditioner(grid, dt, gbar)(v)))
