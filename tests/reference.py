"""Reference forms of evaluations that now run in blocks, on planes or on boxes.

``_NormContext`` evaluates difference norms in blocks of lags.  The per-lag
functions below are the one-lag-at-a-time loops it replaced: each lag is
differenced by the binomial stencil, reduced, snapped to the rounding floor
and measured by the one-row discrete L^p norm in time.  ``lq_reduction``
reduces the short trailing component axis, where the engine sums component
planes, and ``caccioppoli`` evaluates the ball estimate's densities on the
full grid, where the analyzer works on the balls' periodic boxes.
``l2`` is the ``np.sum`` form of the row-wise l2 norm, which the engine
sums column plane by column plane on narrow real rows, and ``lag_windows``
the ``sliding_window_view`` form of the strided lag windows.
``features`` maps every sample through one ``_feature_map`` call and
rescales the whole matrix at once, where ``_features`` maps blocks of
samples into one preallocated matrix and rescales it in place.
``sweep_steps`` and ``marchaud_steps`` are the loops that chose the dyadic
steps of the analyzer's sweep and of the Marchaud check before both took
them from ``function_spaces.dyadic_steps``.  The current evaluations must
equal all of them bit for bit.  ``random_smooth`` is the direct cosine sum
that built the ``random_smooth`` initial data before one inverse FFT did;
that synthesis equals it to rounding, not bit for bit.
``dictionary_functionals`` is the expression that built the W^{-1,q'}
functionals out of place, where ``_dictionary_functionals`` scales the
gathered rows in place.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import symplap.function_spaces as fs
from symplap import stencil
from symplap.regularity_analyzer import _ball_mask
from symplap.tensor_models import frob, phi, sym, v_map

EPS = np.finfo(float).eps


def unit_exponent(top, q):
    k = 800.0 / (q if 2.0 < q < math.inf else 2.0)
    if 0.0 < top < math.inf and not 2.0**-k < top < 2.0**k:
        return math.frexp(top)[1]
    return 0


def time_lp(g, p, dt):
    g = np.asarray(g, dtype=float)
    m = g.shape[0]
    if math.isinf(p):
        return float(np.max(g))
    w = (m - 1) / m * dt
    exp = unit_exponent(float(np.max(g)), p)
    return float(np.ldexp((w * np.sum(np.ldexp(g, -exp) ** p)) ** (1.0 / p), exp))


def l2(rows):
    return np.sqrt(np.sum(np.abs(rows) ** 2, axis=1))


def lag_windows(a, start, step, lags, m):
    if lags == 1:
        return a[None, start : start + m]
    a = a[start:]
    short = (lags - 1) * step + m - a.shape[0]
    if short > 0:
        a = np.concatenate([a, np.zeros((short,) + a.shape[1:], a.dtype)])
    return np.moveaxis(sliding_window_view(a, m, axis=0)[::step][:lags], -1, 1)


def features(values, norm, geom):
    """``(rows, reduce)`` of all samples from one ``_feature_map`` call, brought
    to unit size by one power of two when their powers would leave the float range."""
    rows, reduce = fs._feature_map(values, norm, geom)
    exp = int(fs._unit_exponent(fs._row_top(rows), norm.q))
    if not exp:
        return rows, reduce
    return np.ldexp(rows.view(float), -exp).view(rows.dtype), lambda r: np.ldexp(reduce(r), exp)


def difference(a, r, k):
    m = a.shape[0] - r * k
    weights = fs._binomial_weights(r)
    out = weights[0] * a[:m]
    for j in range(1, r + 1):
        out = out + weights[j] * a[j * k : j * k + m]
    return out


def difference_sample_norms(ctx, r, k):
    vals = ctx.reduce(difference(ctx.rows, r, k))
    floor = 32.0 * 2.0**r * EPS * ctx.scale
    return np.where(vals <= floor, 0.0, vals)


def difference_norm(ctx, r, k, p):
    return time_lp(difference_sample_norms(ctx, r, k), p, ctx.dt)


def seminorm(ctx, alpha, r, delta, p):
    best = 0.0
    for k in fs.admissible_steps(ctx, r, delta):
        h = k * ctx.dt
        best = max(best, h ** (-alpha) * difference_norm(ctx, r, k, p))
    return float(best)


def sweep_steps(f, r, delta):
    """Steps 2, 4, 8, ... with k*dt <= delta and a nonempty order-r difference domain."""
    ks, k = [], 2
    while k * f.dt <= delta * (1 + 1e-12) and f.n_samples - r * k >= 2:
        ks.append(k)
        k *= 2
    return ks


def marchaud_steps(f, r):
    """Steps 1, 2, 4, ... that leave room for the index set of steps 2rh."""
    ks, k = [], 1
    while f.n_samples - 2 * r * k >= 2:
        ks.append(k)
        k *= 2
    return ks


def holder_seminorm(ctx, lam):
    best = 0.0
    for k in range(1, ctx.n_samples):
        diff = ctx.reduce(ctx.rows[k:] - ctx.rows[:-k])
        best = max(best, np.max(diff) / (k * ctx.dt) ** lam)
    return float(best)


def dictionary_functionals(geom, shape, ncomp, q):
    dictionary = fs._test_dictionary(shape, ncomp)
    q_dual = math.inf if q == 1.0 else 1.0 if math.isinf(q) else q / (q - 1.0)
    vnorms = fs.xnorms_over_time(dictionary, fs.w1p(q_dual), geom)
    keep = vnorms > 0
    weight = np.where(geom.mask, 1.0, 0.0)[..., None] if geom.mask is not None else 1.0
    rows = (dictionary * weight).reshape(len(dictionary), -1)[keep]
    return rows * geom.cell_measure() / vnorms[keep, None]


def lq_reduction(points, comps, q, cell):
    def reduce(rows: np.ndarray) -> np.ndarray:
        m, mags, start = rows.shape[0], [], 0
        for c in comps:
            block = rows[:, start : start + points * c].reshape(m, points, c)
            mags.append(np.abs(block[:, :, 0]) if c == 1 else np.sqrt(np.sum(block**2, axis=2)))
            start += points * c
        mag = np.concatenate(mags, axis=1)
        if math.isinf(q):
            return np.max(mag, axis=1) if mag.size else np.zeros(m)
        return (cell * np.sum(mag**q, axis=1)) ** (1.0 / q)
    return reduce


def random_smooth(grid, seed, cutoff, amplitude):
    """``pde_solver.initial_condition("random_smooth", ...).data`` as a sum of
    full-grid cosines, one per mode and component, with the same draws."""
    x1, x2 = grid.coordinates()
    rng = np.random.default_rng(seed)
    data = np.zeros((grid.n, grid.n, 2))
    for k1 in range(-cutoff, cutoff + 1):
        for k2 in range(-cutoff, cutoff + 1):
            if k1 == 0 and k2 == 0:
                continue
            phase = rng.uniform(0.0, 2.0 * math.pi, size=2)
            amp = rng.normal(size=2) / (1.0 + k1**2 + k2**2)
            for c in range(2):
                data[..., c] += amp[c] * np.cos(k1 * x1 + k2 * x2 + phase[c])
    data *= amplitude / max(np.max(np.abs(data)), 1e-30)
    return data


def caccioppoli(traj, center_xy, r, big_r):
    """``(lhs, rhs_sup)`` of ``check_caccioppoli``, from densities on the full grid."""
    grid = traj.grid
    mask_r = _ball_mask(grid, center_xy, r)
    mask_R = _ball_mask(grid, center_xy, big_r)
    h2 = grid.h**2
    phi_dd0 = traj.model.phi_dd0

    lhs = 0.0
    rhs_sup = 0.0
    for k in range(1, traj.n_steps + 1):
        u = traj.snapshots[k]
        grad_u = stencil.gradient(u, grid.h, (0, 1))
        du = sym(grad_u)  # sym_gradient(u, grid) bit for bit, from the same differences
        vdu = v_map(du, traj.model)
        grad_v = stencil.gradient(vdu, grid.h, (0, 1))
        grad_du = stencil.gradient(du, grid.h, (0, 1))
        dens = np.sum(grad_v**2, axis=(-3, -2, -1)) + phi_dd0 * np.sum(grad_du**2, axis=(-3, -2, -1))
        lhs = max(lhs, h2 * float(np.sum(dens[mask_r])))

        ut = (traj.snapshots[k] - traj.snapshots[k - 1]) / traj.dt
        dens_rhs = phi(frob(grad_u), traj.model) + np.sum(ut**2, axis=-1)
        rhs_sup = max(rhs_sup, h2 * float(np.sum(dens_rhs[mask_R])))
    return lhs, rhs_sup
