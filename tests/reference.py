"""Per-lag reference forms of the time-norm evaluator.

``_NormContext`` evaluates difference norms in blocks of lags.  These are the
one-lag-at-a-time loops it replaced, kept as the tests' reference: each lag
is differenced by the binomial stencil, reduced, snapped to the rounding floor
and measured by the one-row discrete L^p norm in time.  The block evaluation
must equal them bit for bit.
"""

import math

import numpy as np

import symplap.function_spaces as fs

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
    return time_lp(difference_sample_norms(ctx, r, k), p, ctx.f.dt)


def seminorm(ctx, alpha, r, delta, p):
    best = 0.0
    for k in fs.admissible_steps(ctx.f, r, delta):
        h = k * ctx.f.dt
        best = max(best, h ** (-alpha) * difference_norm(ctx, r, k, p))
    return float(best)


def holder_seminorm(ctx, lam):
    best = 0.0
    for k in range(1, ctx.f.n_samples):
        diff = ctx.reduce(ctx.rows[k:] - ctx.rows[:-k])
        best = max(best, np.max(diff) / (k * ctx.f.dt) ** lam)
    return float(best)
