"""Pointwise algebra of the p-potentials, the stress tensor and the square-root map.

Two convex potentials drive the diffusion law, both with safety parameter
``mu > 0``:

* additive core (model A1):   ``phi(t) = mu*t**2/2 + t**p/p``
* quadratic core (model A2):  ``phi(t) = ((mu + t**2)**(p/2) - mu**(p/2)) / p``

Both satisfy ``phi(0) = phi'(0) = 0`` and ``phi''(0) > 0``, and ``phi''`` stays
within a constant band of ``phi''(0) * (1 + t**(p-2))`` for ``p >= 2``.

The table ``_CLOSED_FORMS`` is the one home of each model's closed forms: for
each model name it holds phi, ``phi'(t)/t``, phi'' and ``g'(t)/t`` with
``g = phi'/t``, as functions of ``(t, p, mu)``, and ``MODELS`` is its keys.
The functions below look the model up there and keep their own input checks.

The stress is the gradient of the potential of the Frobenius norm,

    ``stress(Q) = phi'(|Q|) * Q / |Q|``,

and the square-root map rescales by ``sqrt(phi'(|Q|)/|Q|)`` so that the
monotone pairing ``(stress(P) - stress(Q)) : (P - Q)`` is comparable both to
``phi''(|P|+|Q|) |P-Q|**2`` and to ``|v_map(P) - v_map(Q)|**2``.  The ratio
``phi'(t)/t`` extends analytically through ``t = 0`` with value ``phi''(0)``;
everything below uses that closed form, so the degenerate point ``Q = 0`` is
exact rather than epsilon-guarded.

All maps act pointwise on arrays of symmetric matrices: input of shape
``(..., d, d)`` is processed along the last two axes, so they apply to whole
tensor fields in one call.  The coefficients of the stress and of its
derivative are also given as functions of ``t = |Q|`` alone
(:func:`_phi_d_over_t`, :func:`_rank_one_coefficient`), which the solver
calls on its own plane-stored fields.

Two blind spots come from squaring in floating point:

* ``|Q|**2`` overflows once ``|Q|`` passes about 1e154.  numpy then
  emits a ``RuntimeWarning``, which the test suite's settings turn into an
  error; ``stress(np.full((2, 2), 1e200), params)`` does this.
* ``equivalence_ratios`` and ``lipschitz_ratio`` count a pair as identical
  when the squares of its difference underflow to 0, i.e. when the entries
  differ by less than about 1e-162 (below about 1e-154 those squares are
  subnormal and lose digits).  At such a radius ``measure_assumption_bands``
  raises ``DegeneratePairError``; ``sample_symmetric_pairs`` itself tests ties
  exactly and returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePairError, real_array, require_finite, require_integer

#: model name -> its closed forms as functions of (t, p, mu): phi, phi'(t)/t,
#: phi'' and g'(t)/t with g = phi'/t
_CLOSED_FORMS = {
    "A1": {"phi": lambda t, p, mu: mu * t**2 / 2.0 + t**p / p,
           "phi_d_over_t": lambda t, p, mu: mu + t ** (p - 2.0),
           "phi_dd": lambda t, p, mu: mu + (p - 1.0) * t ** (p - 2.0),
           "rank_one": lambda t, p, mu: (p - 2.0) * t ** (p - 4.0)},
    "A2": {"phi": lambda t, p, mu: ((mu + t**2) ** (p / 2.0) - mu ** (p / 2.0)) / p,
           "phi_d_over_t": lambda t, p, mu: (mu + t**2) ** ((p - 2.0) / 2.0),
           "phi_dd": lambda t, p, mu: (mu + t**2) ** ((p - 4.0) / 2.0) * (mu + (p - 1.0) * t**2),
           "rank_one": lambda t, p, mu: (p - 2.0) * (mu + t**2) ** ((p - 4.0) / 2.0)},
}
MODELS = tuple(_CLOSED_FORMS)


@dataclass(frozen=True)
class ModelParams:
    """Growth exponent, safety parameter and model selector."""

    p: float
    mu: float = 1.0
    model: str = "A2"

    def __post_init__(self):
        require_finite("growth exponent p", self.p, at_least=2)
        require_finite("safety parameter mu", self.mu)
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")

    @property
    def phi_dd0(self) -> float:
        """phi''(0), strictly positive thanks to the safety structure."""
        val = phi_dd(0.0, self)
        assert val > 0.0
        return float(val)


def _check_nonneg(t):
    t = real_array("t", t)
    if not t.min(initial=0.0) >= 0:  # NaN fails the comparison too
        raise ValueError("potential argument must be nonnegative, not negative or NaN")
    if t.max(initial=0.0) == np.inf:
        raise ValueError("potential argument must be finite, got inf")
    return t


def _tensors(name: str, q) -> np.ndarray:
    """``q`` as a float array, after checking that it is a stack of (..., d, d)
    matrices with finite entries."""
    q = real_array(name, q)
    if q.ndim < 2 or q.shape[-1] != q.shape[-2]:
        raise ValueError(f"{name} of shape {q.shape} is not a stack of (..., d, d) matrices")
    if not np.isfinite(q).all():
        raise ValueError(f"{name} entries must be finite")
    return q


def _pair(p_mat, q_mat) -> tuple[np.ndarray, np.ndarray]:
    """The two matrix stacks of a pairwise comparison, after checking that their shapes agree."""
    p_mat, q_mat = _tensors("p_mat", p_mat), _tensors("q_mat", q_mat)
    if p_mat.shape != q_mat.shape:
        raise ValueError(f"p_mat of shape {p_mat.shape} and q_mat of shape {q_mat.shape} differ")
    return p_mat, q_mat


def phi(t, params: ModelParams):
    """Potential value; closed-form antiderivative of phi'(s) from 0 to t."""
    t = _check_nonneg(t)
    out = _CLOSED_FORMS[params.model]["phi"](t, params.p, params.mu)
    return out if out.ndim else float(out)


def phi_d(t, params: ModelParams):
    """First derivative ``(phi'(t)/t) * t``; phi'(0) = 0."""
    t = _check_nonneg(t)
    out = _phi_d_over_t(t, params) * t
    return out if out.ndim else float(out)


def phi_dd(t, params: ModelParams):
    """Second derivative; stays within a constant band of phi''(0)*(1 + t**(p-2)).

    Closed forms: A1 gives ``mu + (p-1) t**(p-2)``, A2 gives
    ``(mu + t**2)**((p-4)/2) * (mu + (p-1) t**2)``.  At p = 2 the A1 value is
    ``mu + 1`` (the integrand weight is then constant).
    """
    t = _check_nonneg(t)
    out = _CLOSED_FORMS[params.model]["phi_dd"](t, params.p, params.mu)
    return out if out.ndim else float(out)


def _phi_d_over_t(t, params: ModelParams):
    """phi'(t)/t with its analytic value phi''(0) at t = 0, the coefficient of
    the stress; :func:`phi_d` multiplies it back by t."""
    t = np.asarray(t, dtype=float)
    return _CLOSED_FORMS[params.model]["phi_d_over_t"](t, params.p, params.mu)


def sym(m: np.ndarray) -> np.ndarray:
    """Symmetric part ``(m + m^T)/2`` over the last two axes, as a new array."""
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _plane_dot(a, b, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """``out = a[0]*b[0] + 0.0 + a[1]*b[1] + ...``, in this order, over equal-shaped planes.

    That is the order and the signed zeros of ``np.sum`` over fewer than eight
    trailing entries, bit for bit, on unit-stride planes.  ``work`` is scratch.
    """
    np.multiply(a[0], b[0], out=out)
    out += 0.0
    for k in range(1, len(a)):
        out += np.multiply(a[k], b[k], out=work)
    return out


def frob(q: np.ndarray) -> np.ndarray:
    """Frobenius norm over the last two axes (matches the ':' inner product)."""
    return np.sqrt(np.sum(real_array("q", q) ** 2, axis=(-2, -1)))


def stress(q: np.ndarray, params: ModelParams) -> np.ndarray:
    """Stress tensor phi'(|Q|) Q/|Q|, with stress(0) = 0.

    Symmetric inputs map to symmetric outputs exactly: the result is a scalar
    multiple of Q at every point.
    """
    q = _tensors("q", q)
    return _phi_d_over_t(frob(q), params)[..., None, None] * q


def v_map(q: np.ndarray, params: ModelParams) -> np.ndarray:
    """Square-root map sqrt(phi'(|Q|)/|Q|) Q; for A2 this is (mu+|Q|^2)^((p-2)/4) Q."""
    q = _tensors("q", q)
    return np.sqrt(_phi_d_over_t(frob(q), params))[..., None, None] * q


def _rank_one_coefficient(t, params: ModelParams):
    """g'(t)/t for g(t) = phi'(t)/t, set to 0 where t = 0.

    Closed forms: ``(p-2) t**(p-4)`` for A1 and ``(p-2)(mu+t**2)**((p-4)/2)``
    for A2.  The rank-one term it weights vanishes with |Q| -> 0 for p > 2 and
    is identically zero for p = 2, so the value 0 at t = 0 leaves the exact
    limit g(0) H of the stress derivative there.
    """
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):  # A1 at t = 0, replaced below
        c2 = _CLOSED_FORMS[params.model]["rank_one"](t, params.p, params.mu)
    return np.where(t > 0.0, c2, 0.0)


def stress_derivative_apply(q: np.ndarray, h: np.ndarray, params: ModelParams) -> np.ndarray:
    """Directional derivative ``g(|Q|) H + (g'(|Q|)/|Q|) (Q:H) Q`` of ``stress`` at Q
    applied to H, with g = :func:`_phi_d_over_t` and :func:`_rank_one_coefficient`.

    This is the Hessian of the convex map Q -> phi(|Q|): symmetric and positive
    semidefinite, which is what makes the Newton systems CG-solvable.
    """
    q, h = _tensors("q", q), _tensors("h", h)
    t = frob(q)
    coeff = _rank_one_coefficient(t, params) * np.sum(q * h, axis=(-2, -1))
    return _phi_d_over_t(t, params)[..., None, None] * h + coeff[..., None, None] * q


def monotone_pairing(p_mat: np.ndarray, q_mat: np.ndarray, params: ModelParams) -> np.ndarray:
    """(stress(P) - stress(Q)) : (P - Q), the monotonicity quadratic form."""
    p_mat, q_mat = _pair(p_mat, q_mat)
    diff = p_mat - q_mat
    return np.sum((stress(p_mat, params) - stress(q_mat, params)) * diff, axis=(-2, -1))


def equivalence_ratios(p_mat: np.ndarray, q_mat: np.ndarray, params: ModelParams):
    """Ratios tying the monotone pairing to its two comparable quadratic forms.

    Returns ``(r1, r2)`` with

        r1 = pairing / (phi''(|P|+|Q|) |P-Q|^2),
        r2 = pairing / |v_map(P) - v_map(Q)|^2,

    both finite and positive for P != Q.  Accepts batched input, two stacks
    of one shape (..., d, d); raises if any pair is exactly identical (0/0).
    """
    p_mat, q_mat = _pair(p_mat, q_mat)
    diff = p_mat - q_mat
    diff_sq = np.sum(diff**2, axis=(-2, -1))
    if np.any(diff_sq == 0.0):
        raise DegeneratePairError("equivalence ratios are undefined for identical pairs")
    pairing = monotone_pairing(p_mat, q_mat, params)
    r1 = pairing / (phi_dd(frob(p_mat) + frob(q_mat), params) * diff_sq)
    vdiff = v_map(p_mat, params) - v_map(q_mat, params)
    r2 = pairing / np.sum(vdiff**2, axis=(-2, -1))
    if r1.ndim == 0:
        return float(r1), float(r2)
    return r1, r2


def lipschitz_ratio(p_mat: np.ndarray, q_mat: np.ndarray, params: ModelParams):
    """|stress(P)-stress(Q)| / (phi''(|P|+|Q|) |P-Q|), bounded above per the growth band."""
    p_mat, q_mat = _pair(p_mat, q_mat)
    diff_norm = frob(p_mat - q_mat)
    if np.any(diff_norm == 0.0):
        raise DegeneratePairError("Lipschitz ratio is undefined for identical pairs")
    num = frob(stress(p_mat, params) - stress(q_mat, params))
    return num / (phi_dd(frob(p_mat) + frob(q_mat), params) * diff_norm)


def sample_symmetric_pairs(rng: np.random.Generator, count: int, d: int = 2, radius: float = 10.0):
    """Seeded corpus of ``count`` pairs of symmetric d-by-d matrices with |P|, |Q| <= radius.

    Entries are drawn uniformly, symmetrized, then rescaled to a uniform
    Frobenius radius in [0, radius); a pair whose matrices are equal entry by
    entry is redrawn.  ``count`` and ``d`` must be integers >= 1 and ``radius``
    a finite positive number.
    """
    require_integer("count", count, 1)
    require_integer("matrix size d", d, 1)
    require_finite("radius", radius)

    def draw():
        m = rng.uniform(-1.0, 1.0, size=(count, d, d))
        m = sym(m)
        norms = frob(m)
        norms = np.where(norms == 0.0, 1.0, norms)
        target = rng.uniform(0.0, radius, size=count)
        return m / norms[:, None, None] * target[:, None, None]

    p_mat, q_mat = draw(), draw()
    while np.any(tie := np.all(p_mat == q_mat, axis=(-2, -1))):  # exact: squares of tiny entries underflow
        q_mat[tie] = draw()[tie]
    return p_mat, q_mat


def measure_assumption_bands(params: ModelParams, n_pairs: int = 10_000, seed: int = 20240601,
                             radius: float = 10.0) -> dict:
    """Empirical constants of the growth/monotonicity structure on a seeded corpus.

    The structural constants are existential; this records the realized band so
    the test suite can freeze it as a regression baseline.  ``n_pairs`` must be
    an integer >= 1.
    """
    require_integer("n_pairs", n_pairs, 1)
    rng = np.random.default_rng(seed)
    p_mat, q_mat = sample_symmetric_pairs(rng, n_pairs, radius=radius)
    r1, r2 = equivalence_ratios(p_mat, q_mat, params)
    lip = lipschitz_ratio(p_mat, q_mat, params)
    return {
        "r1_min": float(np.min(r1)),
        "r1_max": float(np.max(r1)),
        "r2_min": float(np.min(r2)),
        "r2_max": float(np.max(r2)),
        "lip_max": float(np.max(lip)),
    }
