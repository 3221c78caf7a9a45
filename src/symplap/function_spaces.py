"""Discrete Bochner norms, higher-order time differences and seminorm machinery.

A ``TimeGridFunction`` is a uniformly sampled map from a time interval into a
normed state space: scalars, plain vectors, or spatial snapshots on a periodic
grid (then a :class:`SpaceGeometry` travels along and selects the spatial
norm).  On top of it sit

* ``higher_difference`` -- the r-th forward difference, evaluated through the
  exact binomial expansion on the shrunken index set;
* ``nikolskii_seminorm`` / ``nikolskii_norm`` -- ``sup_h h**(-alpha) * |D_h^r f|``
  over grid-aligned steps ``h <= delta``, plus the low-order Bochner norm;
* ``modulus_of_continuity`` -- the same sup taken over step sizes up to h.

The harness that checks the structural inequalities of this calculus is
:mod:`symplap.inequalities`; its names are re-exported here.

Discrete conventions.  Time steps h are restricted to exact multiples of the
sampling step, so differences carry no interpolation error.  The L^p norm of a
g sampled at m points spanning length L uses the uniform weight L/m per
sample: constants then get their exact geometric-measure norm, and the weight
is monotone in m, which makes restriction and shifting of index sets
norm-decreasing -- the two properties the inequality proofs rely on.  L^infty
in time is the max over samples.

Spatial norms have one engine, ``_features``: a map that is linear in the
samples, applied to blocks of samples that fill one matrix of feature rows,
then a per-sample reduction (l2, max-abs, or pointwise magnitude followed by
masked l^q), also taken in blocks; one rule (``_sample_blocks``) sizes every
block, and each sample maps and reduces on its own, so the blocks move no
bit.  Time differences commute with the map, so every difference norm --
seminorms, the Hoelder sup, the Marchaud remainder, divided differences --
differences feature rows instead of recomputing gradients, FFTs or
dictionary pairings per step.  Time norms have one
evaluator, ``_NormContext``; a ``TimeGridFunction`` owns one per X-norm, which
all its checks share (the one-shot wrappers build a throwaway one).  The
Bochner norm ``lp_norm`` needs no difference rows: it streams the sample
norms of ``xnorms_over_time``, which maps and reduces blocks of samples.
Its difference norms, W^{k,p} divided differences included, snap values below
the binomial-stencil rounding floor to zero; the Hoelder sup and the Marchaud
remainder report raw values.  It differences whole blocks of lags at once, a
lag too wide for one block in blocks of samples, and keeps the difference norms of lags 1..K per (r, p) (``lag_profile``); every
value equals the one-lag evaluation bit for bit.

A function built by ``TimeGridFunction.separable`` keeps the factor of its
samples, sum_j c_j(t) V_j; its contexts whose norm is the l2 norm of linear
rows map only the modes V_j and difference the coordinates of the mapped rows
instead of the rows, which moves results only at rounding level.  A function
built from samples, and every other context, keeps the exact rows
(``_NormContext``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import stencil
from .errors import (EmptyDomainError, GridMismatchError, real_array, require_finite,
                     require_integer, require_real)
from .tensor_models import _plane_dot

# ---------------------------------------------------------------------------
# spatial geometry and state-space norms


@dataclass(frozen=True)
class SpaceGeometry:
    """Uniform periodic sampling of the spatial domain.

    ``h`` is the grid spacing (equal in every axis), ``ndim`` >= 1 the number of
    spatial axes (they follow the time axis in a TimeGridFunction's value
    array; component axes trail).  ``mask`` optionally restricts norms to a
    subset of grid nodes, e.g. a ball: a boolean array with ``ndim`` axes,
    of the samples' spatial shape.
    """

    h: float
    ndim: int = 2
    mask: np.ndarray | None = None

    def __post_init__(self):
        require_finite("grid spacing h", self.h)
        require_integer("ndim", self.ndim, 1)
        if self.mask is not None and (getattr(self.mask, "dtype", None) != bool
                                      or self.mask.ndim != self.ndim):
            raise ValueError(f"mask must be a boolean array with ndim = {self.ndim} axes, "
                             f"got {np.asarray(self.mask).dtype} of shape {np.shape(self.mask)}")

    def cell_measure(self) -> float:
        return self.h ** self.ndim


@dataclass(frozen=True)
class XNorm:
    """Spatial-norm tag: Euclidean, L^q, W^{1,q}, or W^{-1,q'}.

    The negative norm is exact (spectral) for q = 2 on the full torus; for
    other exponents or masked domains it is a lower bound obtained from a
    fixed dictionary of 32 smooth test fields, flagged via ``is_lower_bound``.
    """

    kind: str            # "euclid" | "lp" | "w1p" | "wm1p"
    q: float = 2.0

    def __post_init__(self):
        if self.kind not in ("euclid", "lp", "w1p", "wm1p"):
            raise ValueError(f"unknown spatial norm kind {self.kind!r}")
        require_real("integrability exponent q", self.q)
        if self.kind != "euclid" and not 1 <= self.q:
            raise ValueError(f"integrability exponent q must be >= 1, got {self.q!r}")

    def label(self) -> str:
        if self.kind == "euclid":
            return "euclid"
        base = {"lp": "L", "w1p": "W1_", "wm1p": "Wm1_"}[self.kind]
        q = self.q
        return f"{base}{q:g}"

    def is_lower_bound(self, geom: SpaceGeometry | None) -> bool:
        return self.kind == "wm1p" and (self.q != 2.0 or (geom is not None and geom.mask is not None))


EUCLID = XNorm("euclid")
L2 = XNorm("lp", 2.0)
W12 = XNorm("w1p", 2.0)
WM12 = XNorm("wm1p", 2.0)


def lp(q: float) -> XNorm:
    return XNorm("lp", float(q))


def w1p(q: float) -> XNorm:
    return XNorm("w1p", float(q))


def wm1p(q: float) -> XNorm:
    """W^{-1,q'} tag; ``q`` here is the dual exponent q' the norm is taken in."""
    return XNorm("wm1p", float(q))


_DICTIONARY_SIZE = 32
_DICTIONARY_SEED = 71991


@functools.cache
def _test_dictionary(shape, ncomp: int) -> np.ndarray:
    """Fixed dictionary of smooth low-frequency fields used for dual lower bounds."""
    rng = np.random.default_rng(_DICTIONARY_SEED)
    n = shape[0]
    x = np.arange(n) * (2.0 * np.pi / n)
    mesh = np.meshgrid(*([x] * len(shape)), indexing="ij")
    fields = np.zeros((_DICTIONARY_SIZE, *shape, ncomp))
    for m in range(_DICTIONARY_SIZE):
        for c in range(ncomp):
            acc = np.zeros(shape)
            for _ in range(3):
                ks = rng.integers(-3, 4, size=len(shape))
                amp = rng.normal()
                phase = rng.uniform(0, 2 * np.pi)
                acc += amp * np.cos(sum(k * xg for k, xg in zip(ks, mesh)) + phase)
            fields[m, ..., c] = acc
    return fields


def _dictionary_functionals(geom: SpaceGeometry, shape, ncomp: int, q: float) -> np.ndarray:
    """Matrix of the dual lower-bound functionals u -> <u, v>/|v|_{W^{1,q*}} (q* dual to q).

    Built in place: the kept dictionary rows are gathered once, then
    multiplied by the mask weight and the cell measure and divided by their
    norms, the elementwise steps of ``(dictionary * weight)[keep] * c / v``
    in that order, so the matrix is that expression's bit for bit (an
    unmasked weight is 1.0, whose product is exact and is skipped).  No
    temporary of the matrix's size is made beside the gathered rows.
    """
    dictionary = _test_dictionary(shape, ncomp)
    q_dual = math.inf if q == 1.0 else 1.0 if math.isinf(q) else q / (q - 1.0)
    vnorms = xnorms_over_time(dictionary, w1p(q_dual), geom)
    keep = vnorms > 0
    rows = dictionary.reshape(len(dictionary), -1)[keep]
    if geom.mask is not None:
        fields = rows.reshape(-1, *dictionary.shape[1:])  # a view of the rows
        fields *= np.where(geom.mask, 1.0, 0.0)[..., None]
    rows *= geom.cell_measure()
    rows /= vnorms[keep, None]
    return rows


def _spectral_rows(values: np.ndarray, geom: SpaceGeometry) -> np.ndarray:
    """Fourier coefficients weighted by (1 + |k|^2)^(-1/2), one row per sample.

    Their l2 norm is the W^{-1,2} norm under the normalization of the
    rectangle-rule L^2 norm (Parseval: h^d sum_x |u|^2 = h^d/n^d sum_k |u_hat|^2).
    """
    nspace = geom.ndim
    shape = values.shape[1 : 1 + nspace]
    nside = shape[0]
    freqs = np.fft.fftfreq(nside, d=1.0 / nside)
    ksq = sum(k**2 for k in np.meshgrid(*([freqs] * nspace), indexing="ij"))
    coeff = np.sqrt(geom.cell_measure() / nside**nspace / (1.0 + ksq))
    fhat = np.fft.fftn(values, axes=tuple(range(1, 1 + nspace)))
    coeff = coeff.reshape(coeff.shape + (1,) * (values.ndim - 1 - nspace))
    return (fhat * coeff).reshape(values.shape[0], -1)


def _l2(rows: np.ndarray) -> np.ndarray:
    """Row-wise l2 norm, bit for bit ``np.sqrt(np.sum(np.abs(rows)**2, axis=1))``.

    One column is ``|x|`` (``sqrt(x*x) == |x|`` unless x*x overflows or
    underflows).  Real rows of 2 to 7 columns go through ``_magnitude``,
    which sums the column planes in the order ``np.sum`` uses on fewer than
    eight entries instead of reducing the short axis; every other width, and
    complex rows, take the ``np.sum`` itself.
    """
    width = rows.shape[1]
    if width == 1 or 1 < width < 8 and rows.dtype == float:
        return _magnitude(rows, np.empty(rows.shape[0]))
    return np.sqrt(np.sum(np.abs(rows) ** 2, axis=1))


def _amax(rows: np.ndarray) -> np.ndarray:
    return np.max(np.abs(rows), axis=1) if rows.size else np.zeros(rows.shape[0])


def _lq_reduction(points: int, comps: list, q: float, cell: float):
    """Reduction for L^q / W^{1,q}: pointwise magnitude, then rectangle-rule l^q.

    A row holds consecutive blocks, block b with ``comps[b]`` components at
    each of the same ``points`` grid points.  Each block yields the Euclidean
    magnitude of its components per point; all blocks enter one l^q sum
    (h^d * sum |.|^q)^(1/q), or one max for q = inf, which is the l^q
    combination of the per-block norms.
    """
    def reduce(rows: np.ndarray) -> np.ndarray:
        m, start = rows.shape[0], 0
        mag = np.empty((m, points * len(comps)))
        for b, c in enumerate(comps):
            block = rows[:, start : start + points * c].reshape(m, points, c)
            _magnitude(block, mag[:, b * points : (b + 1) * points])
            start += points * c
        if math.isinf(q):
            return np.max(mag, axis=1) if mag.size else np.zeros(m)
        return (cell * np.sum(mag**q, axis=1)) ** (1.0 / q)
    return reduce


def _magnitude(block: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Euclidean magnitude over the last axis of ``block``, written into ``out``:
    bit for bit ``np.sqrt(np.sum(block**2, axis=-1))``, summed plane by plane
    (``tensor_models._plane_dot``) instead of over a short trailing axis."""
    if block.shape[-1] == 1:
        return np.abs(block[..., 0], out=out)
    planes = np.moveaxis(block, -1, 0)
    return np.sqrt(_plane_dot(planes, planes, out, np.empty_like(out)), out=out)


def _features(values: np.ndarray, norm: XNorm, geom: SpaceGeometry | None):
    """The one evaluation path of every state-space norm.

    Returns ``(rows, reduce)``: ``rows`` has shape (m, M), is linear in the m
    samples (axis 0 of ``values``), and ``reduce(rows)`` is the vector of the m
    norms.  The maps and reductions are

    * euclid: all entries, l2;
    * L^2, W^{1,2}: sqrt(h^d) times the masked values (and masked periodic
      gradient), l2;
    * W^{-1,2} on the full grid: weighted Fourier coefficients, l2;
    * W^{-1,q'} otherwise: the dictionary functionals, max-abs (lower bound);
    * L^q, W^{1,q}, q != 2: masked values (and masked gradient), masked l^q.

    Every L^q and W^{1,q} row is gathered on a mask, the all-true one when
    the geometry has none, in C order, and its gradient is taken on the
    mask's periodic box (``stencil.periodic_box``, halo 1; the whole grid for
    the all-true mask), which equals the full-grid gradient on the mask bit
    for bit.

    The L^q and W^{1,q} maps run on blocks of samples (``_sample_blocks``)
    that are written into one preallocated rows matrix, so no whole-stack
    gather, gradient or concatenation is held next to it; the rows are those
    of the one-call map bit for bit.  Euclidean rows are a view of the
    samples, and W^{-1,q'} rows (a batched FFT or a BLAS product, whose
    summation order may depend on the row count) are one block.

    Rows whose squares or q-th powers would leave the normal range are brought
    to unit size by an exact power of two (complex rows through their real
    view), which ``reduce`` undoes; all other rows are returned as mapped.
    """
    blocks = _sample_blocks(values.shape, geom is None or norm.kind in ("euclid", "wm1p")) \
        or [slice(None)]  # no sample: one empty block
    rows, reduce = _feature_map(values[blocks[0]], norm, geom)
    if len(blocks) > 1:
        first, rows = rows, np.empty((values.shape[0], rows.shape[1]), rows.dtype)
        rows[blocks[0]] = first
        for s in blocks[1:]:
            rows[s] = _feature_map(values[s], norm, geom)[0]
    return _scaled(rows, reduce, int(_unit_exponent(_row_top(rows), norm.q)))


def _sample_blocks(shape: tuple, one_block: bool = False) -> list:
    """Slices along axis 0 of an array of ``shape``, each holding at most
    ``_LAG_BLOCK_ELEMENTS`` entries and at least one sample; the whole axis
    as one slice with ``one_block``; none for no sample.  The one block rule
    of the sample-wise maps and reductions."""
    m = shape[0]
    step = max(m, 1) if one_block else max(1, _LAG_BLOCK_ELEMENTS // max(1, math.prod(shape[1:])))
    return [slice(i, i + step) for i in range(0, m, step)]


def _row_top(rows: np.ndarray) -> float:
    """Largest absolute entry of ``rows`` (complex rows through their real
    view), NaN if any entry is NaN, 0.0 for no entry."""
    real = rows.view(float)
    return float(max(real.max(), -real.min())) if rows.size else 0.0


def _scaled(rows: np.ndarray, reduce, exp: int):
    """``(rows, reduce)`` with the rows brought down by the exact power 2**exp,
    which the returned reduction undoes; as given for exp = 0.  Rows that own
    their memory are rescaled in place; a view, such as the Euclidean rows of
    the caller's samples, is copied."""
    if not exp:
        return rows, reduce
    real = rows.view(float)
    real = np.ldexp(real, -exp, out=real if rows.flags.owndata else None)
    return real.view(rows.dtype), lambda r: np.ldexp(reduce(r), exp)


def _unit_exponent(top, q: float) -> np.ndarray:
    """Power of two that brings each ``top`` into [1/2, 1) when the q-th powers
    (squares for q <= 2 or q = inf) of numbers of that size would leave the
    normal float range; 0, i.e. no scaling, otherwise.  Elementwise."""
    k = 800.0 / (q if 2.0 < q < math.inf else 2.0)
    top = np.asarray(top, dtype=float)
    scale = (0.0 < top) & (top < math.inf) & ~((2.0**-k < top) & (top < 2.0**k))
    return np.where(scale, np.frexp(top)[1], 0)


def _check_spatial_shape(shape: tuple, geom: SpaceGeometry) -> None:
    """Raise ``ValueError`` naming both shapes unless samples of ``shape`` (time
    axis first) have ``geom.ndim`` spatial axes, of the mask's shape if any."""
    spatial = shape[1 : 1 + geom.ndim]
    if len(spatial) < geom.ndim:
        raise ValueError(f"samples of shape {shape} have fewer than ndim = {geom.ndim} "
                         "spatial axes after the time axis")
    if geom.mask is not None and geom.mask.shape != spatial:
        raise ValueError(f"mask of shape {geom.mask.shape} does not match the spatial "
                         f"shape {spatial} of samples of shape {shape}")


def _feature_map(values: np.ndarray, norm: XNorm, geom: SpaceGeometry | None):
    # in C order, the rows do not depend on the layout of the samples, and
    # complex rows have the contiguous last axis their real view needs
    values = np.ascontiguousarray(values, dtype=float)
    m = values.shape[0]
    if geom is not None:
        _check_spatial_shape(values.shape, geom)
    if geom is None or norm.kind == "euclid":
        return values.reshape(m, -1), _l2
    if norm.kind == "wm1p":
        if not norm.is_lower_bound(geom):
            return _spectral_rows(values, geom), _l2
        shape = values.shape[1 : 1 + geom.ndim]
        flat = values.reshape((m,) + shape + (-1,))
        mat = _dictionary_functionals(geom, shape, flat.shape[-1], norm.q)
        return flat.reshape(m, -1) @ mat.T, _amax
    comps = [int(np.prod(values.shape[1 + geom.ndim :]))]
    mask = np.ones(values.shape[1 : 1 + geom.ndim], bool) if geom.mask is None else geom.mask
    fields = [values[:, mask]]
    if norm.kind == "w1p":
        box = np.ix_(*stencil.periodic_box(mask, 1))
        grad = stencil.gradient(values[(slice(None),) + box], geom.h, range(1, 1 + geom.ndim))
        fields.append(grad[:, mask[box]])
        comps.append(comps[0] * geom.ndim)
    # a boolean gather of samples without a component axis comes out in F
    # order; C-ordered rows keep every row sum pairwise
    rows = np.concatenate([np.ascontiguousarray(f).reshape(m, -1) for f in fields], axis=1)
    if norm.q == 2.0:
        return math.sqrt(geom.cell_measure()) * rows, _l2
    return rows, _lq_reduction(rows.shape[1] // sum(comps), comps, norm.q, geom.cell_measure())


def spatial_norm(snapshot: np.ndarray, norm: XNorm, geom: SpaceGeometry | None) -> float:
    """State-space norm of a single snapshot (no time axis); a NaN or infinite
    entry raises ``ValueError``, as in :func:`xnorms_over_time`."""
    return float(xnorms_over_time(real_array("snapshot", snapshot)[None], norm, geom)[0])


def xnorms_over_time(values: np.ndarray, norm: XNorm, geom: SpaceGeometry | None) -> np.ndarray:
    """Vector of state-space norms, one per time sample (axis 0); empty for no sample.

    The samples are mapped and reduced in blocks of at most
    ``_LAG_BLOCK_ELEMENTS`` entries, so no (samples x features) matrix is
    held, and every norm equals the one-block ``_features`` evaluation bit
    for bit.  Each block is reduced as mapped while the largest row entry is
    tracked; a block whose powers would overflow waits, and only when the
    largest entry over all blocks calls for a rescaling do the blocks run
    again, under that one power of two.  W^{-1,q'} rows stay one block: the
    dictionary rows are a BLAS product, whose summation order may depend on
    the row count, and the spectral rows a batched FFT.  Raises
    ``ValueError`` naming ``values`` unless every sample is finite.
    """
    values = real_array("values", values)
    if geom is not None:
        _check_spatial_shape(values.shape, geom)
    blocks = [values[s] for s in _sample_blocks(values.shape, norm.kind == "wm1p")]
    norms, tops = [], []
    for block in blocks:
        finite = np.isfinite(block)
        if not finite.all():
            raise ValueError(f"values must be finite, got {float(block[~finite][0])!r}")
        rows, reduce = _feature_map(block, norm, geom)
        tops.append(_row_top(rows))
        norms.append(None if _unit_exponent(tops[-1], norm.q) > 0 else reduce(rows))
    exp = int(_unit_exponent(np.max(tops, initial=0.0), norm.q))
    for i, block in enumerate(blocks):
        if exp or norms[i] is None:  # every block under a rescaling, else one that waited
            rows, reduce = _scaled(*_feature_map(block, norm, geom), exp)
            norms[i] = reduce(rows)
    return np.concatenate(norms) if norms else np.zeros(0)


# ---------------------------------------------------------------------------
# time-grid functions and differences


@dataclass(frozen=True, eq=False)
class TimeGridFunction:
    """Uniform time samples of a state-space-valued function.

    ``values`` carries time along axis 0; trailing axes are the state (spatial
    axes first when ``geometry`` is set, then components).  Every sample and
    ``t0`` must be finite.  ``values`` is a read-only view of the caller's
    array, not a copy: the caller must not write to that array.  f is frozen
    and owns its time-norm state: one ``_NormContext`` per X-norm
    (:meth:`context`), and the factor of its samples when :meth:`separable`
    built it.  ``dataclasses.replace`` gives a function with fresh contexts
    and no factor, whatever its samples.
    """

    values: np.ndarray
    t0: float = 0.0
    dt: float = 1.0
    geometry: SpaceGeometry | None = None
    _contexts: dict = field(default_factory=dict, init=False, repr=False)
    _separable: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        values = real_array("values", self.values).view()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        require_finite("time step dt", self.dt)
        require_finite("start time t0", self.t0, at_least=-math.inf)
        if self.values.ndim == 0 or self.n_samples < 2:
            raise EmptyDomainError("a time-grid function needs at least two samples")
        if not all(np.isfinite(self.values[s]).all() for s in _sample_blocks(self.values.shape)):
            raise ValueError("time-grid values must be finite")

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def interval_len(self) -> float:
        return (self.n_samples - 1) * self.dt

    @classmethod
    def separable(cls, coeffs, modes, t0: float = 0.0, dt: float = 1.0,
                  geometry: SpaceGeometry | None = None) -> TimeGridFunction:
        """The function with samples ``f(t_i) = sum_j coeffs[j][i] * modes[j]``.

        It keeps a copy of its factor ``(coeffs, modes)``, so its l2 norm
        contexts map only the k modes (``_NormContext``).  ``coeffs`` has
        shape (k, n_samples) and ``modes`` holds the k states along axis 0,
        k >= 1; other shapes raise ``ValueError``.  The terms are elementwise
        products summed in order j = 0, 1, ...: no BLAS product runs, and the
        samples are bit for bit those of the same arithmetic written out.
        """
        coeffs = np.array(real_array("coeffs", coeffs))
        modes = np.array(real_array("modes", modes))
        if coeffs.ndim != 2 or not len(coeffs):
            raise ValueError(f"coeffs must have shape (k, n_samples) with k >= 1, "
                             f"got shape {coeffs.shape}")
        if modes.shape[:1] != coeffs.shape[:1]:
            raise ValueError(f"modes must hold k = {len(coeffs)} states along axis 0, "
                             f"got shape {modes.shape}")
        values = functools.reduce(np.add, (c.reshape(c.shape + (1,) * mode.ndim) * mode
                                           for c, mode in zip(coeffs, modes)))
        f = cls(values, t0, dt, geometry)
        object.__setattr__(f, "_separable", (coeffs, modes))
        return f

    def context(self, x_norm: XNorm) -> _NormContext:
        """The one ``_NormContext`` of f in ``x_norm``, built on first use and kept."""
        if x_norm not in self._contexts:
            self._contexts[x_norm] = _NormContext(self, x_norm)
        return self._contexts[x_norm]


def steps_of(f: TimeGridFunction, h: float) -> int:
    """h as an integer number of grid steps; rejects off-grid step sizes."""
    require_finite("step h", h, error=GridMismatchError)
    k = h / f.dt
    k_round = round(k)
    if k_round < 1 or abs(k - k_round) > 1e-9 * max(1.0, k):
        raise GridMismatchError(f"step {h} is not a positive multiple of dt = {f.dt}")
    return k_round


@functools.cache
def _binomial_weights(r: int) -> np.ndarray:
    return np.array([(-1.0) ** (r - j) * math.comb(r, j) for j in range(r + 1)])


def _check_order(r) -> None:
    """Raise ``ValueError`` unless the difference order r is an integer >= 1."""
    require_integer("difference order r", r, 1)


def _lag_weights(dt: float, ks, power: float, what: str) -> list:
    """``(k dt)**power`` for each lag k in ``ks``; raises ``ValueError`` starting
    with ``what`` when a weight overflows or underflows to zero."""
    try:
        weights = [(k * dt) ** power for k in ks]
        if 0.0 not in weights:
            return weights
    except OverflowError:
        pass
    raise ValueError(f"{what} takes the lag weight (k dt)**{power!r} out of the float range")


def _weighted_sup(dt: float, ks, alpha: float, norms) -> float:
    """``max_k (k dt)**-alpha * norms[k]`` over the lags ``ks``, as a float, 0.0 for
    no lag; NaN lags never win.  The weights follow :func:`_lag_weights`."""
    weights = _lag_weights(dt, ks, -alpha, f"smoothness exponent alpha = {alpha!r}")
    return float(np.fmax.reduce(np.multiply(weights, norms), initial=0.0))


def _difference_length(n: int, r: int, k: int, dt: float) -> int:
    """Samples n - r*k left by an order-r difference at step k*dt; raises below two
    and for an order r that is not an integer >= 1."""
    _check_order(r)
    m = n - r * k
    if m < 2:
        raise EmptyDomainError(
            f"difference of order {r} at step {k * dt} leaves an empty interval")
    return m


def _lag_windows(a: np.ndarray, start: int, step: int, lags: int, m: int) -> np.ndarray:
    """Strided view ``out[l, i] = a[start + l*step + i]`` of shape (lags, m, ...).

    One ``as_strided`` view of ``a``'s own memory, so it holds the samples
    themselves and every stencil built on it reads the same numbers as a
    one-lag slice.  Entries past the end of ``a`` read as zero; only then
    are the samples from ``start`` on copied, with the missing zero samples
    appended.
    """
    if lags == 1:
        return a[None, start : start + m]
    a = a[start:]
    short = (lags - 1) * step + m - a.shape[0]
    if short > 0:
        a = np.concatenate([a, np.zeros((short,) + a.shape[1:], a.dtype)])
    return as_strided(a, (lags, m) + a.shape[1:], (step * a.strides[0],) + a.strides,
                      writeable=False)


def _differences(a: np.ndarray, r: int, k0: int, lags: int) -> np.ndarray:
    """Binomial stencils sum_j (-1)**(r-j) C(r,j) a[j*k + i] along axis 0 for
    the steps k = k0 .. k0 + lags - 1, as one array of shape
    (lags, len(a) - r*k0, ...).

    Entry i of lag k is ``w0*a + w1*b + ...`` in that order, whatever the
    block; only its first len(a) - r*k entries are stencils that fit, the
    rest read zeros past the end of ``a``.  The terms are accumulated in
    place: ``w1*b`` first, then ``w0*a`` added, which is ``w0*a + w1*b`` bit
    for bit (addition commutes, and w0 = (-1)**r makes ``w0*a`` exactly
    ``+-a``), then each later term in turn.  For r = 1 that is the single
    ``b - a``, which is ``-a + b`` bit for bit.
    """
    m0 = a.shape[0] - r * k0
    weights = _binomial_weights(r)
    head = a[None, :m0]
    if r == 1:
        return np.subtract(_lag_windows(a, k0, 1, lags, m0), head)
    out = np.multiply(_lag_windows(a, k0, 1, lags, m0), weights[1])
    (np.add if weights[0] > 0 else np.subtract)(out, head, out=out)
    work = np.empty_like(out)
    for j in range(2, r + 1):
        out += np.multiply(_lag_windows(a, j * k0, j, lags, m0), weights[j], out=work)
    return out


def _difference(a: np.ndarray, r: int, k: int, dt: float) -> np.ndarray:
    """Binomial stencil sum_j (-1)**(r-j) C(r,j) a[j*k + i] along axis 0.

    ``a`` holds samples spaced dt apart; the result keeps the len(a) - r*k
    indices whose stencil fits.  Raises when fewer than two survive.
    """
    _difference_length(a.shape[0], r, k, dt)
    return _differences(a, r, k, 1)[0]


def higher_difference(f: TimeGridFunction, r: int, h: float) -> TimeGridFunction:
    """r-th order forward difference on the shrunken index set.

    Expanded binomially, ``sum_j (-1)**(r-j) C(r,j) f(t + j*h)``, which agrees
    with the recursive first-difference composition exactly.  Raises when h is
    off-grid or when fewer than two samples survive.
    """
    out = _difference(f.values, r, steps_of(f, h), f.dt)
    return TimeGridFunction(out, t0=f.t0, dt=f.dt, geometry=f.geometry)


def time_lp(sample_norms: np.ndarray, p: float, dt: float) -> float:
    """Discrete L^p in time: uniform weight (geometric length)/(sample count).

    The weight (m-1)/m * dt is monotone in m, so restricting or shifting the
    index set can only decrease the norm -- the property the difference
    calculus needs -- while constants keep their exact measure-weighted value.
    Raises ``ValueError`` naming the first sample norm that is negative or NaN,
    and naming ``dt`` unless it is a finite positive number.
    """
    require_finite("time step dt", dt)
    g = real_array("sample_norms", sample_norms)
    if g.shape[0] == 0:
        raise EmptyDomainError("empty index set in time norm")
    bad = g[~(g >= 0.0)]
    if bad.size:
        raise ValueError(f"sample norms must be numbers >= 0, got {float(bad[0])!r}")
    return _time_lp_rows(g[None], [g.shape[0]], p, dt)[0]


def _time_lp_rows(g: np.ndarray, lengths, p: float, dt: float) -> list:
    """``time_lp`` of each row ``g[i, :lengths[i]]``; entries past a row's
    length must be zero.  The power is taken over the whole block; each row's
    sum is its own pairwise ``np.add.reduce`` (what ``np.sum`` calls), and the
    weight, the root and the exponent are per-row scalar steps, so every
    value equals the one-row evaluation bit for bit.  The weight and the root
    are Python float operations, the same IEEE products and libm ``pow`` as
    numpy's scalars; ``np.ldexp`` runs only for a non-zero exponent (ldexp by
    0 is the identity) and, unlike ``math.ldexp``, returns inf on overflow.
    Every finite-p time norm passes here, so this is where the time exponent
    p >= 1 (or inf) is enforced."""
    require_real("time exponent p", p)
    if not p >= 1:
        raise ValueError(f"time exponent p must be >= 1 or inf, got {p!r}")
    top = np.max(g, axis=1)
    if math.isinf(p):
        return top.tolist()
    exp = _unit_exponent(top, p)  # p-th powers of tiny or huge norms
    powers = (np.ldexp(g, -exp[:, None]) if exp.any() else g) ** p
    root, dt = 1.0 / p, float(dt)
    out = []
    for row, m, e in zip(powers, lengths, exp.tolist()):
        norm = ((m - 1) / m * dt * float(np.add.reduce(row[:m]))) ** root
        out.append(float(np.ldexp(norm, e)) if e else norm)
    return out


def _factored_rows(f: TimeGridFunction, x_norm: XNorm) -> tuple | None:
    """``(rows, _l2)``, ``rows`` the coordinates ``C R^T`` of the feature rows
    of a separable f (see ``_NormContext``), or None when f has no factor, X
    does not reduce by l2, or the mapped rows could be rescaled by
    ``_features``."""
    if f._separable is None:
        return None
    coeffs, modes = f._separable
    mapped, reduce = _feature_map(modes, x_norm, f.geometry)
    if reduce is not _l2:
        return None
    mapped = mapped.view(float)
    rows = np.matmul(coeffs.T[:, None, :], np.linalg.qr(mapped.T, mode="r").T)[:, 0]
    # the largest mapped entry lies in [top / sqrt(M), sqrt(k) * top], top the
    # largest coordinate; a factor 2 each way covers the rounding of the
    # coordinates, and no square is taken before the bounds are checked
    top = float(np.max(np.abs(rows), initial=0.0))
    bounds = [0.5 * top / math.sqrt(mapped.shape[1]), 2.0 * math.sqrt(rows.shape[1]) * top]
    return None if bounds[0] == 0.0 or _unit_exponent(bounds, 2.0).any() else (rows, _l2)


_EPS = np.finfo(float).eps
_LAG_BLOCK_ELEMENTS = 2**16  # entries per block: differenced ones of lags, ones of samples
_LAG_BLOCK_LAGS = 128


class _NormContext:
    """The one evaluator of time norms, per (function, X-norm).

    Carries the feature rows of f with their reduction (see ``_features``),
    the sample norms, reduced in blocks of rows, and the rounding floor
    scale: per-sample difference
    norms below ``32 * 2**r * eps * max_t |f(t)|_X`` are pure
    binomial-stencil roundoff and are snapped to exact zero, so that
    analytically vanishing differences (affine data under second
    differences, constants) measure as zero.

    One rule for the rows: when f was built by ``TimeGridFunction.separable``
    as ``C V`` and the feature map L of X returns l2 rows, only the k modes V
    go through L; a thin QR ``(L V)^T = U R`` gives the rows' coordinates
    ``C R^T``, row by row, whose differences have the l2 norms of the mapped
    rows' differences.  The sample norms and the floor scale come from them
    too.  Every other context keeps the exact rows.  The contexts keep f's
    ``dt`` and ``n_samples``, never f itself: no reference cycle.
    """

    def __init__(self, f: TimeGridFunction, x_norm: XNorm):
        self.rows, self.reduce = _factored_rows(f, x_norm) or _features(f.values, x_norm, f.geometry)
        self.dt, self.n_samples = f.dt, f.n_samples
        self.sample_norms = np.empty(self.n_samples)
        for s in _sample_blocks(self.rows.shape):  # each row reduces on its own
            self.sample_norms[s] = self.reduce(self.rows[s])
        self.scale = float(np.max(self.sample_norms)) if len(self.sample_norms) else 0.0
        self._profiles = {}

    def lp_norm(self, p: float) -> float:
        return time_lp(self.sample_norms, p, self.dt)

    def _lag_blocks(self, r: int, first: int, last: int):
        """(k0, lags) blocks covering lags first..last, each differencing at
        most ``_LAG_BLOCK_ELEMENTS`` entries and ``_LAG_BLOCK_LAGS`` lags; a
        wide lag, whose difference alone holds more, is a block of its own,
        which ``_block_sample_norms`` differences in blocks of samples."""
        n, width = self.rows.shape
        k = first
        while k <= last:
            per_lag = max(1, (n - r * k) * width)
            lags = min(_LAG_BLOCK_LAGS, max(1, _LAG_BLOCK_ELEMENTS // per_lag), last - k + 1)
            yield k, lags
            k += lags

    def _block_sample_norms(self, r: int, k0: int, lags: int, floor: float):
        """Per-sample norms of D_h^r f at h = k*dt for k = k0..k0+lags-1.

        Returns ``(g, m)``: g has shape (lags, m[0]) and row l holds the
        m[l] = n - r*k sample norms of lag k = k0 + l, then zeros; values at
        or below ``floor`` are zero too.  The stencils of ``_differences``
        are reduced row by row, and every reduction maps each row on its own,
        so each value equals the one-lag evaluation bit for bit; the floor is
        snapped in place in g (NaN is never at or below it, so it stays).  A
        single lag whose difference holds more than ``_LAG_BLOCK_ELEMENTS``
        entries is differenced and reduced in blocks of samples
        (``_sample_blocks``) into g, so no whole difference is held.
        """
        m0, width = self.rows.shape[0] - r * k0, self.rows.shape[1]
        if lags == 1 and m0 * width > _LAG_BLOCK_ELEMENTS:
            g = np.empty((1, m0))
            for s in _sample_blocks((m0, width)):  # sample i reads rows i, i + k0, .., i + r*k0
                g[0, s] = self.reduce(_differences(self.rows[s.start : s.stop + r * k0], r, k0, 1)[0])
        else:
            diff = _differences(self.rows, r, k0, lags)
            g = self.reduce(diff.reshape(lags * m0, width)).reshape(lags, m0)
        np.copyto(g, 0.0, where=g <= floor)
        tail = r * (lags - 1)  # the tails all lie in the last columns, as a staircase
        if tail:
            g[:, -tail:][np.arange(tail) >= tail - r * np.arange(lags)[:, None]] = 0.0
        return g, list(range(m0, m0 - r * lags, -r))

    def _snapped_block(self, r: int, k0: int, lags: int):
        """``_block_sample_norms`` snapped to the rounding floor; raises when
        the last lag leaves fewer than two samples."""
        _difference_length(self.rows.shape[0], r, k0 + lags - 1, self.dt)
        return self._block_sample_norms(r, k0, lags, 32.0 * 2.0**r * _EPS * self.scale)

    def _difference_norms(self, r: int, k0: int, lags: int, p: float) -> list:
        return _time_lp_rows(*self._snapped_block(r, k0, lags), p, self.dt)

    def difference_sample_norms(self, r: int, k: int) -> np.ndarray:
        """Per-sample norms of D_h^r f at h = k*dt, snapped to the rounding floor."""
        return self._snapped_block(r, k, 1)[0][0]

    def difference_norm(self, r: int, k: int, p: float) -> float:
        return self._difference_norms(r, k, 1, p)[0]

    def marchaud_remainder(self, r: int, k: int, p: float) -> float:
        """|D_h^r f - 2^-r D_2h^r f|_{L^p(X)} at h = k*dt, on the index set of
        steps 2rh.  The feature rows are differenced (differences commute with
        the feature map), combined and reduced; no rounding floor is applied."""
        d_2h = _difference(self.rows, r, 2 * k, self.dt)
        d_h = _difference(self.rows, r, k, self.dt)[: len(d_2h)]
        return time_lp(self.reduce(d_h - 2.0 ** (-r) * d_2h), p, self.dt)

    def lag_profile(self, r: int, K: int, p: float) -> np.ndarray:
        """|D_h^r f|_{L^p(X)} at h = k*dt for k = 1..K, as one array.

        Computed in blocks of lags and kept per (r, p): a later call with a
        larger K only computes the lags beyond the ones already known.
        """
        profile = self._profiles.setdefault((r, p), [])
        for k0, lags in self._lag_blocks(r, len(profile) + 1, K):
            profile.extend(self._difference_norms(r, k0, lags, p))
        return np.array(profile[:K])

    def seminorm(self, alpha: float, r: int, delta: float, p: float) -> float:
        """sup over admissible h <= delta of h**(-alpha) |D_h^r f|_{L^p(X)}."""
        require_finite("smoothness exponent alpha", alpha, at_least=0)
        ks = admissible_steps(self, r, delta)  # reads only dt and n_samples
        if not ks:
            raise EmptyDomainError(
                f"no admissible step h <= {delta} for order-{r} differences")
        return _weighted_sup(self.dt, ks, alpha, self.lag_profile(r, len(ks), p))

    def nikolskii_norm(self, alpha: float, r: int, delta: float, p: float) -> float:
        """Seminorm plus the low-order Bochner norm |f|_{L^p(I;X)}."""
        return self.seminorm(alpha, r, delta, p) + self.lp_norm(p)

    def sobolev_norm(self, order: int, p: float) -> float:
        """Grid-native W^{k,p}(I;X) norm: L^p norms of divided differences up to k."""
        require_integer("derivative order k", order, 0)
        total = self.lp_norm(p)
        for j in range(1, order + 1):
            total += self.difference_norm(j, 1, p) / self.dt**j
        return total

    def holder_seminorm(self, lam: float) -> float:
        """sup_{s != t} |f(t) - f(s)|_X / |t - s|**lam over all sample pairs."""
        require_finite("Hoelder exponent lam", lam, at_least=0)
        best = 0.0
        for k0, lags in self._lag_blocks(1, 1, self.n_samples - 1):
            top = np.max(self._block_sample_norms(1, k0, lags, -math.inf)[0], axis=1)
            steps = _lag_weights(self.dt, range(k0, k0 + lags), lam,
                                 f"Hoelder exponent lam = {lam!r}")
            best = float(np.fmax.reduce(top / steps, initial=best))  # NaN lags never win
        return best


def lp_norm(f: TimeGridFunction, p: float, x_norm: XNorm = EUCLID) -> float:
    """Bochner norm |f|_{L^p(I;X)} on the full grid.

    Needs no difference rows, so the sample norms stream through
    :func:`xnorms_over_time` in blocks of samples.
    """
    return time_lp(xnorms_over_time(f.values, x_norm, f.geometry), p, f.dt)


def admissible_steps(f: TimeGridFunction, r: int, delta: float) -> list[int]:
    """Grid multiples k with k*dt <= delta and a nonempty difference domain;
    an infinite ``delta`` admits every step that fits.  The order r must be an
    integer >= 1."""
    _check_order(r)
    _check_step_cap("step cap delta", delta)
    k_cap = min(delta / f.dt * (1 + 1e-12), (f.n_samples - 2) // r)
    return list(range(1, math.floor(max(k_cap, 0)) + 1))


def _check_step_cap(name: str, cap) -> None:
    """Raise naming ``name`` unless the step cap ``cap`` is a real number other
    than NaN; any other cap admits the steps up to it, perhaps none."""
    require_real(name, cap)
    if math.isnan(cap):
        raise ValueError(f"{name} must be a number, got nan")


def dyadic_steps(f: TimeGridFunction, r: int, delta: float) -> list[int]:
    """The powers of two 1, 2, 4, ... among :func:`admissible_steps`."""
    return [k for k in admissible_steps(f, r, delta) if not k & (k - 1)]


def raw_seminorm(f: TimeGridFunction, alpha: float, r: int, delta: float, p: float,
                 x_norm: XNorm = EUCLID) -> float:
    """sup over admissible h <= delta of h**(-alpha) |D_h^r f|_{L^p(X)}.

    No relation between r and alpha is enforced here; the public Nikolskii
    entry points add the natural-step validation, while the first-order
    Sobolev equivalence deliberately uses r = 1 with alpha = 1.
    """
    return _NormContext(f, x_norm).seminorm(alpha, r, delta, p)


def natural_order(alpha: float) -> int:
    """The natural difference order floor(alpha) + 1, the least r with r > alpha;
    ``ValueError`` naming alpha unless it is a finite number."""
    require_finite("smoothness exponent alpha", alpha, at_least=-math.inf)
    return math.floor(alpha) + 1


@dataclass(frozen=True)
class SeminormSpec:
    """Parameter bundle (alpha, p, r, delta, spatial tag) selecting a seminorm.

    ``r`` defaults to the natural difference order floor(alpha) + 1 and may
    only be raised above it.
    """

    alpha: float
    p: float
    r: int | None = None
    delta: float = 1.0
    x_norm: XNorm = EUCLID

    def __post_init__(self):
        require_finite("smoothness exponent alpha", self.alpha, at_least=0)
        require_real("delta", self.delta)
        if not 0 < self.delta <= 1:
            raise ValueError(f"delta must lie in (0, 1], got {self.delta!r}")
        if self.r is not None:
            _check_order(self.r)
            if self.r < natural_order(self.alpha):
                raise ValueError("difference order r must exceed alpha (r >= floor(alpha)+1)")

    @property
    def order(self) -> int:
        return self.r if self.r is not None else natural_order(self.alpha)


def nikolskii_seminorm(f: TimeGridFunction, spec: SeminormSpec) -> float:
    """Seminorm sup_{h <= delta} h**(-alpha) |D_h^r f|_{L^p(I_rh;X)}."""
    return raw_seminorm(f, spec.alpha, spec.order, spec.delta, spec.p, spec.x_norm)


def nikolskii_norm(f: TimeGridFunction, spec: SeminormSpec) -> float:
    """Seminorm plus the low-order Bochner norm |f|_{L^p(I;X)}."""
    return _NormContext(f, spec.x_norm).nikolskii_norm(spec.alpha, spec.order, spec.delta, spec.p)


def modulus_of_continuity(f: TimeGridFunction, r: int, h: float, p: float = math.inf,
                          x_norm: XNorm = EUCLID) -> float:
    """max over grid steps t <= h of |D_t^r f|_{L^p(I_rt;X)}; non-decreasing in h."""
    _check_step_cap("step cap h", h)
    return _NormContext(f, x_norm).seminorm(0.0, r, h, p)


def holder_seminorm(f: TimeGridFunction, lam: float, x_norm: XNorm = EUCLID) -> float:
    """Discrete Hoelder seminorm sup_{s != t} |f(t) - f(s)|_X / |t - s|**lam."""
    return _NormContext(f, x_norm).holder_seminorm(lam)


# ---------------------------------------------------------------------------
# The inequality harness lives in ``inequalities``, which imports the norms
# above, so this comes last.  Two readers take its names from this module:
# tests/test_acceptance.py reads the ids, and bench/tracing.py and
# bench/workloads.py patch and read _CHECKS, INEQUALITY_IDS and
# _NEEDS_DERIVATIVE by object identity.
from .inequalities import (  # noqa: E402
    ACCESSION, CSV_HEADER, DELTA_EQ, EMBED_NIK, EMBED_SOBOLEV, HOLDER, INEQUALITY_IDS,
    INTERPOLATION, MARCHAUD, PASS_SLACK, REDUCTION, SOBOLEV_EQ, STEP_CHANGE, _CHECKS,
    _NEEDS_DERIVATIVE, InequalityReport, _capped_delta, _check_time_exponents, _checker,
    _embed_delta_cap, _embed_structural_constant, _step_cap_equivalence, _step_change_cap,
    _worst_side, check_accession, check_delta_equivalence, check_embed_nikolskii,
    check_embed_sobolev, check_holder, check_inequality, check_interpolation, check_marchaud,
    check_reduction, check_sobolev_equivalence, check_step_change)
