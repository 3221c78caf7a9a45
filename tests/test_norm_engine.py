"""Property test of the spatial-norm engine against each norm's definition.

The engine differences feature rows; the reference differences the field
values (``higher_difference``) and then evaluates the norm directly, in
extended precision: pointwise magnitude, masked rectangle-rule l^q,
centred-difference gradient, ``fftn``-weighted W^{-1,2}, and the dictionary
lower bound for the other negative norms.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import symplap.function_spaces as fs

N = 8
GEOM = fs.SpaceGeometry(h=2 * math.pi / N, ndim=2)
QS = [1.0, 1.5, 2.0, 3.0, math.inf]
NORMS = [fs.EUCLID] + [fs.XNorm(kind, q) for kind in ("lp", "w1p", "wm1p") for q in QS]


def _magnitude(a):
    comp_axes = tuple(range(3, a.ndim))
    return np.sqrt(np.sum(a**2, axis=comp_axes)) if comp_axes else np.abs(a)


def _lq(mag, q, geom):
    mag = mag[:, geom.mask] if geom.mask is not None else mag.reshape(len(mag), -1)
    if math.isinf(q):
        return np.max(mag, axis=1) if mag.shape[1] else np.zeros(len(mag))
    return (geom.cell_measure() * np.sum(mag**q, axis=1)) ** (1.0 / q)


def _gradient(a, geom):
    return np.stack([(np.roll(a, -1, axis=ax) - np.roll(a, 1, axis=ax)) / (2 * geom.h)
                     for ax in (1, 2)], axis=-1)


def _w1q(a, q, geom):
    base, grad = _lq(_magnitude(a), q, geom), _lq(_magnitude(_gradient(a, geom)), q, geom)
    return np.maximum(base, grad) if math.isinf(q) else (base**q + grad**q) ** (1.0 / q)


def _negative(a, q, geom):
    if q == 2.0 and geom.mask is None:
        k = np.fft.fftfreq(N, d=1.0 / N)
        weight = 1.0 / (1.0 + k[:, None] ** 2 + k[None, :] ** 2)
        power = np.abs(np.fft.fftn(a, axes=(1, 2))) ** 2
        power = power.reshape(power.shape[:3] + (-1,)).sum(axis=3)
        return np.sqrt(geom.cell_measure() / N**2 * np.sum(power * weight, axis=(1, 2)))
    flat = a.reshape(a.shape[:3] + (-1,))
    q_dual = math.inf if q == 1.0 else 1.0 if math.isinf(q) else q / (q - 1.0)
    full = np.ones((N, N), dtype=bool) if geom.mask is None else geom.mask
    best = np.zeros(len(a))
    for v in fs._test_dictionary((N, N), flat.shape[-1], geom):
        vnorm = _w1q(v[None], q_dual, geom)[0]
        if vnorm > 0:
            pairing = geom.cell_measure() * np.sum((flat * v)[:, full], axis=(1, 2))
            best = np.maximum(best, np.abs(pairing) / vnorm)
    return best


def _definition(a, norm, geom):
    if norm.kind == "euclid":
        return np.sqrt(np.sum(a.reshape(len(a), -1) ** 2, axis=1))
    if norm.kind == "lp":
        return _lq(_magnitude(a), norm.q, geom)
    if norm.kind == "w1p":
        return _w1q(a, norm.q, geom)
    return _negative(a, norm.q, geom)


def reference_norms(a, norm, geom):
    """Each definition in extended precision, whose exponent range keeps every
    square and power of a float64 input normal (x86-64 long double)."""
    return _definition(np.asarray(a, dtype=np.longdouble), norm, geom).astype(float)


@st.composite
def cases(draw):
    r = draw(st.integers(1, 3))
    k = draw(st.integers(1, 2))
    n_t = r * k + 2 + draw(st.integers(0, 3))
    comp = draw(st.sampled_from([(), (2,), (2, 2)]))
    values = draw(hnp.arrays(np.float64, (n_t, N, N) + comp,
                             elements=st.floats(-8.0, 8.0, allow_subnormal=False)))
    mask = draw(st.none() | hnp.arrays(np.bool_, (N, N)))
    geom = fs.SpaceGeometry(h=GEOM.h, ndim=2, mask=mask)
    return fs.TimeGridFunction(values, 0.0, 0.1, geometry=geom), r, k


def _single_entry_case(value, big=0.0):
    values = np.zeros((3, N, N))
    values[0, 0, :2] = value, big
    mask = None if big == 0.0 else np.arange(N * N).reshape(N, N) == 0
    return fs.TimeGridFunction(values, 0.0, 0.1, geometry=fs.SpaceGeometry(GEOM.h, 2, mask)), 1, 1


@pytest.mark.parametrize("norm", NORMS, ids=lambda x: x.label())
@settings(max_examples=30, deadline=None)
@given(case=cases())
@example(case=_single_entry_case(7.9e-286))  # a lone entry whose square underflows to 0
@example(case=_single_entry_case(3.97908499e-159))  # squares of h * entry are subnormal
@example(case=_single_entry_case(2.2250738585072014e-308, big=4.0))  # tiny on the mask, large off it
def test_engine_matches_definition(norm, case):
    f, r, k = case
    geom = f.geometry
    d = fs.higher_difference(f, r, k * f.dt).values
    expected = reference_norms(d, norm, geom)
    scale = float(np.max(reference_norms(f.values, norm, geom)))
    tol = 1e-12 * expected + 32.0 * 2.0**r * np.finfo(float).eps * scale

    got = fs._NormContext(f, norm).difference_sample_norms(r, k)
    assert np.all(np.abs(got - expected) <= tol)
    assert np.all(np.abs(fs.xnorms_over_time(d, norm, geom) - expected) <= tol)
