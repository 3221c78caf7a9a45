"""The centred periodic difference, the one spatial derivative of symplap.

``(d_j a)(x) = (a(x + h e_j) - a(x - h e_j)) / (2 h)`` with periodic
wraparound serves the solver's symmetric gradient and divergence, the norm
engine's W^{1,q} rows and the analyzer's V-map and Caccioppoli fields.  It is
skew-adjoint, so summation by parts ``<div T, v> = -<T, Dv>`` holds exactly.
Its Fourier symbol ``i sin(k h)/h`` vanishes at k = 0 and at the Nyquist
frequency k = n/2, so the checkerboard (-1)^(x_j/h) lies in its kernel.
"""

import numpy as np


def difference(a: np.ndarray, axis: int, h: float, out: np.ndarray) -> np.ndarray:
    """Centred periodic difference of ``a`` along ``axis`` (of any length), written into ``out``.

    Both arrays are indexed with slice tuples along ``axis``; the two
    wrap-around rows are length-1 slices, so 1-D arrays work as well.  An
    empty axis (the box of an empty mask) has nothing to difference.  Along
    the last axis of C-contiguous arrays the interior is one subtract over
    the flattened arrays: it pairs the same operands for every interior
    entry, and the entries it writes across row ends are wrap-around entries,
    which are overwritten next.
    """
    n, lead = a.shape[axis], (slice(None),) * (axis % a.ndim)
    if n == 0:
        return out
    first, last = lead + (slice(0, 1),), lead + (slice(-1, None),)
    if (n > 2 and axis % a.ndim == a.ndim - 1 and a.flags.c_contiguous
            and out.flags.c_contiguous):
        np.subtract(a.reshape(-1)[2:], a.reshape(-1)[:-2], out=out.reshape(-1)[1:-1])
    else:
        np.subtract(a[lead + (slice(2, None),)], a[lead + (slice(None, -2),)],
                    out=out[lead + (slice(1, -1),)])
    np.subtract(a[lead + (slice(1 % n, 1 % n + 1),)], a[last], out=out[first])
    np.subtract(a[first], a[lead + (slice(-2 % n, -2 % n + 1),)], out=out[last])
    out /= 2.0 * h
    return out


def periodic_box(mask: np.ndarray, halo: int) -> tuple:
    """Per axis of ``mask``, the sorted periodic indices of its projection widened by ``halo``.

    Gathered with ``np.ix_``, the box keeps full-grid C order, so the masked
    entries of a box array come in the order of the full grid.  A box index
    whose two periodic neighbours lie in the box has them as its neighbours
    in the box as well (across the seam through the box's own wraparound),
    so ``difference`` on the box equals the full-grid difference on the
    projection widened by ``halo - 1``, and ``halo`` nested differences are
    exact on the mask.
    """
    boxes = []
    for axis, n in enumerate(mask.shape):
        proj = mask.any(axis=tuple(a for a in range(mask.ndim) if a != axis))
        hit = np.zeros(n, dtype=bool)
        for shift in range(-halo, halo + 1):
            hit |= np.roll(proj, shift)
        boxes.append(np.flatnonzero(hit))
    return tuple(boxes)


def gradient(a: np.ndarray, h: float, axes) -> np.ndarray:
    """Differences along each of the spatial ``axes``, stacked on a new last axis:
    entry [..., j] differences along ``axes[j]``; all other axes pass through."""
    out = np.empty(a.shape + (len(axes),))
    for j, ax in enumerate(axes):
        difference(a, ax, h, out[..., j])
    return out


def symbol(n: int, h: float) -> np.ndarray:
    """Real Fourier symbol sin(k h)/h of the difference, in ``np.fft`` frequency order."""
    return np.sin(np.fft.fftfreq(n, d=1.0 / n) * h) / h
