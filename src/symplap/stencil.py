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
    """Centred periodic difference of ``a`` along ``axis`` (of any length), written into ``out``."""
    src, dst = np.moveaxis(a, axis, 0), np.moveaxis(out, axis, 0)
    np.subtract(src[2:], src[:-2], out=dst[1:-1])
    np.subtract(src[1 % len(src)], src[-1], out=dst[0])
    np.subtract(src[0], src[-2 % len(src)], out=dst[-1])
    out /= 2.0 * h
    return out


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
