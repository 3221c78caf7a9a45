"""Seeded function corpus for the inequality harness.

Four families on the unit interval, 25 of each by default:

* sinusoids  a*sin(2 pi k t + phase) with small integer frequencies,
* polynomials of degree <= 4 with O(1) coefficients,
* kinks |t - t0|^beta with beta in {0.25, 0.5, 0.75} (not differentiable),
* lacunary cosine sums sum_j a^j cos(2 pi b^j t + phase_j), smooth but rough
  at grid scale.

Each entry records closed-form callables for the function and (where it
exists in a tabulated form) its derivative, so derivative/difference
conversion checks can run on exact derivative samples.  Sampling uses
n = 2^k + 1 points so the grid step is an exact binary fraction and dyadic
difference steps stay on-grid.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import baselines
from .function_spaces import TimeGridFunction
from .pde_solver import TorusGrid, initial_condition


def _unit_grid(n_samples: int):
    """The ``n_samples`` equispaced points of [0, 1] and their step ``t[1] - t[0]``;
    raises ``ValueError`` unless ``n_samples`` is an integer >= 2."""
    if not isinstance(n_samples, numbers.Integral) or n_samples < 2:
        raise ValueError(f"n_samples must be an integer >= 2, got {n_samples!r}")
    t = np.linspace(0.0, 1.0, n_samples)
    return t, t[1] - t[0]


@dataclass
class CorpusFunction:
    name: str
    f: Callable[[np.ndarray], np.ndarray]
    fprime: Callable[[np.ndarray], np.ndarray] | None

    @property
    def differentiable(self) -> bool:
        return self.fprime is not None

    def sample(self, n_samples: int) -> TimeGridFunction:
        t, dt = _unit_grid(n_samples)
        return TimeGridFunction(self.f(t), t0=0.0, dt=dt)

    def sample_derivative(self, n_samples: int) -> TimeGridFunction | None:
        if self.fprime is None:
            return None
        return replace(self, f=self.fprime).sample(n_samples)


def _sinusoid(rng) -> CorpusFunction:
    k = int(rng.integers(1, 9))
    amp = float(rng.uniform(0.3, 2.0))
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    w = 2.0 * math.pi * k
    return CorpusFunction(
        name=f"sin_k{k}_a{amp:.2f}",
        f=lambda t, amp=amp, w=w, phase=phase: amp * np.sin(w * t + phase),
        fprime=lambda t, amp=amp, w=w, phase=phase: amp * w * np.cos(w * t + phase),
    )


def _polynomial(rng) -> CorpusFunction:
    deg = int(rng.integers(0, 5))
    coeffs = rng.uniform(-1.5, 1.5, size=deg + 1)
    dcoeffs = np.polyder(np.poly1d(coeffs)).coeffs if deg > 0 else np.array([0.0])
    return CorpusFunction(
        name=f"poly_deg{deg}",
        f=lambda t, c=np.poly1d(coeffs): c(t),
        fprime=lambda t, c=np.poly1d(dcoeffs): c(t),
    )


def _kink(rng) -> CorpusFunction:
    beta = float(rng.choice([0.25, 0.5, 0.75]))
    t0 = float(rng.uniform(0.2, 0.8))
    amp = float(rng.uniform(0.5, 1.5))
    return CorpusFunction(
        name=f"kink_b{beta:g}_t{t0:.3f}",
        f=lambda t, amp=amp, t0=t0, beta=beta: amp * np.abs(t - t0) ** beta,
        fprime=None,
    )


def _lacunary(rng) -> CorpusFunction:
    # top frequency capped at 64 cycles so every grid in use resolves the
    # function and its tabulated derivative (aliasing would decouple them)
    a = float(rng.uniform(0.4, 0.6))
    b = int(rng.choice([2, 3]))
    terms = int(rng.integers(5, 8)) if b == 2 else int(rng.integers(3, 5))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=terms)

    def f(t, a=a, b=b, phases=phases):
        acc = np.zeros_like(np.asarray(t, dtype=float))
        for j, ph in enumerate(phases):
            acc += a**j * np.cos(2.0 * math.pi * b**j * t + ph)
        return acc

    def fprime(t, a=a, b=b, phases=phases):
        acc = np.zeros_like(np.asarray(t, dtype=float))
        for j, ph in enumerate(phases):
            acc -= a**j * 2.0 * math.pi * b**j * np.sin(2.0 * math.pi * b**j * t + ph)
        return acc

    return CorpusFunction(name=f"lacunary_a{a:.2f}_b{b}", f=f, fprime=fprime)


_FAMILIES = (_sinusoid, _polynomial, _kink, _lacunary)


def build_corpus(size: int = baselines.CORPUS_SIZE,
                 seed: int = baselines.CORPUS_SEED) -> list[CorpusFunction]:
    """Deterministic corpus cycling through the four families; ``size`` must be
    an integer >= 0 (``ValueError``)."""
    if not isinstance(size, numbers.Integral) or size < 0:
        raise ValueError(f"corpus size must be an integer >= 0, got {size!r}")
    rng = np.random.default_rng(seed)
    out = []
    for i in range(size):
        fn = _FAMILIES[i % len(_FAMILIES)](rng)
        out.append(replace(fn, name=f"{i:03d}_{fn.name}"))
    return out


LIFT_GRID = 8  # points per axis of the torus grid the interpolation check runs on


def lift_to_field(entry: CorpusFunction, n_samples: int) -> TimeGridFunction:
    """Spatial trajectory f(t) V1(x) + f(1-t) V2(x) on the ``TorusGrid(LIFT_GRID)``.

    V1 is the grid's divergence-free ``eigenfield`` initial condition and V2 a
    second fixed smooth mode, so the lifted field is rich in divergence
    patterns.  The time-reversed copy as second coefficient keeps the
    construction deterministic without extra corpus bookkeeping while making
    the three interpolation legs genuinely different.  The field keeps this
    rank-2 factor (``TimeGridFunction.separable``), so its l2 norm contexts
    map only V1 and V2.
    """
    t, dt = _unit_grid(n_samples)
    grid = TorusGrid(LIFT_GRID)
    x1, x2 = grid.coordinates()
    v1 = initial_condition("eigenfield", grid).data
    v2 = np.stack([np.cos(2 * x1), np.sin(x2) * np.sin(x1)], axis=-1)
    return TimeGridFunction.separable([entry.f(t), entry.f(1.0 - t)], [v1, v2], t0=0.0,
                                      dt=dt, geometry=grid.geometry())
