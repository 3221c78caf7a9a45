"""Every public entry point that takes an array takes real numbers.

``errors.real_array`` is the one rule: complex data raise a ``TypeError`` that
names the argument, and anything else becomes a float array, float64 input
uncopied.  Without it, a float cast drops the imaginary part with only a
``ComplexWarning``, or fails with a bare ``TypeError`` of numpy or Python.
"""

import numpy as np
import pytest

from symplap import function_spaces as fs
from symplap import pde_solver as ps
from symplap import regularity_analyzer as ra
from symplap import tensor_models as tm
from symplap.errors import real_array

GRID = ps.TorusGrid(8)
P3 = tm.ModelParams(3.0)
U = ps.initial_condition("eigenfield", GRID).data
Q = np.array([[[1.0, 0.5], [0.5, -2.0]], [[0.0, 1.0], [1.0, 0.0]]])


@pytest.mark.parametrize("call, name", [
    # each once dropped the imaginary part with only a ComplexWarning
    (lambda: ps.SpatialField(U + 1j, GRID), "field"),
    (lambda: fs.TimeGridFunction(np.ones(4) + 1j, 0.0, 0.1), "values"),
    (lambda: fs.xnorms_over_time(np.ones((3, 2)) + 1j, fs.EUCLID, None), "values"),
    (lambda: fs.spatial_norm(U + 1j, fs.L2, GRID.geometry()), "snapshot"),
    (lambda: fs.time_lp(np.ones(4) + 1j, 2.0, 0.1), "sample_norms"),
    (lambda: tm.frob(1j * np.eye(2)), "q"),
    (lambda: tm.stress(Q + 1j, P3), "q"),
    (lambda: tm.v_map(Q + 1j, P3), "q"),
    (lambda: tm.equivalence_ratios(Q + 1j, Q, P3), "p_mat"),
    (lambda: tm.equivalence_ratios(Q, Q + 1j, P3), "q_mat"),
    # each once raised a bare TypeError
    (lambda: tm.phi(1j, P3), "t"),
    (lambda: tm.phi_d(np.ones(3) + 1j, P3), "t"),
    (lambda: tm.phi_dd(1 + 1j, P3), "t"),
    (lambda: fs.TimeGridFunction.separable([[1.0, 1j]], [np.ones(2)]), "coeffs"),
    (lambda: fs.TimeGridFunction.separable([[1.0, 2.0]], [np.ones(2) * 1j]), "modes"),
    (lambda: ra.estimate_exponent([1j, 2, 3, 4], [1, 2, 3, 4]), "h_values"),
    (lambda: ra.estimate_exponent([1, 2, 3, 4], [1j, 2, 3, 4]), "norms"),
    # a lone step once failed in np.copyto's casting rule
    (lambda: ps.step(U + 1j, 1e-2, P3, GRID), "u_prev"),
    (lambda: ps.step(U, 1e-2, P3, GRID, guess=U + 1j), "guess"),
], ids=["SpatialField", "TimeGridFunction", "xnorms_over_time", "spatial_norm", "time_lp",
        "frob", "stress", "v_map", "equivalence_ratios-p", "equivalence_ratios-q", "phi",
        "phi_d", "phi_dd", "separable-coeffs", "separable-modes", "estimate_exponent-h",
        "estimate_exponent-norms", "step-u_prev", "step-guess"])
def test_complex_input_is_rejected_by_name(call, name):
    with pytest.raises(TypeError, match=f"^{name} must hold real numbers, got complex data$"):
        call()


def test_float64_input_passes_through_uncopied():
    a = np.linspace(0.0, 1.0, 5)
    assert real_array("a", a) is a
    assert ps.SpatialField(U, GRID).data is U
    f = fs.TimeGridFunction(a, 0.0, 0.25)
    assert np.shares_memory(f.values, a)
    # other real input is cast, as np.asarray(..., dtype=float) casts it
    assert real_array("a", [1, 2]).dtype == np.float64
    assert real_array("a", np.float32(0.5)) == 0.5
