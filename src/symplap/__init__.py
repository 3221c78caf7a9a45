"""Numerical laboratory for the evolutionary symmetric-gradient diffusion system.

Subpackages by concern:

* ``tensor_models``        pointwise potential / stress / square-root algebra
* ``stencil``              the centred periodic difference: gradient and
                           Fourier symbol, the one spatial derivative
* ``function_spaces``      discrete Bochner norms, differences and seminorms
* ``inequalities``         the structural-inequality harness on those seminorms
* ``exponent_engine``      closed-form regularity-exponent machinery
* ``pde_solver``           implicit solver on the periodic torus
* ``regularity_analyzer``  seminorm sweeps and interior estimates on trajectories
* ``corpus`` / ``verify``  seeded function corpus and the check matrix
* ``cli``                  batch front-end (solve / analyze / exponents /
                           verify-inequalities)
"""

from .tensor_models import (ModelParams, equivalence_ratios, phi, phi_d, phi_dd,
                            stress, v_map)
from .function_spaces import (SeminormSpec, SpaceGeometry, TimeGridFunction, XNorm,
                              higher_difference, modulus_of_continuity, nikolskii_norm,
                              nikolskii_seminorm, spatial_norm)
from .inequalities import check_inequality
from .exponent_engine import (Regime, classify, gamma0, gamma1, holder_range,
                              interp_params, iterate)
from .pde_solver import (SpatialField, TorusGrid, Trajectory, divergence,
                         initial_condition, solve, step, sym_gradient)
from .regularity_analyzer import (SubCylinder, check_caccioppoli,
                                  check_seminorm_bounds, estimate_exponent,
                                  restrict, seminorm_sweep)

__version__ = "0.1.0"
