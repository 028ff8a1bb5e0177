"""Numerical toolkit for the planar circular restricted three-body problem
near the parabolic manifold of infinity: separatrix closed forms, Melnikov
coefficients by three independent routes, stable/unstable invariant-curve
computation on Poincare sections, splitting distances and lobe areas, the
homoclinic-tangency curve in the (mu, g0) plane, and finite-horizon
oscillatory-motion demonstrations.
"""

__version__ = "0.1.0"

from .core import (
    CollisionError,
    Params,
    PrecisionError,
    SectionTimeoutError,
    collision_radius,
    hamiltonian_rotating,
    involution_R,
    potential_V,
)
from .melnikov import (
    MelnikovSeries,
    contour_integral_I,
    melnikov_coeff_asymptotic,
    melnikov_coeff_contour,
    melnikov_coeff_quadrature,
    predicted_distance,
    predicted_lobe_area,
    predicted_tangency_mu,
    uhat_fourier_coeff,
)
from .separatrix import (
    HomoclinicPoint,
    homoclinic_state,
    tau_of_v,
)
