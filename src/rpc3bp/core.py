"""The model of the planar circular restricted three-body problem (RPC3BP)
in the chart the toolkit runs in.

Chart
-----
rotating : rescaled synodic chart (r, phi, y, G), with y the radial momentum
    and G the angular momentum.  Radii are measured in units of g0^2,
    momenta in 1/g0, time in g0^3, and phi is the angle relative to the
    primaries, with the larger one on the ray phi = 0.  In this chart the
    system is an autonomous two-degree-of-freedom Hamiltonian and the
    energy level of interest is H = -g0^3 (the Jacobi-constant level
    J = H/g0^2 = -g0 of the original variables).  The tests check this
    chart against the inertial problem, through its Cartesian and polar
    charts, as an independent oracle.

Every state, of a single orbit, a lane of a fan or an error's last_state,
is a float sequence ``[r, phi, y, G]``; the functions that return one
return a float64 array of shape (4,).

The perturbing potential V of the primaries and the flow it drives are
written once, in potential_kernel, for whatever cos, sin and sqrt it is
given: math's for the scalar right-hand side of single orbits, numpy's for
the lanes of a fan and the angle grids of the Melnikov quadrature.
potential_V and hamiltonian_rotating derive from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, isfinite, sin, sqrt
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "CollisionError",
    "PrecisionError",
    "SectionTimeoutError",
    "Params",
    "potential_kernel",
    "collision_radius",
    "hamiltonian_rotating",
    "potential_V",
    "involution_R",
]

# Distances to a primary below this are treated as a collision.
_COLLISION_EPS = 1e-12


def _fresh_state(z):
    """A new float64 array of the state z, or None for no state."""
    return None if z is None else np.array(z, dtype=float)


class CollisionError(ValueError):
    """State too close to one of the primaries; last_state is the state
    [r, phi, y, G] at which it was found."""

    def __init__(self, msg, last_state=None):
        super().__init__(msg)
        self.last_state = _fresh_state(last_state)


class PrecisionError(RuntimeError):
    """Requested accuracy is below what the arithmetic can deliver."""


class SectionTimeoutError(RuntimeError):
    """No Poincare-section crossing found within the integration horizon."""

    def __init__(self, msg, last_state=None):
        super().__init__(msg)
        self.last_state = _fresh_state(last_state)


@dataclass(frozen=True)
class Params:
    """Physical parameters: mass ratio mu and angular-momentum level g0.

    mu is the mass of the smaller primary (total mass 1), so mu in [0, 1/2].
    g0 > 1 is the rescaled angular-momentum / Jacobi-constant level; the
    asymptotic regime of interest is g0 large.
    """

    mu: float
    g0: float

    def __post_init__(self):
        if not 0.0 <= self.mu <= 0.5:
            raise ValueError(f"mu must be in [0, 1/2], got {self.mu}")
        if not (isfinite(self.g0) and self.g0 > 1.0):
            raise ValueError(f"g0 must be finite and exceed 1, got {self.g0}")


def _primary_radii(p: Params) -> tuple[float, float]:
    """Rotating-chart distances from the origin of the larger primary (mass
    1-mu, on the ray phi = 0) and of the smaller one (mass mu, on phi = pi).

    Only primaries that carry mass are singular.  A massless primary adds
    nothing to V wherever it sits, so it is put at the origin, where no
    state outside r = 0 meets it; Params keeps mu <= 1/2, so only the
    smaller primary can be massless.
    """
    return p.mu / p.g0**2, ((1.0 - p.mu) / p.g0**2 if p.mu > 0.0 else 0.0)


_COLLISION_FLOOR = 1e-6     # far below the separatrix perihelion r = 1/2


def collision_radius(p: Params) -> float:
    """Conservative rotating-chart radius cutoff: twice the largest distance
    of a primary that carries mass, and at least 1e-6.

    At mu = 0 the only massive primary sits at the origin and the cutoff is
    the floor, which stops a plunge into the origin and still lets the
    unperturbed separatrix pass its perihelion r = 1/2 at any g0.
    """
    return max(_COLLISION_FLOOR, 2.0 * max(_primary_radii(p)))


class PotentialKernel(NamedTuple):
    """The closures of potential_kernel for one Params and one arithmetic.

    dist_sq(r, rr, cp): squared distances (d1^2, d2^2) to the larger and the
        smaller primary at radius r, rr = r*r and cp = cos(phi).
    V(r, cp): the perturbing potential (1-mu)/d1 + mu/d2 - 1/r.
    rates(r, phi, y, G): d/ds of (r, phi, y, G) under the rotating-chart
        flow, as a tuple (y, G/r^2 - g0^3, G^2/r^3 - 1/r^2 + dV/dr, dV/dphi).
    field(s, z): rates(*z), in solve_ivp's f(s, z) form.
    """

    dist_sq: Callable
    V: Callable
    rates: Callable
    field: Callable


def potential_kernel(p: Params, cos, sin, sqrt) -> PotentialKernel:
    """V and the flow it drives, written once for the arithmetic of the
    given cos, sin and sqrt.

    math's functions give the Python-float right-hand side of single orbits;
    numpy's give the same operations in the same order elementwise, on the
    (4, m) lane arrays of a fan or the radius-by-angle grids of the Melnikov
    quadrature, so a lane and a scalar call agree bit for bit wherever
    numpy's cos, sin and sqrt round as math's do.  rates takes the four
    coordinates as positional arguments, so the Python-float step of a
    single orbit packs and unpacks no tuple per stage; field wraps it for
    callers that hold z as one sequence.  The closures check nothing: a
    state at a massive primary divides by zero.
    """
    mu, g0 = p.mu, p.g0
    m1, m2 = _primary_radii(p)
    # constant factors, formed once outside the hot path; 2.0 * m1 * r * cp
    # evaluates as ((2.0 * m1) * r) * cp, and -mass1 * x as (-mass1) * x,
    # so hoisting them changes no bit
    two_m1, m1_sq = 2.0 * m1, m1 * m1
    two_m2, m2_sq = 2.0 * m2, m2 * m2
    mass1 = 1.0 - mu
    neg_mass1 = -mass1
    g03 = g0**3
    mm = mu * mass1 / g0**2

    def dist_sq(r, rr, cp):
        return rr - two_m1 * r * cp + m1_sq, rr + two_m2 * r * cp + m2_sq

    def V(r, cp):
        d1sq, d2sq = dist_sq(r, r * r, cp)
        return mass1 / sqrt(d1sq) + mu / sqrt(d2sq) - 1.0 / r

    def rates(r, phi, y, G):
        cp = cos(phi)
        rr = r * r
        inv_rr = 1.0 / rr
        # dist_sq's algebra, written out: its call took about a sixth of
        # this function's time and 3-5% of a DOP853 step of flow
        d1sq = rr - two_m1 * r * cp + m1_sq
        d2sq = rr + two_m2 * r * cp + m2_sq
        inv_d13 = 1.0 / (d1sq * sqrt(d1sq))
        inv_d23 = 1.0 / (d2sq * sqrt(d2sq))
        dVdr = (neg_mass1 * (r - m1 * cp) * inv_d13
                - mu * (r + m2 * cp) * inv_d23 + inv_rr)
        return (y, G / rr - g03, G * G / (rr * r) - inv_rr + dVdr,
                mm * r * sin(phi) * (inv_d23 - inv_d13))

    def field(s, z):
        return rates(*z)

    return PotentialKernel(dist_sq, V, rates, field)


# ---------------------------------------------------------------------------
# Energy
# ---------------------------------------------------------------------------

def potential_V(r: float, phi: float, p: Params) -> float:
    """Rescaled perturbation potential of the rotating chart.

    V(r, phi) = (1-mu)/d1 + mu/d2 - 1/r with the primaries at distances
    mu/g0^2 and (1-mu)/g0^2 from the origin.  Even in phi; identically zero
    at mu = 0; pi-periodic in phi at mu = 1/2.  Size O(mu/(g0^4 r^3)) for
    r away from the primaries.  Raises CollisionError within 1e-12 of a
    primary that carries mass.
    """
    kernel = potential_kernel(p, cos, sin, sqrt)
    cp = cos(phi)
    d1sq, d2sq = kernel.dist_sq(r, r * r, cp)
    if d1sq < _COLLISION_EPS**2 or d2sq < _COLLISION_EPS**2:
        raise CollisionError("rotating state at a primary")
    return kernel.V(r, cp)


def hamiltonian_rotating(z, p: Params) -> float:
    """Autonomous two-degree-of-freedom energy of the rotating chart at the
    state z = [r, phi, y, G]:
    y^2/2 - g0^3 G + G^2/(2 r^2) - 1/r - V(r, phi).

    Relates to the Jacobi constant J of the original variables by
    H = g0^2 * J, so the working energy shell H = -g0^3 is J = -g0.  The
    coordinates are read as Python floats, so an array and a list of the
    same numbers give the same bits.
    """
    r, phi, y, G = (float(c) for c in z)
    if r <= 0.0:
        raise CollisionError("r must be positive")
    return (0.5 * y * y - p.g0**3 * G + G * G / (2.0 * r * r)
            - 1.0 / r - potential_V(r, phi, p))


# ---------------------------------------------------------------------------
# Reversibility
# ---------------------------------------------------------------------------

def involution_R(z) -> np.ndarray:
    """Reversing symmetry (r, phi, y, G) -> (r, -phi, -y, G); an involution.

    Conjugates the flow to its time reversal, and maps the unstable manifold
    of infinity onto the stable one.  Fixed points have y = 0, phi in {0, pi}.
    Returns a new float64 array of shape (4,).
    """
    r, phi, y, G = z
    return np.array([r, -phi, -y, G], dtype=float)
