"""Coordinate charts, Hamiltonians and vector fields for the planar circular
restricted three-body problem (RPC3BP).

Charts
------
cartesian : inertial position/momentum (q, p) with the primaries on circular
    orbits of radius mu and 1-mu.
polar     : (r, alpha, y, G) with y the radial momentum, G the angular momentum.
rotating  : rescaled synodic chart (r, phi, y, G).  Radii are measured in units
    of g0^2, momenta in 1/g0, time in g0^3, and phi = alpha - t is the angle
    relative to the primaries.  In this chart the system is an autonomous
    two-degree-of-freedom Hamiltonian and the energy level of interest is
    H = -g0^3 (the Jacobi-constant level J = -g0 of the original variables).

State layout for array-based work is ``[r, phi, y, G]`` (rotating chart).

The perturbing potential V of the primaries and the flow it drives are
written once, in potential_kernel, for whatever cos, sin and sqrt it is
given: math's for the scalar right-hand side of single orbits, numpy's for
the lanes of a fan and the angle grids of the Melnikov quadrature.
potential_V, vector_field_rotating, hamiltonian_rotating and
hamiltonian_polar derive from it; hamiltonian_cartesian keeps its own
arithmetic as an independent check of the charts.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan2, cos, hypot, pi, sin, sqrt
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "CollisionError",
    "PrecisionError",
    "ResolutionError",
    "SectionTimeoutError",
    "Params",
    "CartesianState",
    "PolarState",
    "RotatingState",
    "potential_kernel",
    "collision_radius",
    "hamiltonian_cartesian",
    "hamiltonian_polar",
    "hamiltonian_rotating",
    "jacobi_constant",
    "potential_V",
    "cartesian_to_polar",
    "polar_to_cartesian",
    "polar_to_rotating",
    "rotating_to_polar",
    "vector_field_rotating",
    "involution_R",
]

# Distances to a primary below this are treated as a collision.
_COLLISION_EPS = 1e-12


class CollisionError(ValueError):
    """State too close to one of the primaries."""


class PrecisionError(RuntimeError):
    """Requested accuracy is below what the arithmetic can deliver."""


class ResolutionError(RuntimeError):
    """Sampling too coarse for the requested analysis."""


class SectionTimeoutError(RuntimeError):
    """No Poincare-section crossing found within the integration horizon."""

    def __init__(self, msg, last_state=None):
        super().__init__(msg)
        self.last_state = last_state


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
        if not self.g0 > 1.0:
            raise ValueError(f"g0 must exceed 1, got {self.g0}")


@dataclass(frozen=True)
class CartesianState:
    q: tuple[float, float]
    p: tuple[float, float]
    t: float = 0.0


@dataclass(frozen=True)
class PolarState:
    r: float
    alpha: float
    y: float
    G: float
    t: float = 0.0


@dataclass(frozen=True)
class RotatingState:
    """Point of the rescaled rotating chart; fields are (r, phi, y, G)."""

    r: float
    phi: float
    y: float
    G: float

    def to_array(self) -> np.ndarray:
        return np.array([self.r, self.phi, self.y, self.G], dtype=float)

    @staticmethod
    def from_array(z) -> "RotatingState":
        return RotatingState(float(z[0]), float(z[1]), float(z[2]), float(z[3]))


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
    field(s, z): d/ds of z = (r, phi, y, G) under the rotating-chart flow,
        as a tuple (y, G/r^2 - g0^3, G^2/r^3 - 1/r^2 + dV/dr, dV/dphi).
    """

    dist_sq: Callable
    V: Callable
    field: Callable


def potential_kernel(p: Params, cos, sin, sqrt) -> PotentialKernel:
    """V and the flow it drives, written once for the arithmetic of the
    given cos, sin and sqrt.

    math's functions give the Python-float right-hand side of single orbits;
    numpy's give the same operations in the same order elementwise, on the
    (4, m) lane arrays of a fan or the radius-by-angle grids of the Melnikov
    quadrature, so a lane and a scalar call agree bit for bit wherever
    numpy's cos, sin and sqrt round as math's do.  The closures check
    nothing: a state at a massive primary divides by zero.
    """
    mu, g0 = p.mu, p.g0
    m1, m2 = _primary_radii(p)
    # constant factors, formed once outside the hot path; 2.0 * m1 * r * cp
    # evaluates as ((2.0 * m1) * r) * cp, so hoisting them changes no bit
    two_m1, m1_sq = 2.0 * m1, m1 * m1
    two_m2, m2_sq = 2.0 * m2, m2 * m2
    mass1 = 1.0 - mu
    g03 = g0**3
    mm = mu * mass1 / g0**2

    def dist_sq(r, rr, cp):
        return rr - two_m1 * r * cp + m1_sq, rr + two_m2 * r * cp + m2_sq

    def V(r, cp):
        d1sq, d2sq = dist_sq(r, r * r, cp)
        return mass1 / sqrt(d1sq) + mu / sqrt(d2sq) - 1.0 / r

    def field(s, z):
        r, phi, y, G = z
        cp = cos(phi)
        rr = r * r
        inv_rr = 1.0 / rr
        d1sq, d2sq = dist_sq(r, rr, cp)
        inv_d13 = 1.0 / (d1sq * sqrt(d1sq))
        inv_d23 = 1.0 / (d2sq * sqrt(d2sq))
        dVdr = (-mass1 * (r - m1 * cp) * inv_d13
                - mu * (r + m2 * cp) * inv_d23 + inv_rr)
        return (y, G / rr - g03, G * G / (rr * r) - inv_rr + dVdr,
                mm * r * sin(phi) * (inv_d23 - inv_d13))

    return PotentialKernel(dist_sq, V, field)


# ---------------------------------------------------------------------------
# Hamiltonians and the Jacobi constant
# ---------------------------------------------------------------------------

def hamiltonian_cartesian(s: CartesianState, p: Params) -> float:
    """Energy |p|^2/2 - (1-mu)/|q + mu*q0(t)| - mu/|q - (1-mu)*q0(t)|,
    with q0(t) = (cos t, sin t) the primaries' circular motion."""
    q1, q2 = s.q
    p1, p2 = s.p
    c, sn = cos(s.t), sin(s.t)
    d1 = hypot(q1 + p.mu * c, q2 + p.mu * sn)
    d2 = hypot(q1 - (1.0 - p.mu) * c, q2 - (1.0 - p.mu) * sn)
    # only primaries carrying mass are singular
    if (p.mu < 1.0 and d1 < _COLLISION_EPS) or (p.mu > 0.0 and d2 < _COLLISION_EPS):
        raise CollisionError("state at a primary")
    out = 0.5 * (p1 * p1 + p2 * p2)
    if p.mu < 1.0:
        out -= (1.0 - p.mu) / d1
    if p.mu > 0.0:
        out -= p.mu / d2
    return out


def hamiltonian_polar(s: PolarState, p: Params) -> float:
    """Energy y^2/2 + G^2/(2 r^2) - (1-mu)/d1 - mu/d2 of the polar chart,
    as H_rot/g0^2 + G through polar_to_rotating (hamiltonian_rotating)."""
    return hamiltonian_rotating(polar_to_rotating(s, p), p) / p.g0**2 + s.G


def jacobi_constant(s: PolarState, p: Params) -> float:
    """Conserved combination H - G of the polar chart."""
    return hamiltonian_polar(s, p) - s.G


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


def hamiltonian_rotating(s: RotatingState, p: Params) -> float:
    """Autonomous two-degree-of-freedom energy of the rotating chart:
    y^2/2 - g0^3 G + G^2/(2 r^2) - 1/r - V(r, phi).

    Relates to the polar-chart Jacobi constant by H = g0^2 * J, so the
    working energy shell H = -g0^3 corresponds to J = -g0.
    """
    if s.r <= 0.0:
        raise CollisionError("r must be positive")
    return (0.5 * s.y * s.y - p.g0**3 * s.G + s.G * s.G / (2.0 * s.r * s.r)
            - 1.0 / s.r - potential_V(s.r, s.phi, p))


# ---------------------------------------------------------------------------
# Chart transforms
# ---------------------------------------------------------------------------

def cartesian_to_polar(s: CartesianState) -> PolarState:
    q1, q2 = s.q
    p1, p2 = s.p
    r = hypot(q1, q2)
    if r <= 0.0:
        raise CollisionError("origin has no polar chart")
    alpha = atan2(q2, q1)
    y = (q1 * p1 + q2 * p2) / r
    G = q1 * p2 - q2 * p1
    return PolarState(r, alpha, y, G, s.t)


def polar_to_cartesian(s: PolarState) -> CartesianState:
    c, sn = cos(s.alpha), sin(s.alpha)
    q = (s.r * c, s.r * sn)
    p = (s.y * c - s.G / s.r * sn, s.y * sn + s.G / s.r * c)
    return CartesianState(q, p, s.t)


def polar_to_rotating(s: PolarState, p: Params) -> RotatingState:
    """Rescale and pass to the synodic angle phi = alpha - t + pi.

    The pi offset places the larger primary at phi-distance cos(phi) as the
    rotating-chart potential is written (larger mass toward phi = 0), keeping
    every chart consistent with the Cartesian primary positions.
    """
    return RotatingState(s.r / p.g0**2, s.alpha - s.t + pi, s.y * p.g0,
                         s.G / p.g0)


def rotating_to_polar(s: RotatingState, t: float, p: Params) -> PolarState:
    """Inverse of polar_to_rotating at original-variables time t."""
    return PolarState(s.r * p.g0**2, s.phi + t - pi, s.y / p.g0, s.G * p.g0, t)


# ---------------------------------------------------------------------------
# Vector field and reversibility
# ---------------------------------------------------------------------------

def vector_field_rotating(s: RotatingState, p: Params) -> np.ndarray:
    """d/ds of (r, phi, y, G) under the rotating-chart Hamiltonian flow.

    Returns (y, G/r^2 - g0^3, G^2/r^3 - 1/r^2 + dV/dr, dV/dphi), the field
    of potential_kernel.  The energy hamiltonian_rotating is a first
    integral.  At mu = 0 the G component is identically zero.
    """
    if s.r < collision_radius(p):
        raise CollisionError(f"r={s.r} inside collision cutoff")
    field = potential_kernel(p, cos, sin, sqrt).field
    return np.array(field(0.0, (s.r, s.phi, s.y, s.G)))


def involution_R(s: RotatingState) -> RotatingState:
    """Reversing symmetry (r, phi, y, G) -> (r, -phi, -y, G); an involution.

    Conjugates the flow to its time reversal, and maps the unstable manifold
    of infinity onto the stable one.  Fixed points have y = 0, phi in {0, pi}.
    """
    return RotatingState(s.r, -s.phi, -s.y, s.G)
