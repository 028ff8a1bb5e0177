"""Closed-form unperturbed (mu = 0) parabolic homoclinic orbit.

The separatrix of the rotating-chart system at mu = 0 is the family of
zero-energy Kepler orbits with unit rescaled angular momentum.  With the
auxiliary cubic variable tau defined by v = (tau^3/3 + tau)/2 it reads

    r(v) = (tau^2 + 1)/2,   alpha(v) = 2 arctan(tau),   y(v) = 2 tau/(tau^2+1),

with G = 1, perihelion (r, y) = (1/2, 0) at v = 0, and the symmetries
r(-v) = r(v), y(-v) = -y(v), alpha(-v) = -alpha(v).  The analytic
continuation has branch points at tau = +-i, i.e. v = +-i/3.

Everything here is exact closed-form arithmetic; no integration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HomoclinicPoint",
    "tau_of_v",
    "v_of_tau",
    "homoclinic_state",
    "homoclinic_r",
    "homoclinic_y",
    "homoclinic_alpha",
    "homoclinic_alpha_prime",
    "v_of_r",
    "phase_of_v",
]


@dataclass(frozen=True)
class HomoclinicPoint:
    """Separatrix point: parameter v, cubic variable tau, and (r, y, alpha).

    alpha is stored unwrapped in (-pi, pi); G is identically 1.
    """

    v: float
    tau: float
    r: float
    y: float
    alpha: float


def tau_of_v(v):
    """Unique real root tau of v = (tau^3/3 + tau)/2.

    Uses the Cardano form tau = A - 1/A with A = (3v + sqrt(9v^2+1))^(1/3),
    evaluated at |v| and reflected by oddness to avoid the catastrophic
    cancellation in 3v + sqrt(9v^2+1) for v < 0.  Odd and strictly
    increasing; tau(2/3) = 1, tau(7/3) = 2.
    """
    v_arr = np.asarray(v, dtype=float)
    av = np.abs(v_arr)
    A = np.cbrt(3.0 * av + np.sqrt(9.0 * av * av + 1.0))
    t = np.where(av > 0.0, A - 1.0 / np.where(A > 0, A, 1.0), 0.0)
    out = np.sign(v_arr) * t
    return out if out.ndim else float(out)


def v_of_tau(tau):
    # a scalar is taken as a float64 scalar, whose cube numpy takes from the
    # C library's pow: correctly rounded in more cases than its array loop
    tau = np.asarray(tau, dtype=float)[()]
    out = 0.5 * (tau**3 / 3.0 + tau)
    return out if out.ndim else float(out)


def homoclinic_r(v):
    t = np.asarray(tau_of_v(v))
    out = 0.5 * (t * t + 1.0)
    return out if out.ndim else float(out)


def homoclinic_y(v):
    """Radial momentum dr/dv = 2 tau / (tau^2 + 1); odd, zero at v = 0."""
    t = np.asarray(tau_of_v(v))
    out = 2.0 * t / (t * t + 1.0)
    return out if out.ndim else float(out)


def homoclinic_alpha(v):
    """Polar angle 2 arctan(tau), unwrapped in (-pi, pi)."""
    t = np.asarray(tau_of_v(v))
    out = 2.0 * np.arctan(t)
    return out if out.ndim else float(out)


def homoclinic_alpha_prime(v):
    """d alpha/dv = 1/r^2 along the separatrix."""
    r = np.asarray(homoclinic_r(v))
    out = 1.0 / (r * r)
    return out if out.ndim else float(out)


def homoclinic_state(v: float) -> HomoclinicPoint:
    """Separatrix point at parameter v.

    The energy identity y^2/2 + 1/(2 r^2) - 1/r = 0 holds exactly, and
    homoclinic_state(0) is the perihelion (1/2, 0, 0).
    """
    t = float(tau_of_v(v))
    r = 0.5 * (t * t + 1.0)
    return HomoclinicPoint(v=float(v), tau=t, r=r, y=2.0 * t / (t * t + 1.0),
                           alpha=2.0 * float(np.arctan(t)))


def v_of_r(r):
    """Inverse of homoclinic_r on the outgoing leg: v >= 0 (y >= 0).

    Requires r >= 1/2 (the perihelion radius).
    """
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0.5 - 1e-12):
        raise ValueError("separatrix radius is at least 1/2")
    t = np.sqrt(np.maximum(2.0 * r_arr - 1.0, 0.0))
    return v_of_tau(t)


def phase_of_v(v, p):
    """Section phase x = g0^3 v - alpha_h(v) (unwrapped, increasing) at the
    g0 of p, a core.Params."""
    return p.g0**3 * np.asarray(v) - np.asarray(homoclinic_alpha(v))

