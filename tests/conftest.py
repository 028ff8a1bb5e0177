from math import cos, sin, sqrt

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from rpc3bp.core import CollisionError, collision_radius, potential_kernel


def _solve_ivp_flow(z0, s_end, tol, p, events=()):
    """integrate.flow's contract on scipy's solve_ivp DOP853 over (0, s_end):
    the reference that flow repeats bit for bit.  The collision guard goes
    after events and its slot is dropped, so t_events[e] belongs to
    events[e].  A negative s_end, which flow refuses, integrates backward:
    this is the tests' backward flow."""
    r_cut = collision_radius(p)

    def collision(s, z):
        return z[0] - r_cut
    collision.terminal = True
    collision.direction = -1.0

    sol = solve_ivp(potential_kernel(p, cos, sin, sqrt).field, (0.0, s_end),
                    np.asarray(z0, dtype=float), method="DOP853", rtol=tol,
                    atol=tol * 1e-2, events=[*events, collision])
    if sol.status == -1:
        raise RuntimeError(f"integration failed: {sol.message}")
    if sol.status == 1 and len(sol.t_events[-1]) > 0:
        raise CollisionError("trajectory reached the collision cutoff",
                             last_state=sol.y[:, -1])
    sol.t_events, sol.y_events = sol.t_events[:-1], sol.y_events[:-1]
    return sol


def _angle_event(phi0, direction=0.0):
    """An event on {phi = phi0 (mod 2pi)} crossed in the given direction, as
    integrate.section_event is on phi = 0 in either direction."""

    def ev(s, z):
        return np.sin(0.5 * (z[1] - phi0))

    ev.terminal = False
    ev.direction = direction
    return ev


@pytest.fixture
def solve_ivp_flow():
    return _solve_ivp_flow


@pytest.fixture
def angle_event():
    return _angle_event
