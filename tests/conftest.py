import numpy as np
import pytest
from scipy.integrate import solve_ivp

from rpc3bp.core import CollisionError, RotatingState, collision_radius
from rpc3bp.integrate import make_rhs


def _solve_ivp_flow(z0, s_span, tol, p, events=None):
    """integrate.flow's contract on scipy's solve_ivp DOP853: the reference
    that flow repeats bit for bit."""
    r_cut = collision_radius(p)

    def collision(s, z):
        return z[0] - r_cut
    collision.terminal = True
    collision.direction = -1.0

    sol = solve_ivp(make_rhs(p), s_span, np.asarray(z0, dtype=float),
                    method="DOP853", rtol=tol, atol=tol * 1e-2,
                    events=[collision, *(events or ())])
    if sol.status == -1:
        raise RuntimeError(f"integration failed: {sol.message}")
    if sol.status == 1 and len(sol.t_events[0]) > 0:
        err = CollisionError("trajectory reached the collision cutoff")
        err.last_state = RotatingState.from_array(sol.y[:, -1])
        raise err
    return sol


@pytest.fixture
def solve_ivp_flow():
    return _solve_ivp_flow
