"""Finite-horizon demonstration of oscillatory-type motion near the tangle.

Orbits seeded close to a transversal homoclinic point of the manifolds of
infinity make repeated large radial excursions followed by returns to a
bounded region.  This module iterates the section return map by direct
integration, one integrate.first_return call per return, logging the radial
maximum between consecutive returns, and classifies termination (iteration
budget, hyperbolic escape, or a parabolic departure that never returns).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import pi

import numpy as np

from .core import (CollisionError, Params, RotatingState, collision_radius,
                   hamiltonian_rotating)
from .integrate import first_return, flow
from .manifolds import lift_to_shell

__all__ = ["ExcursionLog", "ReturnRecord", "oscillation_demo", "HYPERBOLIC_EXCESS"]

# two-body energy threshold classifying an outgoing orbit as hyperbolic
HYPERBOLIC_EXCESS = 1e-6

# an excursion is a radial maximum above R_OUT followed by a return below R_IN
R_OUT = 5.0
R_IN = 2.0


@dataclass(frozen=True)
class ReturnRecord:
    s: float                # accumulated flow time at the return
    r: float
    y: float
    G: float
    max_r_since_last: float


@dataclass
class ExcursionLog:
    params: Params
    phi0: float
    seed: tuple[float, float]
    returns: list[ReturnRecord] = field(default_factory=list)
    excursions: list[tuple[float, float]] = field(default_factory=list)  # (max r, return r)
    escaped: bool = False
    escape_kind: str = ""   # "hyperbolic" | "parabolic_or_escape"
    energy_residual: float = 0.0

    @property
    def n_excursions(self) -> int:
        return len(self.excursions)


def _two_body_energy(z) -> float:
    r, _, y, G = z
    return 0.5 * y * y - 1.0 / r + G * G / (2.0 * r * r)


def oscillation_demo(p: Params, seed: tuple[float, float], n_iter: int,
                     phi0: float = 0.0, tol: float = 1e-11) -> ExcursionLog:
    """Iterate section returns from a seed near the homoclinic tangle.

    Logs every return to {phi = phi0 (mod 2pi)} together with the maximum
    radius reached since the previous drop below R_IN; an excursion is a
    radial maximum above R_OUT followed by a return below R_IN.  Long
    flights are integrated straight through (the radial maximum is located
    by the y = 0 turning-point event, not by section counting).  Terminates
    after n_iter returns, on hyperbolic escape (two-body energy above
    HYPERBOLIC_EXCESS at r > 10 R_OUT), or on a parabolic/undecided
    departure past the same horizon.  Deterministic for fixed inputs.

    Raises ValueError for a seed inside collision_radius(p): flow refuses
    such a start with CollisionError, which the demo takes for the end of
    its run, so it would log a run with no returns.
    """
    if seed[0] >= R_OUT:
        raise ValueError(f"seed must start inside r = {R_OUT}")
    if seed[0] < collision_radius(p):
        raise ValueError(f"seed r = {seed[0]} lies inside the collision "
                         f"cutoff {collision_radius(p)}")
    if n_iter < 1:
        raise ValueError(f"n_iter must be at least 1, got {n_iter!r}")
    z = lift_to_shell(seed[0], seed[1], phi0, p).to_array()
    h0 = hamiltonian_rotating(RotatingState.from_array(z), p)
    log = ExcursionLog(params=p, phi0=phi0,
                       seed=(float(seed[0]), float(seed[1])))

    def going_out(s_, z_):
        return z_[0] - R_OUT
    going_out.terminal = True
    going_out.direction = 1.0

    def coming_back(s_, z_):
        return z_[0] - 0.98 * R_OUT
    coming_back.terminal = True
    coming_back.direction = -1.0

    def apo(s_, z_):
        return z_[2]
    apo.terminal = False
    apo.direction = -1.0

    r_horizon = 10.0 * R_OUT

    def far(s_, z_):
        return z_[0] - r_horizon
    far.terminal = True
    far.direction = 1.0

    s_acc = 0.0
    max_r = float(z[0])
    synodic = 2.0 * pi / p.g0**3
    flight_horizon = 60.0 * synodic + 6.0 * pi * (2.0 * r_horizon) ** 1.5
    h_final = h0
    n_returns = 0

    while n_returns < n_iter:
        # inside region: run to the next section return, bailing into
        # excursion mode if the orbit climbs past R_OUT first
        try:
            sol, z_ret = first_return(z, phi0, p, tol, 4.0 * synodic,
                                      events=[going_out])
        except CollisionError:
            break
        max_r = max(max_r, float(np.max(sol.y[0])))
        # sol ends on going_out's crossing, on the return, or at s_max,
        # which ends the demo
        s_acc += float(sol.t[-1])
        if len(sol.t_events[0]) > 0:
            # excursion: integrate straight through, no section counting
            try:
                ex = flow(sol.y_events[0][0], (0.0, flight_horizon), tol, p,
                          events=[coming_back, apo, far])
            except CollisionError:
                break
            back_t, _, far_t = ex.t_events
            back_y, apo_y, far_y = ex.y_events
            if len(far_t) > 0 or len(back_t) == 0:
                zf = far_y[0] if len(far_t) > 0 else ex.y[:, -1]
                e2 = _two_body_energy(zf)
                log.escaped = True
                log.escape_kind = ("hyperbolic" if e2 > HYPERBOLIC_EXCESS
                                  else "parabolic_or_escape")
                max_r = max(max_r, float(zf[0]))
                break
            if len(apo_y) > 0:
                max_r = max(max_r, float(np.max(apo_y[:, 0])))
            z = back_y[0]
            s_acc += float(back_t[0])
            max_r = max(max_r, R_OUT)
            continue
        if z_ret is None:
            log.escaped = True
            log.escape_kind = "parabolic_or_escape"
            break
        z = z_ret
        max_r = max(max_r, float(z[0]))
        n_returns += 1
        log.returns.append(ReturnRecord(s=s_acc, r=float(z[0]), y=float(z[2]),
                                        G=float(z[3]), max_r_since_last=max_r))
        h_final = hamiltonian_rotating(RotatingState.from_array(z), p)
        if z[0] < R_IN:
            if max_r > R_OUT:
                log.excursions.append((max_r, float(z[0])))
            max_r = float(z[0])

    log.energy_residual = abs(h_final - h0)
    return log
