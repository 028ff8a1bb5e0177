"""Adaptive integration of the rotating-chart flow and Poincare-section events.

The propagator is an 8th-order embedded Runge-Kutta (DOP853, the in-house
loop) with dense output for event location.  The synodic angle phi is kept
unwrapped and is monotone decreasing along the flow in the regime of
interest.  first_return finds a single orbit's next return to the section
{phi = phi0 (mod 2pi)} as the first time phi reaches the level phi0 + 2pi k
strictly below its start; a fan of orbits reads all its crossings as the
zeros of section_event's sin((phi - phi0)/2).

Each crossing used downstream is polished with explicit Newton micro-steps in
time until |phi - phi0| (mod 2pi) is at machine level (<= 1e-13 guaranteed).

flow steps one orbit and repeats the arithmetic of scipy's solve_ivp DOP853
bit for bit: its tableau, initial-step rule, error norm, step-size
controller, underflow check and event location.  lockstep_flow advances many
orbits ("lanes") at once with the same scheme written in numpy: one
vectorised right-hand side per stage serves every lane, while each lane
keeps its own step size and accept/reject state.  Both right-hand sides are
core.potential_kernel's field, on Python floats for flow and on numpy
arrays for the lanes, so they agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, floor, inf, nextafter, pi, sin, sqrt

import numpy as np
from scipy.integrate._ivp import dop853_coefficients as _dop
from scipy.optimize import brentq

from .core import (
    CollisionError,
    Params,
    RotatingState,
    collision_radius,
    potential_kernel,
)

__all__ = [
    "TOL_MIN",
    "TOL_MAX",
    "make_rhs",
    "make_lane_rhs",
    "integrate",
    "Trajectory",
    "flow",
    "LockstepFlow",
    "lockstep_flow",
    "section_event",
    "refine_to_section",
    "first_return",
]

# scipy's solve_ivp raises any rtol below 100 eps to that floor with only a
# warning; flow repeats its arithmetic, so a smaller tol is refused
TOL_MIN = 100 * np.finfo(float).eps
TOL_MAX = 1e-6


def _section_tol(phi: float) -> float:
    """Largest |phi - phi0| (mod 2pi) that counts as on the section: 1e-13,
    or the representation floor of a large unwrapped angle phi."""
    return max(1e-13, 16.0 * np.finfo(float).eps * abs(phi))


def _check_tol(tol: float) -> None:
    if not TOL_MIN <= tol <= TOL_MAX:
        raise ValueError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}], got {tol}")


def make_rhs(p: Params):
    """Scalar-math right-hand side f(s, z) for z = [r, phi, y, G].

    The field of core.potential_kernel on Python floats: the hot path of
    every single-orbit propagation.
    """
    return potential_kernel(p, cos, sin, sqrt).field


def make_lane_rhs(p: Params):
    """make_rhs for a (4, m) array of states, one lane per column: the same
    kernel on numpy arrays, operation for operation.
    """
    field = potential_kernel(p, np.cos, np.sin, np.sqrt).field

    def rhs(z):
        out = np.empty_like(z)
        out[0], out[1], out[2], out[3] = field(0.0, z)
        return out

    return rhs


def _collision_event(p: Params):
    r_cut = collision_radius(p)

    def ev(s, z):
        return z[0] - r_cut

    ev.terminal = True
    ev.direction = -1.0
    return ev


# DOP853 tableau (Hairer, Norsett & Wanner) and step-size controller, as in
# scipy.integrate's DOP853
_N_STAGES = _dop.N_STAGES
_A, _B, _D = _dop.A, _dop.B, _dop.D
_E3, _E5 = _dop.E3, _dop.E5
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1.0 / 8.0
_EPS = np.finfo(float).eps


@dataclass
class Trajectory:
    """Outcome of flow, under the names of scipy's solve_ivp result.

    t, y: the accepted step times and the states there, y[:, i] at t[i],
    ending at s_span[1] or at the terminal crossing.  t_events[e],
    y_events[e]: times and states of the crossings of events[e - 1], and of
    the collision guard for e = 0.  nfev: right-hand-side evaluations.
    status: 0 when the span was integrated, 1 when a terminal event fired.
    """

    t: np.ndarray
    y: np.ndarray
    t_events: list
    y_events: list
    nfev: int
    status: int


def flow(z0, s_span, tol, p: Params, events=None) -> Trajectory:
    """Integrate one orbit over s_span (either direction) with the collision
    guard installed.

    Repeats the arithmetic of scipy's solve_ivp(method="DOP853", rtol=tol,
    atol=tol * 1e-2, events=...) bit for bit, so its steps, states, event
    crossings and nfev are solve_ivp's.  The stage sums and the norms go
    through np.dot as scipy's do; the right-hand side gets Python floats.
    Events are ev(s, z) with `terminal` (a bool) and `direction`
    attributes; crossings are located on the step's dense output by brentq.

    Raises CollisionError if the trajectory reaches the collision cutoff,
    carrying the last valid state on the exception, and RuntimeError when
    the step size underflows.
    """
    _check_tol(tol)
    s, s_end = float(s_span[0]), float(s_span[1])
    direction = -1.0 if s_end < s else 1.0
    z = np.array(z0, dtype=float)
    if z.shape != (4,) or not np.isfinite(z).all():
        raise ValueError("z0 must be a finite state [r, phi, y, G]")
    rhs = make_rhs(p)

    def column(zc):
        """rhs for the one-lane (4, 1) arrays of the lockstep helpers."""
        return np.array(rhs(0.0, zc[:, 0].tolist()))[:, None]

    evs = [_collision_event(p), *(events or ())]
    ev_dir = [getattr(ev, "direction", 0.0) for ev in evs]
    terminal = [bool(getattr(ev, "terminal", False)) for ev in evs]
    t_events = [[] for _ in evs]
    y_events = [[] for _ in evs]
    ts, zs = [s], [z]
    rtol, atol = tol, tol * 1e-2
    zl = z.tolist()
    f = np.array(rhs(s, zl))
    nfev = 1
    status = 0
    if s == s_end:
        # solve_ivp's corner case: one empty step, no step-size selection
        ts.append(s)
        zs.append(z)
    else:
        h_abs = float(_initial_step(column, z[:, None], f[:, None],
                                    abs(s_end - s), rtol, atol, direction)[0])
        nfev += 1
    K3 = np.empty((1, _dop.N_STAGES_EXTENDED, 4))
    K = K3[0]
    # views of the stage rows and the tableau rows that each stage sum reads
    KT = [K[:i].T for i in range(_N_STAGES + 2)]
    A = [_A[i, :i] for i in range(_N_STAGES)]
    g = [ev(s, z) for ev in evs]

    while s != s_end:
        min_step = 10.0 * abs(nextafter(s, direction * inf) - s)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise RuntimeError(f"integration failed: step size underflow "
                                   f"at s = {s}")
            s_new = s + h_abs * direction
            if direction * (s_new - s_end) > 0.0:
                s_new = s_end
            h = s_new - s
            h_abs = abs(h)
            K[0] = f
            for i in range(1, _N_STAGES):
                # z + np.dot(K[:i].T, a) * h, added up in Python floats
                dz = np.dot(KT[i], A[i]).tolist()
                K[i] = rhs(0.0, [a + b * h for a, b in zip(zl, dz)])
            z_new = z + h * np.dot(KT[_N_STAGES], _B)
            zl_new = z_new.tolist()
            f_new = K[_N_STAGES] = rhs(0.0, zl_new)
            nfev += _N_STAGES

            scale = atol + np.maximum(np.abs(z), np.abs(z_new)) * rtol
            e5 = np.dot(KT[_N_STAGES + 1], _E5) / scale
            e3 = np.dot(KT[_N_STAGES + 1], _E3) / scale
            e5 = sqrt(e5.dot(e5)) ** 2
            e3 = sqrt(e3.dot(e3)) ** 2
            if e5 == 0.0 and e3 == 0.0:
                err_norm = 0.0
            else:
                err_norm = h_abs * e5 / sqrt((e5 + 0.01 * e3) * 4)
            if err_norm < 1.0:
                factor = (_MAX_FACTOR if err_norm == 0.0 else
                          min(_MAX_FACTOR, _SAFETY * err_norm ** _ERROR_EXPONENT))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err_norm ** _ERROR_EXPONENT)
            rejected = True

        s_old, z_old, s, z, zl, f = s, z, s_new, z_new, zl_new, f_new
        g_new = [ev(s, z) for ev in evs]
        active = [e for e, (a, b, d) in enumerate(zip(g, g_new, ev_dir))
                  if (d > 0.0 and a <= 0.0 <= b) or (d < 0.0 and a >= 0.0 >= b)
                  or (d == 0.0 and (a <= 0.0 <= b or a >= 0.0 >= b))]
        g = g_new
        if active:
            F = _dense_coefficients(column, K3, np.array([h]), z_old[:, None],
                                    z[:, None])[0]
            nfev += 3
            z_at = _dense_state(F, z_old, s_old, h)
            active, roots, stop = _locate(evs, terminal, np.array(active),
                                          z_at, s_old, s)
            for e, t in zip(active, roots):
                t_events[e].append(t)
                y_events[e].append(z_at(t))
            if stop:
                status = 1
                s = roots[-1]
                z = z_at(s)
        ts.append(s)
        zs.append(z)
        if status == 1:
            break

    if t_events[0]:
        err = CollisionError("trajectory reached the collision cutoff")
        err.last_state = RotatingState.from_array(zs[-1])
        raise err
    return Trajectory(t=np.array(ts), y=np.array(zs).T,
                      t_events=[np.asarray(x) for x in t_events],
                      y_events=[np.asarray(x) for x in y_events],
                      nfev=nfev, status=status)


def integrate(s: RotatingState, delta_s: float, tol: float, p: Params) -> RotatingState:
    """Propagate a rotating-chart state by time delta_s (either sign).

    Deterministic for fixed inputs; local error controlled at rtol = tol.
    """
    _check_tol(tol)
    if delta_s == 0.0:
        return s
    sol = flow(s.to_array(), (0.0, delta_s), tol, p)
    return RotatingState.from_array(sol.y[:, -1])


@dataclass
class LockstepFlow:
    """Outcome of lockstep_flow, lane k being column k of the input.

    s[k], z[:, k]: final time and state of lane k, at s_end or at the
    crossing that retired it.  s_events[k][e], z_events[k][e]: times and
    states of lane k's crossings of events[e], as solve_ivp's t_events and
    y_events.  work: lockstep iterations, and accepted steps, rejected steps
    and right-hand-side evaluations summed over lanes.
    """

    s: np.ndarray
    z: np.ndarray
    s_events: list
    z_events: list
    work: dict


# The per-lane reductions below repeat scipy's own calls lane by lane: a
# batched matmul runs the BLAS kernel of np.dot on each (16, 4) stage block
# and 4-vector, so every lane's arithmetic is the arithmetic solve_ivp does.
# Bit for bit matters: far from the primaries DOP853's error estimate is at
# the rounding floor, and one ulp of difference grows within a few steps
# into a different step sequence.

def _combine(K, c):
    """np.dot(K[k, :len(c)].T, c) for every lane k, as a (4, m) array."""
    out = np.empty((4, len(K)))
    np.matmul(K[:, :len(c)].transpose(0, 2, 1), c, out=out.T)
    return out


def _norm(x):
    """np.linalg.norm of each column of a (4, m) array."""
    x = np.ascontiguousarray(x.T)
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])


def _pow(x, a):
    """x ** a per lane with the scalar pow that scipy's controller uses;
    0 ** a is inf for a < 0."""
    return np.array([v ** a if v else np.inf for v in x.tolist()])


def _initial_step(fun, z, f, interval, rtol, atol, direction=1.0):
    """scipy's initial step rule (Hairer, Norsett & Wanner II.4), per lane;
    direction is the sign of the time span."""
    scale = atol + np.abs(z) * rtol
    d0 = _norm(z / scale) / 2.0
    d1 = _norm(f / scale) / 2.0
    small = (d0 < 1e-5) | (d1 < 1e-5)
    h0 = np.where(small, 1e-6, 0.01 * d0 / np.where(small, 1.0, d1))
    h0 = np.minimum(h0, interval)
    d2 = _norm((fun(z + h0 * direction * f) - f) / scale) / 2.0 / h0
    flat = (d1 <= 1e-15) & (d2 <= 1e-15)
    h1 = np.where(flat, np.maximum(1e-6, h0 * 1e-3),
                  _pow(0.01 / np.where(flat, 1.0, np.maximum(d1, d2)), 0.125))
    return np.minimum(np.minimum(100.0 * h0, h1), interval)


def _dense_coefficients(fun, K, h, z_old, z_new):
    """Coefficients of DOP853's interpolant over one step, per lane.

    K holds the step's 13 stages of k lanes and room for the 3 extra ones,
    shape (k, 16, 4); the result has shape (k, 7, 4).
    """
    for i in range(_N_STAGES + 1, K.shape[1]):
        K[:, i] = fun(z_old + _combine(K, _A[i, :i]) * h).T
    dz = (z_new - z_old).T
    hk = h[:, None]
    F = np.empty((len(K), _dop.INTERPOLATOR_POWER, 4))
    F[:, 0] = dz
    F[:, 1] = hk * K[:, 0] - dz
    F[:, 2] = 2.0 * dz - hk * (K[:, _N_STAGES] + K[:, 0])
    F[:, 3:] = h[:, None, None] * np.matmul(_D, K)
    return F


def _dense_state(F, z_old, s_old, h):
    """State on one lane's step at time t, from its (7, 4) coefficients."""

    def z_at(t):
        x = (t - s_old) / h
        z = np.zeros(4)
        for i, Fi in enumerate(F[::-1]):
            z += Fi
            z *= x if i % 2 == 0 else 1.0 - x
        return z + z_old

    return z_at


def lockstep_flow(z0, s_end: float, tol: float, p: Params,
                  events=()) -> LockstepFlow:
    """Integrate the lanes z0[:, k] from s = 0 to s_end > 0 together.

    Each lane takes the steps that flow(z0[:, k], (0, s_end), tol, p, events)
    takes, with the same DOP853 tableau, initial-step rule, error norm and
    step-size controller, and repeats its arithmetic.  Each lockstep
    iteration makes one step attempt in every live lane with one vectorised
    right-hand side per stage; lanes keep their own step size and
    accept/reject state.

    Events follow flow's conventions (ev(s, z) with `terminal` and
    `direction`) but get arrays: z of shape (4, m) and s of shape (m,).  A
    sign change over an accepted step is located on the lane's dense output
    as solve_ivp does, and a terminal crossing retires the lane: crossings
    before it in that step are kept, later ones dropped.  An event may carry
    a `gate(s, z)` attribute; its crossings are then located only in steps
    with the gate true at either end, which spares locating crossings the
    caller would discard.

    Raises CollisionError, with the lane's state at the cutoff, when a lane
    reaches the collision cutoff, and RuntimeError when a lane's step size
    underflows.
    """
    _check_tol(tol)
    if not s_end > 0.0:
        raise ValueError("lockstep_flow integrates forward: need s_end > 0")
    rtol = max(tol, 100.0 * _EPS)    # scipy's floor on rtol
    atol = tol * 1e-2
    fun = make_lane_rhs(p)
    evs = [_collision_event(p), *events]
    direction = np.array([getattr(ev, "direction", 0.0) for ev in evs])[:, None]
    terminal = [bool(getattr(ev, "terminal", False)) for ev in evs]
    gates = [(e, ev.gate) for e, ev in enumerate(evs) if hasattr(ev, "gate")]

    z = np.array(z0, dtype=float)
    n = z.shape[1]
    lane = np.arange(n)
    s = np.zeros(n)
    f = fun(z)
    h_abs = _initial_step(fun, z, f, s_end, rtol, atol)
    rejected = np.zeros(n, dtype=bool)
    g = np.array([ev(s, z) for ev in evs])
    K = np.empty((n, _dop.N_STAGES_EXTENDED, 4))
    out = LockstepFlow(s=np.empty(n), z=np.empty((4, n)),
                       s_events=[[[] for _ in events] for _ in range(n)],
                       z_events=[[[] for _ in events] for _ in range(n)],
                       work={"lockstep_iterations": 0, "accepted_steps": 0,
                             "rejected_steps": 0, "rhs_evals": 2 * n})
    work = out.work

    while lane.size:
        m = lane.size
        work["lockstep_iterations"] += 1
        work["rhs_evals"] += _N_STAGES * m
        min_step = 10.0 * np.spacing(s)
        h_abs = np.where(rejected, h_abs, np.maximum(h_abs, min_step))
        if np.any(h_abs < min_step):
            i = np.argmax(h_abs < min_step)
            raise RuntimeError(f"integration failed: step size underflow "
                               f"in lane {lane[i]} at s = {s[i]}")
        s_new = np.minimum(s + h_abs, s_end)
        h = s_new - s
        K[:, 0] = f.T
        for i in range(1, _N_STAGES):
            K[:, i] = fun(z + _combine(K, _A[i, :i]) * h).T
        z_new = z + h * _combine(K, _B)
        f_new = fun(z_new)
        K[:, _N_STAGES] = f_new.T

        scale = atol + np.maximum(np.abs(z), np.abs(z_new)) * rtol
        e5 = _norm(_combine(K, _E5) / scale) ** 2
        e3 = _norm(_combine(K, _E3) / scale) ** 2
        denom = e5 + 0.01 * e3
        err = h * e5 / np.sqrt(np.where(denom > 0.0, denom, 1.0) * 4)
        ok = err < 1.0
        ratio = _SAFETY * _pow(err, _ERROR_EXPONENT)
        factor = np.where(ok, np.minimum(_MAX_FACTOR, ratio),
                          np.fmax(_MIN_FACTOR, ratio))
        h_abs = h * np.where(ok & rejected, np.minimum(1.0, factor), factor)
        rejected = ~ok
        n_ok = int(np.count_nonzero(ok))
        work["accepted_steps"] += n_ok
        work["rejected_steps"] += m - n_ok
        if n_ok == 0:
            continue

        g_new = np.array([ev(s_new, z_new) for ev in evs])
        up = (g <= 0.0) & (g_new >= 0.0)
        down = (g >= 0.0) & (g_new <= 0.0)
        hit = ok & ((up & (direction > 0.0)) | (down & (direction < 0.0))
                    | ((up | down) & (direction == 0.0)))
        for e, gate in gates:
            hit[e] &= gate(s, z) | gate(s_new, z_new)
        done = ok & (s_new >= s_end)
        out.s[lane[done]], out.z[:, lane[done]] = s_new[done], z_new[:, done]
        cols = np.flatnonzero(hit.any(axis=0))
        if cols.size:
            F = _dense_coefficients(fun, K[cols], h[cols], z[:, cols],
                                    z_new[:, cols])
            work["rhs_evals"] += 3 * cols.size
            for j, c in enumerate(cols):
                z_at = _dense_state(F[j], z[:, c], s[c], h[c])
                if _lane_crossings(evs, terminal, np.flatnonzero(hit[:, c]),
                                   z_at, s[c], s_new[c], lane[c], out):
                    done[c] = True

        s = np.where(ok, s_new, s)
        z = np.where(ok, z_new, z)
        f = np.where(ok, f_new, f)
        g = np.where(ok, g_new, g)
        if done.any():
            keep = ~done
            lane, s, z, f, g = lane[keep], s[keep], z[:, keep], f[:, keep], g[:, keep]
            h_abs, rejected, K = h_abs[keep], rejected[keep], K[keep]

    for k in range(n):
        out.s_events[k] = [np.asarray(x) for x in out.s_events[k]]
        out.z_events[k] = [np.asarray(x) for x in out.z_events[k]]
    return out


def _locate(evs, terminal, active, z_at, s_old, s_new):
    """Crossings of evs[active] over one step, as solve_ivp's handle_events
    finds them: roots by brentq on the dense output z_at, and, when a
    terminal event is among them, only the crossings up to the first
    terminal one in time order.

    Returns (active, roots, stop), stop telling whether one was terminal.
    """
    roots = np.array([brentq(lambda t, ev=evs[e]: ev(t, z_at(t)), s_old,
                             s_new, xtol=4.0 * _EPS, rtol=4.0 * _EPS)
                      for e in active])
    stop = any(terminal[e] for e in active)
    if stop:
        order = np.argsort(roots if s_new > s_old else -roots)
        active, roots = active[order], roots[order]
        cut = next(i for i, e in enumerate(active) if terminal[e]) + 1
        active, roots = active[:cut], roots[:cut]
    return active, roots, stop


def _lane_crossings(evs, terminal, active, z_at, s_old, s_new, k,
                    out: LockstepFlow) -> bool:
    """Locate and record lane k's crossings of evs[active] in one step;
    evs[0] is the collision event.

    Returns True when a terminal crossing retires the lane.
    """
    active, roots, stop = _locate(evs, terminal, active, z_at, s_old, s_new)
    if stop:
        out.s[k], out.z[:, k] = roots[-1], z_at(roots[-1])
    for e, t in zip(active, roots):
        if e == 0:
            err = CollisionError(f"lane {k} reached the collision cutoff")
            err.last_state = RotatingState.from_array(out.z[:, k])
            raise err
        out.s_events[k][e - 1].append(t)
        out.z_events[k][e - 1].append(z_at(t))
    return stop


def section_event(phi0: float, direction: float = 0.0):
    """Event function vanishing exactly on {phi = phi0 (mod 2pi)}; it takes
    one state or an array of lanes."""

    def ev(s, z):
        return np.sin(0.5 * (z[1] - phi0))

    ev.terminal = False
    ev.direction = direction
    return ev


def refine_to_section(z, phi0: float, p: Params) -> np.ndarray:
    """Polish a near-crossing state onto the section with Newton micro-steps.

    The correction steps are explicit Euler in time, exact to O(ds^2), so the
    residual |phi - phi0| mod 2pi contracts quadratically down to the
    representation floor of the unwrapped angle (one ulp of |phi|, i.e.
    <= 1e-13 whenever |phi| <= ~700; the time location is always accurate to
    ~1e-14 / |dphi/ds| regardless).
    """
    rhs = make_rhs(p)
    z = np.asarray(z, dtype=float).copy()
    floor = max(1e-15, 4.0 * np.finfo(float).eps * abs(z[1]))
    for _ in range(5):
        w = (z[1] - phi0 + pi) % (2.0 * pi) - pi
        if abs(w) <= floor:
            break
        f = rhs(0.0, z)
        ds = -w / f[1]
        z += ds * np.asarray(f)
    w = (z[1] - phi0 + pi) % (2.0 * pi) - pi
    if abs(w) > _section_tol(z[1]):
        raise RuntimeError(f"section refinement stalled at |phi - phi0| = {abs(w)}")
    return z


def first_return(z, phi0: float, p: Params, tol: float, s_max: float,
                 events=()):
    """Next return of one orbit to the section {phi = phi0 (mod 2pi)}.

    phi decreases along the flow, so the return is the first time the
    unwrapped angle reaches the level phi0 + 2pi k strictly below z[1]; a
    state already on the section (within refine_to_section's tolerance) goes
    on to the next level.  One flow call over (0, s_max), with a terminal
    event on phi - level ahead of events, whose crossings land in
    t_events[2:].

    Returns (trajectory, z_return), z_return being the crossing polished by
    refine_to_section, or None when a terminal event of events or s_max came
    first.  CollisionError from flow propagates.
    """
    k = floor((z[1] - phi0) / (2.0 * pi))
    if z[1] - (phi0 + 2.0 * pi * k) <= _section_tol(z[1]):
        k -= 1
    level = phi0 + 2.0 * pi * k

    def ev(s, zz):
        return zz[1] - level

    ev.terminal = True
    ev.direction = -1.0
    sol = flow(z, (0.0, s_max), tol, p, events=[ev, *events])
    if len(sol.t_events[1]) == 0:
        return sol, None
    return sol, refine_to_section(sol.y_events[1][0], phi0, p)
